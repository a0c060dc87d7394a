//! The six workloads. Each builds its inputs from the seed alone and
//! hands the product code nothing but generated instances.

pub mod bnb_sharded;
mod l1;
pub mod mesh_sat;
pub mod portfolio_sat;
mod service_mix;
pub mod stack;

use crate::harness::Workload;

/// Sets the named workload up from `seed`: instances, oracles and any
/// long-lived service. The caller runs the warm-up pass.
pub fn build(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "mesh_sat" => Box::new(mesh_sat::MeshSat::new(seed)),
        "bnb_sharded" => Box::new(bnb_sharded::BnbSharded::new(seed)),
        "l1_sparse" => Box::new(l1::L1::sparse(seed)),
        "l1_dense" => Box::new(l1::L1::dense(seed)),
        "service_mix" => Box::new(service_mix::ServiceMix::new(seed)),
        "portfolio_sat" => Box::new(portfolio_sat::PortfolioSat::new(seed)),
        other => panic!("unknown workload {other:?}"),
    }
}

/// Threads the named workload computes on, which is how many the host
/// gauge reads at once.
pub fn threads(name: &str) -> usize {
    match name {
        "bnb_sharded" | "service_mix" | "portfolio_sat" => crate::spec::THREADS,
        _ => 1,
    }
}
