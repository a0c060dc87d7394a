//! Shared experiment plumbing.

use std::time::{Duration, Instant};

use hyperspace_core::{BackendSpec, MapperSpec, RecRunReport, StackBuilder, TopologySpec};
use hyperspace_portfolio::{PortfolioReport, PortfolioRunner};
use hyperspace_sat::{Cnf, DpllProgram, Heuristic, SimplifyMode, SubProblem, Verdict};
use hyperspace_sim::NodeId;

/// Everything that parameterises one SAT solve on the simulated machine.
#[derive(Clone, Debug)]
pub struct SatRunConfig {
    /// Machine topology.
    pub topology: TopologySpec,
    /// Mapping policy.
    pub mapper: MapperSpec,
    /// Branching heuristic (the paper leaves this "algorithm-independent";
    /// we default to first-unassigned, the barebone choice).
    pub heuristic: Heuristic,
    /// Per-activation simplification strength (workload regime; see
    /// EXPERIMENTS.md on calibration).
    pub mode: SimplifyMode,
    /// Withdraw losing speculative branches (beyond-paper, ABL-C).
    pub cancellation: bool,
    /// Node receiving the trigger.
    pub root: NodeId,
    /// Execution backend (bit-identical results; wall-clock only).
    pub backend: BackendSpec,
    /// End the run at the root verdict instead of draining to quiescence.
    /// Required when status broadcasts are enabled (they keep the machine
    /// non-quiescent); changes the meaning of `computation_time` to
    /// "time to solution".
    pub halt_on_root: bool,
}

impl SatRunConfig {
    /// The paper's baseline configuration on the given machine/mapper.
    pub fn new(topology: TopologySpec, mapper: MapperSpec) -> Self {
        SatRunConfig {
            topology,
            mapper,
            heuristic: Heuristic::FirstUnassigned,
            mode: SimplifyMode::SplitOnly,
            cancellation: false,
            root: 0,
            backend: BackendSpec::Sequential,
            halt_on_root: false,
        }
    }
}

/// Solves one instance on the simulated machine.
///
/// §V-C measures computation time as "the number of simulation time steps
/// between the first (trigger) and last messages": the run continues until
/// the machine drains — losing speculative branches are "ignored", not
/// cancelled, and their traffic counts (that is precisely what makes small
/// machines slow and Figure 4's scaling signal). The root verdict is still
/// validated.
pub fn run_sat(cnf: &Cnf, cfg: &SatRunConfig) -> RecRunReport<Verdict> {
    StackBuilder::new(DpllProgram::new(cfg.heuristic).with_mode(cfg.mode))
        .topology(cfg.topology.clone())
        .mapper(cfg.mapper.clone())
        .cancellation(cfg.cancellation)
        .backend(cfg.backend.clone())
        .halt_on_root_reply(cfg.halt_on_root)
        .run(SubProblem::root(cnf.clone()), cfg.root)
}

/// Mean and spread of a sample set. Figure 4's data points are means
/// over 20 benchmark problems; the harness also reports the spread so
/// runs can be compared honestly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
}

impl Stats {
    /// Computes the mean and spread. Panics on an empty slice.
    pub fn from_slice(samples: &[f64]) -> Stats {
        assert!(!samples.is_empty(), "Stats::from_slice on empty input");
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        Stats {
            mean,
            std: var.sqrt(),
        }
    }
}

/// Mean performance (1/computation-time) over a suite of instances — one
/// Figure 4 data point. Also returns the per-instance values.
pub fn suite_performance(suite: &[Cnf], cfg: &SatRunConfig) -> (Stats, Vec<f64>) {
    let perfs: Vec<f64> = suite
        .iter()
        .map(|cnf| {
            let report = run_sat(cnf, cfg);
            assert!(
                matches!(report.result, Some(Verdict::Sat(_))),
                "uf20-91 instances are satisfiable ({}, {})",
                cfg.topology.name(),
                cfg.mapper.name(),
            );
            report.performance()
        })
        .collect();
    (Stats::from_slice(&perfs), perfs)
}

/// Column-wise means of fixed-width rows, each column averaged by
/// [`Stats`] exactly as a hand-collected `Vec` of it would be.
pub fn column_means<const N: usize>(rows: impl Iterator<Item = [f64; N]>) -> [f64; N] {
    let rows: Vec<[f64; N]> = rows.collect();
    std::array::from_fn(|c| {
        let column: Vec<f64> = rows.iter().map(|row| row[c]).collect();
        Stats::from_slice(&column).mean
    })
}

/// Solves every instance of `suite` under `cfg` and averages the
/// `columns` picked out of each report — one ablation table row.
pub fn suite_means<const N: usize>(
    suite: &[Cnf],
    cfg: &SatRunConfig,
    columns: impl Fn(&RecRunReport<Verdict>) -> [f64; N],
) -> [f64; N] {
    column_means(suite.iter().map(|cnf| columns(&run_sat(cnf, cfg))))
}

/// The Figure 4 x-axis: target core counts, log-spaced 16..1024.
pub const FIG4_CORE_COUNTS: [usize; 7] = [16, 32, 64, 128, 256, 512, 1024];

/// The five Figure 4 curves: (label, topology for each core count, mapper).
///
/// The fully-connected baseline uses *random* mapping — the decentralised
/// reading of "send to any core". (Port-indexed round robin on a complete
/// graph degenerates: port `k` of every node points at the same low-id
/// victims, so the work frontier grows linearly instead of exponentially.)
pub fn fig4_curves(status_period: Option<u64>) -> Vec<(String, Vec<TopologySpec>, MapperSpec)> {
    let torus2d: Vec<TopologySpec> = FIG4_CORE_COUNTS
        .iter()
        .map(|&n| TopologySpec::torus2d_fitting(n))
        .collect();
    let torus3d: Vec<TopologySpec> = FIG4_CORE_COUNTS
        .iter()
        .map(|&n| TopologySpec::torus3d_fitting(n))
        .collect();
    let full: Vec<TopologySpec> = FIG4_CORE_COUNTS
        .iter()
        .map(|&n| TopologySpec::Full { n: n as u32 })
        .collect();
    let rr = MapperSpec::RoundRobin;
    let lbn = MapperSpec::LeastBusy { status_period };
    vec![
        ("2D Torus + RR".into(), torus2d.clone(), rr.clone()),
        ("3D Torus + RR".into(), torus3d.clone(), rr.clone()),
        ("2D Torus + LBN".into(), torus2d, lbn.clone()),
        ("3D Torus + LBN".into(), torus3d, lbn),
        (
            "Fully connected".into(),
            full,
            MapperSpec::Random { seed: 0xF0_11 },
        ),
    ]
}

/// The paper's benchmark suite: 20 satisfiable uf20-91 instances (§V-C).
pub fn paper_suite() -> Vec<Cnf> {
    hyperspace_sat::gen::uf20_91_suite(2017, 20)
}

/// Writes a CSV file under `results/`, creating the directory, and
/// says where (or why not: a read-only checkout still gets the tables).
pub fn write_results_csv(name: &str, content: &str) {
    let dir = std::path::Path::new("results");
    let path = dir.join(name);
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, content)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write CSV: {e}"),
    }
}

/// What one portfolio race cost.
pub struct RaceCost {
    /// Search nodes expanded (layer-4 activations for mesh members,
    /// decisions for CDCL), summed over the members.
    pub nodes: u64,
    /// Logical units until the winner's first solution.
    pub first_units: u64,
    /// Wall time of the whole race.
    pub wall: Duration,
}

/// Runs one race on the portfolio sweeps' machine (6x6 torus,
/// least-busy mapping) and extracts its cost/latency numbers.
pub fn race(
    runner: PortfolioRunner,
    run: impl FnOnce(PortfolioRunner) -> PortfolioReport,
) -> (RaceCost, PortfolioReport) {
    let runner = runner
        .topology(TopologySpec::Torus2D { w: 6, h: 6 })
        .mapper(MapperSpec::LeastBusy {
            status_period: None,
        });
    let start = Instant::now();
    let report = run(runner);
    let wall = start.elapsed();
    let first_units = report
        .winner
        .and_then(|id| report.members[id].finish_units)
        .expect("race must produce an answer");
    let cost = RaceCost {
        nodes: report.total_expanded(),
        first_units,
        wall,
    };
    (cost, report)
}
