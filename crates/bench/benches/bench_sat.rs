//! SAT substrate microbenchmarks: sequential solver per heuristic on two
//! formulas, instance generation, and one mid-search mesh activation (both children
//! of a branching variable, simplified).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hyperspace_recursion::{RecProgram, Step};
use hyperspace_sat::heuristics::ALL_HEURISTICS;
use hyperspace_sat::{cdcl, dpll, gen, Cnf, DpllProgram, Heuristic, Lit, SubProblem};

/// `dpll::solve` per heuristic on uf20-91 (rows named by the heuristic
/// alone) and on `ksat-40-182@1`, the shape of the `portfolio_sat`
/// benchmark's formulas.
fn bench_sequential_solver(c: &mut Criterion) {
    let uf20 = gen::uf20_91(2017);
    let ksat = gen::satisfiable_ksat(1, 40, 182, 3);
    let mut group = c.benchmark_group("dpll-seq");
    group.sample_size(20);
    for h in ALL_HEURISTICS {
        let rows = [
            (BenchmarkId::from_parameter(h.to_string()), &uf20),
            (BenchmarkId::new(h.to_string(), "ksat-40-182@1"), &ksat),
        ];
        for (id, cnf) in rows {
            group.bench_function(id, |b| {
                b.iter(|| {
                    let (r, stats) = dpll::solve(std::hint::black_box(cnf), h);
                    assert!(r.is_sat());
                    stats.nodes
                })
            });
        }
    }
    group.finish();
}

fn bench_cdcl(c: &mut Criterion) {
    let cnf = gen::uf20_91(2017);
    let mut group = c.benchmark_group("cdcl-lite");
    group.sample_size(20);
    group.bench_function("uf20-91", |b| {
        b.iter(|| {
            let (r, stats) = cdcl::solve(std::hint::black_box(&cnf));
            assert!(r.is_sat());
            stats.decisions
        })
    });
    group.finish();
}

fn bench_generator(c: &mut Criterion) {
    let mut group = c.benchmark_group("gen");
    group.sample_size(20);
    group.bench_function("random_ksat-20-91", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            gen::random_ksat(seed, 20, 91, 3)
        })
    });
    group.bench_function("uf20_91-filtered", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            gen::uf20_91(seed)
        })
    });
    group.bench_function("planted-50-210", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            gen::planted_ksat(seed, 50, 210, 3)
        })
    });
    group.finish();
}

/// `cnf` after its first `depth` variables took their values in a model:
/// each clause one of them satisfies dropped, each occurrence of one
/// dropped from the clauses left.
fn on_a_model_path(cnf: &Cnf, depth: u32) -> Cnf {
    let (result, _) = dpll::solve(cnf, Heuristic::JeroslowWang);
    let model = result.model().expect("satisfiable by construction");
    let set = |lit: &Lit| lit.var().0 < depth;
    let holds = |lit: &Lit| set(lit) && model[lit.var().0 as usize] == lit.demanded_value();
    let clauses = cnf.clauses().filter(|clause| !clause.iter().any(holds));
    let clauses = clauses.map(|clause| clause.iter().copied().filter(|lit| !set(lit)).collect());
    Cnf::new(cnf.num_vars(), clauses.collect())
}

/// Layer 5's share of a propagating mesh activation with its children's
/// lines 6–11 (`Fixpoint`, Jeroslow–Wang): `DpllProgram::start` on the
/// first child of `ksat-40-182@1`'s root, cloned per iteration, whose
/// split runs both of its children's lines 6–11 on counters over the
/// root formula the search shares.
fn bench_split(c: &mut Criterion) {
    let mut group = c.benchmark_group("split");
    group.sample_size(50);
    let ksat = gen::satisfiable_ksat(2017, 40, 182, 3);
    let program = DpllProgram::new(Heuristic::JeroslowWang);
    let parent = on_a_model_path(&ksat, 1);
    let Step::Spawn(spawn) = program.start(SubProblem::root(parent)) else {
        panic!("ksat-40-182@1 is undecided at its root");
    };
    let child = spawn.calls.into_iter().next().expect("a first child");
    assert!(matches!(program.start(child.clone()), Step::Spawn(_)));
    group.bench_function(BenchmarkId::new("path", "ksat-40-182@1"), |b| {
        b.iter(|| program.start(std::hint::black_box(&child).clone()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sequential_solver,
    bench_cdcl,
    bench_generator,
    bench_split
);
criterion_main!(benches);
