//! SAT substrate microbenchmarks: sequential solver per heuristic,
//! instance generation, the simplification pipeline, and one DPLL split
//! (both children of a branching variable, simplified).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hyperspace_recursion::{RecProgram, Step};
use hyperspace_sat::heuristics::ALL_HEURISTICS;
use hyperspace_sat::simplify::{simplify_with, SimplifyMode};
use hyperspace_sat::{cdcl, dpll, gen, Assignment, Cnf, DpllProgram, Heuristic, SubProblem, Var};

fn bench_sequential_solver(c: &mut Criterion) {
    let cnf = gen::uf20_91(2017);
    let mut group = c.benchmark_group("dpll-seq");
    group.sample_size(20);
    for h in ALL_HEURISTICS {
        group.bench_function(BenchmarkId::from_parameter(h.to_string()), |b| {
            b.iter(|| {
                let (r, stats) = dpll::solve(std::hint::black_box(&cnf), h);
                assert!(r.is_sat());
                stats.nodes
            })
        });
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

/// Layer 5's other share of an activation: `simplify_with` on residual
/// formulas a search meets, in every mode. A formula `name@d` is `name`
/// after its first `d` variables took their values in a model, so nothing
/// it forces conflicts: `@1` forces nothing (the quiescent early exit),
/// `uf20-91@7` 13 units, `ksat-40-182@11` 5 units and a pure literal,
/// `ksat-40-182@12` 23 units and 3 pure literals (1 under `single-pass`).
/// A call takes well under a microsecond on the early exits, so each
/// sample is 100 calls.
fn bench_simplify(c: &mut Criterion) {
    let mut group = c.benchmark_group("simplify");
    group.sample_size(50);
    let formulas = [
        ("uf20-91", gen::uf20_91(2017), &[1, 7][..]),
        (
            "ksat-40-182",
            gen::satisfiable_ksat(2017, 40, 182, 3),
            &[1, 11, 12],
        ),
    ];
    for (name, cnf, depths) in &formulas {
        for &depth in *depths {
            let residual = on_a_model_path(cnf, depth);
            for mode in [
                SimplifyMode::Fixpoint,
                SimplifyMode::SinglePass,
                SimplifyMode::SplitOnly,
            ] {
                let id = BenchmarkId::new(mode.to_string(), format!("{name}@{depth}"));
                group.bench_function(id, |b| {
                    b.iter(|| {
                        for _ in 0..100 {
                            let mut f = std::hint::black_box(&residual).clone();
                            let mut a = Assignment::new(f.num_vars());
                            std::hint::black_box(simplify_with(&mut f, &mut a, mode));
                        }
                    })
                });
            }
        }
    }
    group.finish();
}

/// `cnf` after its first `depth` variables took their values in a model.
fn on_a_model_path(cnf: &Cnf, depth: u32) -> Cnf {
    let (result, _) = dpll::solve(cnf, Heuristic::JeroslowWang);
    let model = result.model().expect("satisfiable by construction");
    (0..depth).fold(cnf.clone(), |f, v| f.assign(Var(v), model[v as usize]))
}

/// Layer 5's share of a propagating mesh activation with its children's
/// lines 6–11 (`Fixpoint`, Jeroslow–Wang, from `ksat-40-182@1` and `@11`
/// as in the `simplify` group). `split+simplify×2` is that formula's root
/// activation done the self-simplifying way: simplifying, choosing and
/// assigning each polarity, then each child's `simplify_with` of its own
/// copy. `path` is a mid-search activation: `DpllProgram::start` on the
/// root's first child, cloned per iteration, whose split runs both of its
/// children's lines 6–11 on counters over the root formula the search
/// shares. Only at `@1`: at `@11` the propagation decides both children.
fn bench_split(c: &mut Criterion) {
    let mut group = c.benchmark_group("split");
    group.sample_size(50);
    let ksat = gen::satisfiable_ksat(2017, 40, 182, 3);
    let program = DpllProgram::new(Heuristic::JeroslowWang);
    for depth in [1, 11] {
        let parent = on_a_model_path(&ksat, depth);
        let name = format!("ksat-40-182@{depth}");
        group.bench_function(BenchmarkId::new("split+simplify×2", &name), |b| {
            b.iter(|| {
                let mut f = std::hint::black_box(&parent).clone();
                let mut a = Assignment::new(f.num_vars());
                simplify_with(&mut f, &mut a, SimplifyMode::Fixpoint);
                let var = Heuristic::JeroslowWang.select(&f).expect("undecided").var();
                [true, false].map(|value| {
                    let mut child = f.assign(var, value);
                    let mut path = a.clone();
                    path.assign(var, value);
                    simplify_with(&mut child, &mut path, SimplifyMode::Fixpoint);
                    (child, path)
                })
            })
        });
        if depth > 1 {
            continue;
        }
        let Step::Spawn(spawn) = program.start(SubProblem::root(parent.clone())) else {
            panic!("{name} is undecided at its root");
        };
        let child = spawn.calls.into_iter().next().expect("a first child");
        assert!(matches!(program.start(child.clone()), Step::Spawn(_)));
        group.bench_function(BenchmarkId::new("path", &name), |b| {
            b.iter(|| program.start(std::hint::black_box(&child).clone()))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sequential_solver,
    bench_cdcl,
    bench_generator,
    bench_simplify,
    bench_split
);
criterion_main!(benches);
