//! End-to-end SAT correctness: the distributed solver agrees with the
//! sequential solver and the brute-force oracle, and every model it
//! returns satisfies the original formula.

use hyperspace::core::{BackendSpec, MapperSpec, StackBuilder, TopologySpec};
use hyperspace::sat::heuristics::ALL_HEURISTICS;
use hyperspace::sat::{
    brute, check_model, dpll, gen, DpllProgram, Heuristic, SatResult, SimplifyMode, SolveStats,
    SubProblem, Verdict,
};

fn solve_distributed(
    cnf: &hyperspace::sat::Cnf,
    mode: SimplifyMode,
    mapper: MapperSpec,
) -> Verdict {
    let program = DpllProgram::new(Heuristic::FirstUnassigned).with_mode(mode);
    let report = StackBuilder::new(program)
        .topology(TopologySpec::Torus2D { w: 4, h: 4 })
        .mapper(mapper)
        .run(SubProblem::root(cnf.clone()), 0);
    report.result.expect("root verdict")
}

#[test]
fn distributed_agrees_with_oracle_on_random_instances() {
    // Mixed SAT/UNSAT population: 10 vars, 50 clauses sits near ratio 5
    // where many draws are unsatisfiable.
    for seed in 0..30u64 {
        let cnf = gen::random_ksat(seed, 10, 50, 3);
        let oracle = brute::solve(&cnf);
        let verdict = solve_distributed(
            &cnf,
            SimplifyMode::Fixpoint,
            MapperSpec::LeastBusy {
                status_period: None,
            },
        );
        assert_eq!(verdict.is_sat(), oracle.is_sat(), "seed {seed}");
        if let Verdict::Sat(model) = verdict {
            assert!(check_model(&cnf, &model), "seed {seed}: invalid model");
        }
    }
}

#[test]
fn every_simplify_mode_is_sound() {
    for seed in 0..10u64 {
        let cnf = gen::random_ksat(seed, 8, 36, 3);
        let oracle = brute::solve(&cnf).is_sat();
        for mode in [
            SimplifyMode::Fixpoint,
            SimplifyMode::SinglePass,
            SimplifyMode::SplitOnly,
        ] {
            let verdict = solve_distributed(&cnf, mode, MapperSpec::RoundRobin);
            assert_eq!(verdict.is_sat(), oracle, "seed {seed} mode {mode}");
            if let Verdict::Sat(model) = verdict {
                assert!(check_model(&cnf, &model), "seed {seed} mode {mode}");
            }
        }
    }
}

#[test]
fn distributed_agrees_with_sequential_on_uf20() {
    for seed in [1u64, 2, 3] {
        let cnf = gen::uf20_91(seed);
        let (seq, _) = dpll::solve(&cnf, Heuristic::MostFrequent);
        assert!(seq.is_sat());
        let verdict = solve_distributed(
            &cnf,
            SimplifyMode::Fixpoint,
            MapperSpec::LeastBusy {
                status_period: None,
            },
        );
        let Verdict::Sat(model) = verdict else {
            panic!("seed {seed}: distributed said UNSAT on a satisfiable instance");
        };
        assert!(check_model(&cnf, &model));
    }
}

#[test]
fn unsat_instances_report_unsat_distributed() {
    // Pigeonhole PHP(3, 2).
    let php = gen::pigeonhole(2);
    for mode in [SimplifyMode::Fixpoint, SimplifyMode::SplitOnly] {
        let verdict = solve_distributed(&php, mode, MapperSpec::RoundRobin);
        assert_eq!(verdict, Verdict::Unsat, "{mode}");
    }
}

/// `dpll::solve` on PHP(h+1, h), h = 5, 6, 7 (30, 42 and 56 variables,
/// beyond the brute-force oracle): UNSAT by construction, with the
/// search pinned as recorded at `56f8d06`. The four
/// deterministic heuristics read the same statistics on these formulas.
#[test]
fn sequential_dpll_refutes_pigeonhole() {
    let stats = |decisions, unit_props, pure_assigns, nodes, max_depth| SolveStats {
        decisions,
        unit_props,
        pure_assigns,
        nodes,
        max_depth,
    };
    let pins = [
        (
            5,
            stats(119, 851, 100, 239, 10),
            stats(149, 1269, 122, 299, 18),
        ),
        (
            6,
            stats(719, 5143, 615, 1439, 15),
            stats(861, 7900, 754, 1723, 28),
        ),
        (
            7,
            stats(5039, 36051, 4326, 10079, 21),
            stats(6675, 63250, 6103, 13351, 38),
        ),
    ];
    for (holes, fixed, random) in pins {
        let cnf = gen::pigeonhole(holes);
        for heuristic in ALL_HEURISTICS {
            let expected = match heuristic {
                Heuristic::Random(_) => random,
                _ => fixed,
            };
            let got = dpll::solve(&cnf, heuristic);
            assert_eq!(
                got,
                (SatResult::Unsat, expected),
                "PHP({}, {holes}) {heuristic}",
                holes + 1
            );
        }
    }
}

/// The propagating mesh refutes PHP(h+1, h), h = 5, 6, 7, on a 6x6
/// torus in both propagating modes and on both step engines, in the
/// steps recorded at `56f8d06`.
#[test]
fn propagating_mesh_refutes_pigeonhole() {
    for (holes, steps) in [(5, 36), (6, 131), (7, 735)] {
        let cnf = gen::pigeonhole(holes);
        for mode in [SimplifyMode::Fixpoint, SimplifyMode::SinglePass] {
            for backend in [BackendSpec::Sequential, "sharded:2".parse().unwrap()] {
                let program = DpllProgram::new(Heuristic::FirstUnassigned).with_mode(mode);
                let report = StackBuilder::new(program)
                    .topology(TopologySpec::Torus2D { w: 6, h: 6 })
                    .mapper(MapperSpec::RoundRobin)
                    .backend(backend.clone())
                    .run(SubProblem::root(cnf.clone()), 0);
                let php = format!("PHP({}, {holes}) {mode} {backend}", holes + 1);
                assert_eq!(report.result, Some(Verdict::Unsat), "{php}");
                assert_eq!(report.steps, steps, "{php}");
            }
        }
    }
}

#[test]
fn planted_instances_solve_at_scale() {
    // A 28-var planted instance on a 64-core machine — beyond the brute
    // oracle, verified via the plant and the returned model.
    let (cnf, hidden) = gen::planted_ksat(5, 28, 110, 3);
    assert!(check_model(&cnf, &hidden));
    let program = DpllProgram::new(Heuristic::JeroslowWang);
    let report = StackBuilder::new(program)
        .topology(TopologySpec::Torus2D { w: 8, h: 8 })
        .mapper(MapperSpec::LeastBusy {
            status_period: None,
        })
        .run(SubProblem::root(cnf.clone()), 0);
    let Some(Verdict::Sat(model)) = report.result else {
        panic!("planted instance must be satisfiable");
    };
    assert!(check_model(&cnf, &model));
}
