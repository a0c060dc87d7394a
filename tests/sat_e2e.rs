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

/// `dpll::solve`'s full statistics on `satisfiable_ksat(seed, 40, 182,
/// 3)`, the shape of the `portfolio_sat` pool, for every heuristic, as
/// recorded at `ba2c71f`: `[nodes, decisions, unit_props, pure_assigns,
/// max_depth]` per heuristic in `ALL_HEURISTICS` order. A refuted branch
/// stops at its first empty clause, so its `unit_props` count depends on
/// the order units are forced in, and a changed order moves this table.
#[test]
fn sequential_dpll_statistics_on_ksat_40_182_are_pinned() {
    #[rustfmt::skip]
    let pins: [(u64, [[u64; 5]; 5]); 20] = [
        (1, [[206, 104, 940, 41, 16], [18, 12, 69, 15, 9], [43, 23, 222, 17, 11], [14, 12, 23, 8, 12], [199, 101, 995, 15, 15]]),
        (2, [[44, 23, 237, 1, 10], [25, 15, 128, 0, 8], [33, 20, 165, 3, 11], [38, 22, 178, 1, 10], [110, 56, 556, 6, 12]]),
        (3, [[21, 12, 106, 2, 8], [91, 46, 552, 5, 12], [15, 14, 22, 1, 14], [12, 11, 23, 5, 11], [285, 144, 1763, 9, 15]]),
        (4, [[23, 15, 74, 7, 10], [26, 16, 124, 2, 9], [23, 15, 106, 3, 9], [57, 31, 330, 3, 11], [168, 87, 948, 17, 13]]),
        (5, [[18, 10, 107, 1, 8], [11, 9, 37, 5, 9], [10, 8, 50, 1, 8], [18, 13, 50, 10, 10], [6, 5, 33, 0, 5]]),
        (6, [[48, 26, 310, 1, 10], [20, 12, 118, 3, 8], [23, 16, 85, 11, 12], [11, 7, 78, 1, 7], [193, 99, 1126, 1, 12]]),
        (7, [[47, 25, 224, 13, 9], [11, 9, 28, 5, 9], [13, 12, 16, 11, 12], [13, 12, 11, 12, 12], [17, 13, 60, 4, 12]]),
        (8, [[44, 24, 244, 0, 10], [22, 13, 126, 0, 6], [16, 10, 90, 2, 8], [16, 9, 106, 0, 7], [177, 89, 943, 8, 13]]),
        (9, [[21, 14, 74, 4, 12], [18, 11, 94, 3, 7], [13, 10, 55, 4, 9], [15, 12, 35, 3, 11], [91, 46, 551, 7, 10]]),
        (10, [[128, 64, 752, 7, 10], [17, 10, 100, 0, 6], [30, 16, 164, 1, 7], [38, 21, 210, 1, 7], [32, 18, 210, 0, 7]]),
        (11, [[27, 15, 153, 8, 8], [10, 7, 54, 2, 7], [12, 10, 39, 2, 10], [10, 9, 28, 2, 9], [246, 125, 1307, 18, 12]]),
        (12, [[42, 25, 179, 8, 12], [40, 21, 238, 9, 6], [61, 32, 374, 6, 9], [17, 12, 99, 2, 9], [39, 22, 176, 10, 12]]),
        (13, [[20, 14, 62, 1, 11], [24, 14, 145, 6, 8], [12, 10, 36, 6, 10], [13, 10, 42, 3, 10], [15, 9, 90, 4, 6]]),
        (14, [[107, 55, 511, 12, 13], [14, 10, 65, 4, 8], [9, 8, 22, 7, 8], [9, 8, 21, 8, 8], [57, 29, 294, 6, 11]]),
        (15, [[12, 11, 23, 3, 11], [9, 8, 21, 8, 8], [12, 11, 18, 7, 11], [12, 11, 19, 6, 11], [34, 19, 179, 4, 10]]),
        (16, [[77, 41, 429, 15, 11], [23, 14, 143, 12, 9], [10, 9, 18, 12, 9], [10, 9, 14, 15, 9], [101, 55, 530, 5, 12]]),
        (17, [[78, 44, 331, 8, 14], [24, 15, 85, 9, 10], [21, 13, 56, 19, 10], [18, 14, 57, 6, 13], [192, 98, 990, 19, 13]]),
        (18, [[42, 24, 265, 6, 11], [27, 15, 168, 5, 8], [21, 13, 118, 5, 9], [13, 9, 48, 3, 7], [158, 79, 851, 10, 11]]),
        (19, [[106, 57, 527, 17, 12], [35, 21, 151, 11, 12], [17, 12, 62, 5, 9], [33, 21, 124, 21, 12], [90, 46, 471, 11, 13]]),
        (20, [[141, 71, 809, 13, 11], [19, 13, 58, 7, 10], [19, 13, 84, 11, 10], [11, 8, 46, 7, 8], [149, 77, 767, 13, 11]]),
    ];
    for (seed, row) in pins {
        let cnf = gen::satisfiable_ksat(seed, 40, 182, 3);
        for (heuristic, [nodes, decisions, unit_props, pure_assigns, max_depth]) in
            ALL_HEURISTICS.into_iter().zip(row)
        {
            let (result, stats) = dpll::solve(&cnf, heuristic);
            let model = result.model().expect("satisfiable by construction");
            assert!(check_model(&cnf, model), "seed {seed} {heuristic}");
            let expected = SolveStats {
                decisions,
                unit_props,
                pure_assigns,
                nodes,
                max_depth,
            };
            assert_eq!(stats, expected, "seed {seed} {heuristic}");
        }
    }
}
