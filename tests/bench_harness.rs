//! The bench harness, pinned: the flood delivers the same traffic on the
//! kernel and on the reference interpreter, the interleaved loop judges
//! the cleanest pair, `suite_means` is `Stats` column by column, the
//! command line parses once, and the figures' charts and Figure 5's
//! readings are the ones recorded at `a2d8419`.

use std::cell::Cell;

use hyperspace::core::{MapperSpec, RecRunReport, TopologySpec};
use hyperspace::obs::{ascii, ObsHandle};
use hyperspace::sat::{gen, Verdict};
use hyperspace_bench::experiments::{paper_suite, run_sat, suite_means, SatRunConfig, Stats};
use hyperspace_bench::harness::{interleaved, Args, Flood};

#[test]
fn the_flood_delivers_the_same_traffic_on_kernel_and_reference() {
    // `l1_budgets --smoke`'s two machines.
    let floods = [
        Flood {
            name: "sparse",
            side: 32,
            messages: 8,
        },
        Flood {
            name: "dense",
            side: 8,
            messages: 64,
        },
    ];
    for flood in &floods {
        let kernel = flood.on_engine(500, ObsHandle::off());
        let reference = flood.on_reference(500);
        assert_eq!(
            (kernel.steps, reference.steps),
            (500, 500),
            "{}",
            flood.name
        );
        assert_eq!(kernel.delivered, reference.delivered, "{}", flood.name);
        assert!(kernel.steps_per_sec > 0.0 && reference.steps_per_sec > 0.0);
    }
}

#[test]
fn interleaved_reports_per_side_maxima_and_the_cleanest_pair() {
    // First rate of each script is the warm-up and must be discarded.
    let script_a = [1000.0, 10.0, 30.0, 20.0];
    let script_b = [1000.0, 5.0, 10.0, 40.0];
    let (calls_a, calls_b) = (Cell::new(0), Cell::new(0));
    let next = |script: &[f64; 4], calls: &Cell<usize>| {
        calls.set(calls.get() + 1);
        script[calls.get() - 1]
    };
    let pairs = interleaved(
        "scripted",
        3,
        || next(&script_a, &calls_a),
        || next(&script_b, &calls_b),
    );
    assert_eq!((calls_a.get(), calls_b.get()), (4, 4), "one warm-up each");
    assert_eq!((pairs.a, pairs.b), (30.0, 40.0));
    // Pair ratios are 2.0, 3.0 and 0.5 — not max(a) / max(b) = 0.75.
    assert_eq!(pairs.ratio, 3.0);
}

#[test]
fn suite_means_is_stats_mean_column_by_column() {
    let suite: Vec<_> = (0..3).map(|s| gen::random_ksat(s, 10, 38, 3)).collect();
    let cfg = SatRunConfig::new(
        TopologySpec::Torus2D { w: 4, h: 4 },
        MapperSpec::LeastBusy {
            status_period: None,
        },
    );
    let means = suite_means(&suite, &cfg, |report| {
        [
            report.computation_time as f64,
            report.metrics.total_sent as f64,
            report.metrics.hop_histogram.mean(),
        ]
    });
    let reports: Vec<_> = suite.iter().map(|cnf| run_sat(cnf, &cfg)).collect();
    let column = |pick: &dyn Fn(&RecRunReport<Verdict>) -> f64| {
        Stats::from_slice(&reports.iter().map(pick).collect::<Vec<f64>>()).mean
    };
    let expected = [
        column(&|r| r.computation_time as f64),
        column(&|r| r.metrics.total_sent as f64),
        column(&|r| r.metrics.hop_histogram.mean()),
    ];
    // Bit for bit: this is what keeps the committed CSVs byte-identical.
    assert_eq!(means.map(f64::to_bits), expected.map(f64::to_bits));
    // The spread is the population standard deviation.
    let s = Stats::from_slice(&[1.0, 2.0, 3.0, 4.0]);
    assert_eq!((s.mean, s.std), (2.5, 1.25f64.sqrt()));
    assert_eq!(Stats::from_slice(&[7.5]).std, 0.0);
}

#[test]
fn args_parse_flags_once() {
    let args = Args::new(["--smoke", "--iters", "12", "--out", "report.json"]);
    assert!(args.smoke());
    assert_eq!(args.u64_or("--iters", 7), 12);
    assert_eq!(
        args.u64_or("--seed", 7),
        7,
        "missing flag yields the default"
    );
    assert_eq!(args.value("--out"), Some("report.json"));
    assert_eq!(args.value("--nope"), None);
    assert!(!Args::new(["--iters", "12"]).smoke());
}

#[test]
#[should_panic(expected = "--iters takes a u64")]
fn a_malformed_number_panics_naming_the_flag() {
    Args::new(["--iters", "x"]).u64_or("--iters", 7);
}

#[test]
fn the_charts_render_the_parent_recorded_strings() {
    let line: Vec<f64> = (0..30).map(|v| ((v * 7) % 11) as f64).collect();
    assert_eq!(
        ascii::render_line_chart(&line, 12, 5),
        "      8.00 |          * \n           | *   *  *   \n           |  **   *   *\n\
         \x20          |*     *  *  \n      2.00 |    *       \n"
    );
    assert_eq!(
        ascii::render_line_chart(&[5.0; 3], 6, 3),
        "      5.00 |      \n           |      \n      5.00 |******\n"
    );
    assert_eq!(ascii::render_line_chart(&[], 6, 3), "(empty series)\n");

    let up: Vec<f64> = (0..20).map(|v| v as f64).collect();
    let wave: Vec<f64> = (0..13).map(|v| ((v * 5) % 9) as f64 + 0.5).collect();
    assert_eq!(
        ascii::render_multi_chart(&[("up", &up), ("wave", &wave)], 16, 6),
        "     19.00 |               *\n           |           **** \n\
         \x20          |        ***     \n           |    o**o o     o\n\
         \x20          |  o**oo o oo o  \n      0.00 |oo o        o o \n\
         \x20          +----------------\n            * up   o wave\n"
    );

    let table = ascii::render_loglog_table(
        "cores",
        &[16, 64, 256],
        &[("a", &[0.5, f64::NAN, 2.25][..]), ("b", &[1.0][..])],
    );
    assert_eq!(
        table,
        "       cores                   a                   b\n\
         \x20         16            0.500000            1.000000\n\
         \x20         64                   -                   -\n\
         \x20        256            2.250000                   -\n"
    );

    let counts = [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144];
    assert_eq!(
        ascii::render_heatmap(&counts, 4),
        "|    |\n| ...|\n|:-*@|\n"
    );
}

#[test]
fn figure5_instance0_reads_the_parent_recorded_spread_and_queues() {
    // (activity spread bits, peak queued, steps recorded) on the Figure 5
    // machine, recorded at `a2d8419` through `heatmap(14, 14).spread()`.
    let cnf = &paper_suite()[0];
    for (mapper, expected) in [
        (MapperSpec::RoundRobin, (0x3ff69f6b06ee26d5, 277, 107)),
        (
            MapperSpec::LeastBusy {
                status_period: None,
            },
            (0x3fe26d1b46ef3c85, 328, 80),
        ),
    ] {
        let cfg = SatRunConfig::new(TopologySpec::Torus2D { w: 14, h: 14 }, mapper);
        let metrics = run_sat(cnf, &cfg).metrics;
        assert_eq!(
            (
                metrics.activity_spread().to_bits(),
                metrics.peak_queued(),
                metrics.queued_series.len()
            ),
            expected,
            "{:?}",
            cfg.mapper
        );
    }
}
