//! The bench harness, pinned: the flood delivers the same traffic on the
//! kernel and on the reference interpreter, the interleaved loop judges
//! the cleanest pair, `suite_means` is `Stats` column by column, and the
//! command line parses once.

use std::cell::Cell;

use hyperspace::core::{MapperSpec, RecRunReport, TopologySpec};
use hyperspace::metrics::Stats;
use hyperspace::obs::ObsHandle;
use hyperspace::sat::{gen, Verdict};
use hyperspace_bench::experiments::{run_sat, suite_means, SatRunConfig};
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
