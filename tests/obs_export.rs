//! Exporter format validity and snapshot stability.
//!
//! Three contracts live here: (1) the registry snapshot JSON (what
//! `ServiceObserver::snapshot`/`snapshot_pretty` render) is stable
//! against a committed golden file, (2) the Chrome-trace export of a
//! real sharded run round-trips through the JSON parser with at least
//! one span per phase per shard, and (3) the Prometheus exposition
//! output passes a line-by-line grammar check.

use std::sync::Arc;

use hyperspace::obs::{
    chrome_trace, pretty, Event, EventKind, JobProbe, JsonValue, ObsHandle, Observer, Phase,
    Registry, TraceBuffer,
};
use hyperspace::sim::{
    DeliveryModel, InitCtx, NodeId, NodeProgram, Outbox, Partition, ShardedConfig,
    ShardedSimulation, SimConfig,
};

// ---------------------------------------------------------------- golden

/// Zeroes every `micros` field (wall-clock timestamps are the only
/// nondeterministic values in a snapshot built from fixed inputs).
fn scrub(v: &mut JsonValue) {
    match v {
        JsonValue::Object(fields) => {
            for (key, value) in fields.iter_mut() {
                if key == "micros" {
                    *value = JsonValue::UInt(0);
                } else {
                    scrub(value);
                }
            }
        }
        JsonValue::Array(items) => {
            for item in items.iter_mut() {
                scrub(item);
            }
        }
        _ => {}
    }
}

/// A registry populated with fixed values through the same hooks the
/// engines and service call — every snapshot section is non-empty.
fn golden_registry() -> Registry {
    let r = Registry::with_limits(8, 4);
    r.counter("jobs.submitted").add(3);
    r.counter("jobs.completed").add(2);
    r.gauge("queue.depth").set(1);
    r.span("store.persist").record(1_500);
    r.span("store.persist").record(500);
    let probe = r.probe(1, "sat");
    probe.on_step(64, 12, 3);
    probe.on_progress(64, 5, Some(-7));
    probe.on_checkpoint(2_048);
    probe.on_phase(0, Phase::BarrierWait, 3_000);
    probe.on_phase(0, Phase::Delivery, 400);
    probe.on_phase(0, Phase::Handler, 900);
    probe.on_phase(1, Phase::Handler, 1_100);
    probe.on_shard_active(0, 4);
    probe.on_shard_active(1, 6);
    probe.on_event(&Event::new(EventKind::Persisted, Some(1), 64));
    probe.on_event(&Event::new(EventKind::Recovered, Some(1), 64));
    r.dump_crash(1, "golden crash");
    r
}

#[test]
fn snapshot_json_matches_the_committed_golden_file() {
    // `Registry::to_json` is exactly what `ServiceObserver::snapshot`
    // returns; `pretty` is exactly `snapshot_pretty`. Going through the
    // registry keeps the fixture deterministic (no worker threads).
    let mut snapshot = golden_registry().to_json();
    scrub(&mut snapshot);
    let mut actual = pretty(&snapshot);
    actual.push('\n');
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/obs_snapshot.json"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &actual).expect("write golden");
    }
    let expected = std::fs::read_to_string(path)
        .expect("golden file missing — regenerate with UPDATE_GOLDEN=1");
    assert_eq!(
        actual, expected,
        "snapshot format drifted; regenerate with UPDATE_GOLDEN=1 and review the diff"
    );
    // The golden bytes themselves stay machine-readable.
    JsonValue::parse(&expected).expect("golden parses");
}

// ------------------------------------------------------ chrome trace

#[derive(Clone)]
struct Scatter;

fn mix(v: u64) -> u64 {
    v.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31) ^ v
}

impl NodeProgram for Scatter {
    type Msg = u64;
    type State = u64;

    fn init(&self, node: NodeId, _ctx: &InitCtx) -> u64 {
        mix(node as u64)
    }

    fn on_message(&self, state: &mut u64, msg: u64, ctx: &mut Outbox<'_, u64>) {
        *state = state.wrapping_add(mix(msg));
        let ttl = msg & 0xFF;
        if ttl > 0 {
            let degree = ctx.degree();
            ctx.send_port((msg >> 8) as usize % degree, msg - 1);
            if ttl.is_multiple_of(3) {
                ctx.send_port((msg >> 16) as usize % degree, msg - 1);
            }
        }
    }
}

#[test]
fn chrome_trace_of_a_sharded_run_round_trips_with_every_phase() {
    const SHARDS: usize = 4;
    let probe = Arc::new(
        JobProbe::new(9, "sharded-trace", None).with_phase_trace(Arc::new(TraceBuffer::new(8192))),
    );
    let handle = ObsHandle::new(Arc::clone(&probe) as _).with_phase_period(1);
    let cfg = SimConfig {
        obs: handle.clone(),
        delivery: DeliveryModel::Routed,
        ..SimConfig::default()
    };
    let mut sim = ShardedSimulation::new(
        hyperspace::topology::Torus::new_2d(6, 6),
        Scatter,
        cfg,
        ShardedConfig {
            shards: SHARDS,
            partition: Partition::RoundRobin,
            threads: Some(SHARDS),
        },
    );
    sim.inject(0, (0x1234u64 << 8) | 21);
    sim.run_to_quiescence().expect("sharded run");
    let _ = sim.snapshot(); // checkpoint_encode span
    handle.time_phase(0, Phase::Fsync, || std::hint::black_box(0u64)); // fsync span

    let trace = chrome_trace(&[Arc::clone(&probe)]);
    let parsed = JsonValue::parse(&trace.to_string()).expect("chrome trace is valid JSON");
    let events = match parsed.get("traceEvents") {
        Some(JsonValue::Array(events)) => events,
        other => panic!("traceEvents missing: {other:?}"),
    };

    // One complete event per recorded span, labelled by phase and shard.
    let mut spans_by_shard_phase = std::collections::BTreeMap::new();
    for event in events {
        let ph = match event.get("ph") {
            Some(JsonValue::Str(ph)) => ph.clone(),
            other => panic!("event without ph: {other:?}"),
        };
        if ph != "X" {
            continue;
        }
        let name = match event.get("name") {
            Some(JsonValue::Str(name)) => name.clone(),
            other => panic!("span without name: {other:?}"),
        };
        let tid = match event.get("tid") {
            Some(JsonValue::UInt(tid)) => *tid,
            other => panic!("span without tid: {other:?}"),
        };
        assert!(
            matches!(event.get("ts"), Some(JsonValue::UInt(_))),
            "span without ts"
        );
        assert!(
            matches!(event.get("dur"), Some(JsonValue::Float(_))),
            "span without dur"
        );
        *spans_by_shard_phase.entry((tid, name)).or_insert(0u64) += 1;
    }
    for shard in 0..SHARDS as u64 {
        for phase in ["delivery", "exchange", "handler", "barrier_wait"] {
            let count = spans_by_shard_phase
                .get(&(shard, phase.to_string()))
                .copied()
                .unwrap_or(0);
            assert!(count >= 1, "shard {shard} has no {phase} span");
        }
    }
    for phase in ["checkpoint_encode", "fsync"] {
        let count = spans_by_shard_phase
            .get(&(0, phase.to_string()))
            .copied()
            .unwrap_or(0);
        assert!(count >= 1, "no {phase} span");
    }
}

// -------------------------------------------------------- prometheus

/// Validates one line of Prometheus text exposition format 0.0.4.
fn validate_expo_line(line: &str) {
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && !name.starts_with(|c: char| c.is_ascii_digit())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    if let Some(rest) = line.strip_prefix("# ") {
        let (keyword, rest) = rest.split_once(' ').expect("comment keyword");
        assert!(
            keyword == "HELP" || keyword == "TYPE",
            "unknown comment keyword in {line:?}"
        );
        let name = rest.split_whitespace().next().expect("metric name");
        assert!(valid_name(name), "bad metric name in {line:?}");
        if keyword == "TYPE" {
            let kind = rest.split_whitespace().nth(1).expect("metric kind");
            assert!(
                ["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind),
                "bad metric kind in {line:?}"
            );
        }
        return;
    }
    // Sample line: name[{label="value",...}] value
    let (name_part, value_part) = line.rsplit_once(' ').expect("sample has a value");
    value_part.parse::<f64>().expect("sample value parses");
    let name = match name_part.split_once('{') {
        None => name_part,
        Some((name, labels)) => {
            let labels = labels.strip_suffix('}').expect("labels close");
            // Split label pairs on `","` boundaries outside escapes: the
            // writer escapes `"` inside values, so a bare `","` sequence
            // only occurs between pairs.
            for pair in labels.split("\",") {
                let (key, value) = pair.split_once("=\"").expect("label pair");
                assert!(valid_name(key), "bad label name in {line:?}");
                let value = value.strip_suffix('"').unwrap_or(value);
                let mut chars = value.chars();
                while let Some(c) = chars.next() {
                    assert!(c != '\n', "raw newline in label value: {line:?}");
                    if c == '\\' {
                        let next = chars.next().expect("escape has a target");
                        assert!(matches!(next, '\\' | '"' | 'n'), "bad escape in {line:?}");
                    } else {
                        assert!(c != '"', "unescaped quote in {line:?}");
                    }
                }
            }
            name
        }
    };
    assert!(valid_name(name), "bad sample name in {line:?}");
}

#[test]
fn prometheus_output_passes_the_exposition_grammar() {
    let registry = golden_registry();
    // A label that exercises every escape in the exposition format.
    registry
        .probe(2, "tricky \"label\"\nwith\\escapes")
        .on_step(5, 1, 0);
    let out = hyperspace::obs::prometheus(&registry);
    assert!(!out.is_empty());
    assert!(out.ends_with('\n'), "exposition ends with a newline");
    for line in out.lines() {
        validate_expo_line(line);
    }
    // Spot-check the families the dashboard scrapes.
    for family in [
        "hyperspace_jobs_submitted",
        "hyperspace_queue_depth",
        "hyperspace_span_store_persist_count",
        "hyperspace_job_steps",
        "hyperspace_job_persists",
        "hyperspace_job_recovers",
        "hyperspace_phase_total_ns",
    ] {
        assert!(out.contains(family), "{family} missing:\n{out}");
    }
}

// ------------------------------------------- service config limits

#[test]
fn flight_recorder_limits_flow_through_service_config() {
    use hyperspace::service::{JobKind, ServiceConfig, SolverService};

    let defaults = ServiceConfig::default();
    assert_eq!(defaults.flight_recorder_capacity, 256);
    assert_eq!(defaults.crash_dump_tail, 32);

    // Capacity 0 and 1 must not wedge the service or lose every event —
    // the regression the configurable limits must not reintroduce.
    for capacity in [0usize, 1] {
        let service = SolverService::new(ServiceConfig {
            workers: 1,
            flight_recorder_capacity: capacity,
            crash_dump_tail: 0,
            ..ServiceConfig::default()
        });
        let observer = service.observe();
        assert_eq!(observer.registry().recorder().capacity(), 1);
        assert_eq!(observer.registry().crash_tail(), 1);
        let result = service.submit(JobKind::sum(50)).wait();
        let summary = result.outcome.summary().expect("completed");
        assert_eq!(summary.result.as_deref(), Some("1275"));
        assert!(
            observer.registry().recorder().recorded() > 0,
            "events still recorded at capacity {capacity}"
        );
    }
}
