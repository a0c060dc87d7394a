//! The service-wide metric registry: named counters/gauges/spans, the
//! shared flight recorder, per-job probes, and crash dumps.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

use crate::json::JsonValue;
use crate::metric::{Counter, Gauge, SpanStat};
use crate::probe::JobProbe;
use crate::recorder::{Event, FlightRecorder};

/// The flight-recorder tail preserved when a job's handler panicked.
#[derive(Clone, Debug)]
pub struct CrashDump {
    /// The job whose execution crashed.
    pub job: u64,
    /// The panic payload (best-effort string).
    pub message: String,
    /// The recorder's most recent events at dump time, oldest first.
    pub events: Vec<Event>,
}

impl CrashDump {
    /// The dump as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("job", JsonValue::UInt(self.job)),
            ("message", JsonValue::str(&self.message)),
            (
                "events",
                JsonValue::Array(self.events.iter().map(Event::to_json).collect()),
            ),
        ])
    }
}

/// How many flight-recorder events a crash dump preserves by default
/// (configurable per registry via [`Registry::with_limits`]).
pub const CRASH_DUMP_TAIL: usize = 32;

/// The probes the registry still holds: every running job's, plus the
/// most recently finished ones up to the flight recorder's capacity —
/// the service is long-running, so a probe per job ever run would grow
/// without bound. An evicted probe leaves its monotone counters behind
/// in the totals, so lifetime sums never go backwards.
#[derive(Default)]
struct Probes {
    by_id: BTreeMap<u64, Arc<JobProbe>>,
    /// Ids of the held probes whose job has finished, oldest first.
    finished: VecDeque<u64>,
    evicted_steps: u64,
    evicted_incumbent_updates: u64,
}

/// A registry of named metrics plus per-job probes. Names are interned
/// `&'static str`s in sorted maps, so JSON snapshots are deterministic.
/// All accessors hand out shared cells — callers cache them and update
/// lock-free; the registry mutexes guard only name lookup and
/// registration, never hot-path updates.
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, Counter>>,
    gauges: Mutex<BTreeMap<&'static str, Gauge>>,
    spans: Mutex<BTreeMap<&'static str, Arc<SpanStat>>>,
    probes: Mutex<Probes>,
    crashes: Mutex<Vec<CrashDump>>,
    recorder: Arc<FlightRecorder>,
    crash_tail: usize,
}

impl Registry {
    /// A registry whose flight recorder keeps `capacity` events, with
    /// the default crash-dump tail ([`CRASH_DUMP_TAIL`]).
    pub fn new(capacity: usize) -> Registry {
        Registry::with_limits(capacity, CRASH_DUMP_TAIL)
    }

    /// A registry with explicit flight-recorder capacity and crash-dump
    /// tail length. Both are bounds-checked: capacity 0 keeps one event
    /// (a recorder that silently kept nothing would make crash dumps
    /// lie), and the tail is clamped into `[1, capacity]`.
    pub fn with_limits(capacity: usize, crash_tail: usize) -> Registry {
        let capacity = capacity.max(1);
        Registry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            spans: Mutex::new(BTreeMap::new()),
            probes: Mutex::new(Probes::default()),
            crashes: Mutex::new(Vec::new()),
            recorder: Arc::new(FlightRecorder::new(capacity)),
            crash_tail: crash_tail.clamp(1, capacity),
        }
    }

    /// The crash-dump tail length in effect.
    pub fn crash_tail(&self) -> usize {
        self.crash_tail
    }

    /// The named counter, created on first use.
    pub fn counter(&self, name: &'static str) -> Counter {
        self.counters
            .lock()
            .expect("registry poisoned")
            .entry(name)
            .or_default()
            .clone()
    }

    /// The named gauge, created on first use.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        self.gauges
            .lock()
            .expect("registry poisoned")
            .entry(name)
            .or_default()
            .clone()
    }

    /// The named span statistic, created on first use.
    pub fn span(&self, name: &'static str) -> Arc<SpanStat> {
        self.spans
            .lock()
            .expect("registry poisoned")
            .entry(name)
            .or_default()
            .clone()
    }

    /// The shared flight recorder.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Records a lifecycle event into the flight recorder.
    pub fn record(&self, event: Event) {
        self.recorder.record(event);
    }

    /// Registers (or returns the existing) probe for job `id`, wired to
    /// the shared flight recorder.
    pub fn probe(&self, id: u64, label: &str) -> Arc<JobProbe> {
        self.probes
            .lock()
            .expect("registry poisoned")
            .by_id
            .entry(id)
            .or_insert_with(|| Arc::new(JobProbe::new(id, label, Some(self.recorder.clone()))))
            .clone()
    }

    /// Job `id` has finished (call once per job): its probe, if it ever
    /// got one, stays readable until as many later jobs as the flight
    /// recorder holds events have finished after it, then is dropped.
    pub fn retire_probe(&self, id: u64) {
        let mut probes = self.probes.lock().expect("registry poisoned");
        if !probes.by_id.contains_key(&id) {
            return;
        }
        probes.finished.push_back(id);
        while probes.finished.len() > self.recorder.capacity() {
            let oldest = probes.finished.pop_front().expect("nonempty");
            if let Some(probe) = probes.by_id.remove(&oldest) {
                probes.evicted_steps += probe.steps();
                probes.evicted_incumbent_updates += probe.incumbent_updates();
            }
        }
    }

    /// The held probes (see [`Registry::retire_probe`]), ordered by job
    /// id.
    pub fn probes(&self) -> Vec<Arc<JobProbe>> {
        self.probes
            .lock()
            .expect("registry poisoned")
            .by_id
            .values()
            .cloned()
            .collect()
    }

    /// `(steps, incumbent updates)` over every job the registry has ever
    /// probed, evicted ones included — read under one lock, so a probe
    /// evicted meanwhile is counted exactly once.
    pub fn lifetime_totals(&self) -> (u64, u64) {
        let probes = self.probes.lock().expect("registry poisoned");
        probes.by_id.values().fold(
            (probes.evicted_steps, probes.evicted_incumbent_updates),
            |(steps, updates), p| (steps + p.steps(), updates + p.incumbent_updates()),
        )
    }

    /// Preserves the flight recorder's tail as a crash dump for `job`.
    pub fn dump_crash(&self, job: u64, message: impl Into<String>) -> CrashDump {
        let dump = CrashDump {
            job,
            message: message.into(),
            events: self.recorder.last_n(self.crash_tail),
        };
        self.crashes
            .lock()
            .expect("registry poisoned")
            .push(dump.clone());
        dump
    }

    /// All crash dumps captured so far.
    pub fn crashes(&self) -> Vec<CrashDump> {
        self.crashes.lock().expect("registry poisoned").clone()
    }

    /// `(name, value)` of every registered counter, name-ordered (the
    /// exporters' read surface).
    pub fn counter_values(&self) -> Vec<(&'static str, u64)> {
        self.counters
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, v)| (*k, v.get()))
            .collect()
    }

    /// `(name, value)` of every registered gauge, name-ordered.
    pub fn gauge_values(&self) -> Vec<(&'static str, u64)> {
        self.gauges
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, v)| (*k, v.get()))
            .collect()
    }

    /// `(name, count, total_ns, max_ns)` of every registered span
    /// statistic, name-ordered.
    pub fn span_values(&self) -> Vec<(&'static str, u64, u64, u64)> {
        self.spans
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, v)| (*k, v.count(), v.total_ns(), v.max_ns()))
            .collect()
    }

    /// Point-in-time JSON snapshot: counters, gauges, spans, per-job
    /// probes, the flight recorder tail and any crash dumps.
    pub fn to_json(&self) -> JsonValue {
        let counters: Vec<_> = {
            let map = self.counters.lock().expect("registry poisoned");
            map.iter()
                .map(|(k, v)| (k.to_string(), JsonValue::UInt(v.get())))
                .collect()
        };
        let gauges: Vec<_> = {
            let map = self.gauges.lock().expect("registry poisoned");
            map.iter()
                .map(|(k, v)| (k.to_string(), JsonValue::UInt(v.get())))
                .collect()
        };
        let spans: Vec<_> = {
            let map = self.spans.lock().expect("registry poisoned");
            map.iter()
                .map(|(k, v)| {
                    (
                        k.to_string(),
                        JsonValue::object([
                            ("count", JsonValue::UInt(v.count())),
                            ("total_ns", JsonValue::UInt(v.total_ns())),
                            ("max_ns", JsonValue::UInt(v.max_ns())),
                            ("mean_ns", JsonValue::UInt(v.mean_ns())),
                        ]),
                    )
                })
                .collect()
        };
        let jobs: Vec<JsonValue> = self.probes().iter().map(|p| p.to_json()).collect();
        let events: Vec<JsonValue> = self
            .recorder
            .snapshot()
            .iter()
            .map(Event::to_json)
            .collect();
        let crashes: Vec<JsonValue> = self.crashes().iter().map(CrashDump::to_json).collect();
        JsonValue::object([
            ("counters", JsonValue::Object(counters)),
            ("gauges", JsonValue::Object(gauges)),
            ("spans", JsonValue::Object(spans)),
            ("jobs", JsonValue::Array(jobs)),
            ("events", JsonValue::Array(events)),
            ("crashes", JsonValue::Array(crashes)),
        ])
    }
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new(256)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::EventKind;
    use crate::Observer;

    #[test]
    fn named_cells_are_shared() {
        let r = Registry::default();
        r.counter("jobs.submitted").inc();
        r.counter("jobs.submitted").add(2);
        assert_eq!(r.counter("jobs.submitted").get(), 3);
        r.gauge("queue.depth").set(7);
        assert_eq!(r.gauge("queue.depth").get(), 7);
        r.span("slice").record(100);
        assert_eq!(r.span("slice").count(), 1);
    }

    #[test]
    fn probes_register_once_per_job() {
        let r = Registry::default();
        let a = r.probe(1, "sat");
        let b = r.probe(1, "ignored");
        assert!(Arc::ptr_eq(&a, &b));
        a.on_step(5, 1, 0);
        assert_eq!(r.probes()[0].steps(), 5);
    }

    #[test]
    fn finished_probes_are_bounded_and_their_totals_kept() {
        let r = Registry::new(2);
        for id in 0..5 {
            r.probe(id, "sum").on_step(10, 1, 0);
        }
        // Job 0 keeps running; 1..=4 finish in order.
        for id in 1..5 {
            r.retire_probe(id);
        }
        let held: Vec<u64> = r.probes().iter().map(|p| p.id()).collect();
        assert_eq!(held, vec![0, 3, 4], "running + the two newest finished");
        assert_eq!(r.lifetime_totals().0, 50, "evicted steps still count");
        r.retire_probe(99); // never probed: nothing to hold
        assert_eq!(r.probes().len(), 3);
    }

    #[test]
    fn crash_dump_preserves_recorder_tail() {
        let r = Registry::new(4);
        for i in 0..6 {
            r.record(Event::new(EventKind::SliceYielded, Some(9), i));
        }
        let dump = r.dump_crash(9, "boom");
        assert_eq!(dump.job, 9);
        assert_eq!(dump.events.len(), 4);
        assert_eq!(dump.events.last().unwrap().value, 5);
        assert_eq!(r.crashes().len(), 1);
    }

    #[test]
    fn limits_are_bounds_checked() {
        // Capacity 0 and 1: the recorder still works and crash dumps
        // still carry the most recent event — the regression the
        // configurable limits must not reintroduce.
        for capacity in [0, 1] {
            let r = Registry::with_limits(capacity, 0);
            assert_eq!(r.recorder().capacity(), 1);
            assert_eq!(r.crash_tail(), 1);
            r.record(Event::new(EventKind::Submitted, Some(1), 0));
            r.record(Event::new(EventKind::Crashed, Some(1), 0));
            let dump = r.dump_crash(1, "boom");
            assert_eq!(dump.events.len(), 1);
            assert_eq!(dump.events[0].kind, EventKind::Crashed);
        }
        // Tail never exceeds capacity.
        assert_eq!(Registry::with_limits(4, 99).crash_tail(), 4);
        assert_eq!(Registry::default().crash_tail(), CRASH_DUMP_TAIL);
    }

    #[test]
    fn exporter_read_surface_is_name_ordered() {
        let r = Registry::default();
        r.counter("b").inc();
        r.counter("a").add(2);
        r.gauge("g").set(7);
        r.span("s").record(50);
        assert_eq!(r.counter_values(), vec![("a", 2), ("b", 1)]);
        assert_eq!(r.gauge_values(), vec![("g", 7)]);
        assert_eq!(r.span_values(), vec![("s", 1, 50, 50)]);
    }

    #[test]
    fn json_snapshot_has_the_documented_sections() {
        let r = Registry::default();
        r.counter("c").inc();
        r.probe(1, "x");
        let json = r.to_json().to_string();
        for key in ["counters", "gauges", "spans", "jobs", "events", "crashes"] {
            assert!(json.contains(&format!("\"{key}\"")), "{key}: {json}");
        }
    }
}
