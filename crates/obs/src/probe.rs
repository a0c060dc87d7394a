//! Per-job progress probes: the live, lock-free view of one running
//! job that [`crate::Registry`] hands out and the engine layers feed.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use crate::json::JsonValue;
use crate::phase::{Phase, PhaseProfiler, PhaseSample, TraceBuffer};
use crate::recorder::{Event, EventKind, FlightRecorder};
use crate::Observer;

/// Sentinel for "no incumbent yet" in the packed atomic.
const NO_INCUMBENT: i64 = i64::MIN;

/// Live telemetry of one job. All per-step fields are relaxed atomics:
/// the engine writes them from inside its step loop, dashboard readers
/// sample them from other threads, and neither ever blocks the other.
///
/// A probe implements [`Observer`], so it plugs straight into the
/// engine's `SimConfig` observation slot; lifecycle events additionally
/// forward to the shared [`FlightRecorder`].
pub struct JobProbe {
    id: u64,
    label: String,
    /// Engine steps executed (latest step counter seen).
    steps: AtomicU64,
    /// Total messages delivered to handlers.
    delivered: AtomicU64,
    /// Messages queued after the latest step.
    queued: AtomicU64,
    /// Open recursion records at the latest slice barrier.
    open_records: AtomicU64,
    /// Best incumbent seen ([`NO_INCUMBENT`] = none yet).
    incumbent: AtomicI64,
    /// Latest portfolio sync epoch.
    epoch: AtomicU64,
    /// Learned clauses the portfolio bus carried for this job.
    bus_clauses: AtomicU64,
    /// Incumbent broadcasts the portfolio bus carried for this job.
    bus_incumbents: AtomicU64,
    /// Checkpoints taken / payload bytes encoded.
    checkpoints: AtomicU64,
    checkpoint_bytes: AtomicU64,
    /// Successful durable-store persists of this job (PR 8 lifecycle).
    persists: AtomicU64,
    /// Times this job was recovered from the durable store.
    recovers: AtomicU64,
    /// Times the incumbent actually changed (the improvement-rate
    /// numerator).
    incumbent_updates: AtomicU64,
    /// Per-shard, per-phase wall-time attribution (barrier waits and
    /// checkpoint encodes included).
    phases: Arc<PhaseProfiler>,
    /// Individual phase spans for timeline export, when attached.
    trace: Option<Arc<TraceBuffer>>,
    /// Shared service-wide flight recorder, if attached.
    recorder: Option<Arc<FlightRecorder>>,
}

impl JobProbe {
    /// A probe for job `id`, forwarding events to `recorder` when given.
    pub fn new(id: u64, label: impl Into<String>, recorder: Option<Arc<FlightRecorder>>) -> Self {
        JobProbe {
            id,
            label: label.into(),
            steps: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            open_records: AtomicU64::new(0),
            incumbent: AtomicI64::new(NO_INCUMBENT),
            epoch: AtomicU64::new(0),
            bus_clauses: AtomicU64::new(0),
            bus_incumbents: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            checkpoint_bytes: AtomicU64::new(0),
            persists: AtomicU64::new(0),
            recovers: AtomicU64::new(0),
            incumbent_updates: AtomicU64::new(0),
            phases: Arc::new(PhaseProfiler::new()),
            trace: None,
            recorder,
        }
    }

    /// Attaches a span buffer so individual phase spans are kept for
    /// Chrome-trace timeline export (aggregates are always kept).
    pub fn with_phase_trace(mut self, trace: Arc<TraceBuffer>) -> Self {
        self.trace = Some(trace);
        self
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn label(&self) -> &str {
        &self.label
    }

    pub fn steps(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    pub fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::Relaxed)
    }

    pub fn queued(&self) -> u64 {
        self.queued.load(Ordering::Relaxed)
    }

    pub fn open_records(&self) -> u64 {
        self.open_records.load(Ordering::Relaxed)
    }

    pub fn incumbent(&self) -> Option<i64> {
        match self.incumbent.load(Ordering::Relaxed) {
            NO_INCUMBENT => None,
            v => Some(v),
        }
    }

    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    pub fn bus_clauses(&self) -> u64 {
        self.bus_clauses.load(Ordering::Relaxed)
    }

    pub fn bus_incumbents(&self) -> u64 {
        self.bus_incumbents.load(Ordering::Relaxed)
    }

    pub fn checkpoints(&self) -> u64 {
        self.checkpoints.load(Ordering::Relaxed)
    }

    pub fn checkpoint_bytes(&self) -> u64 {
        self.checkpoint_bytes.load(Ordering::Relaxed)
    }

    /// Successful durable-store persists.
    pub fn persists(&self) -> u64 {
        self.persists.load(Ordering::Relaxed)
    }

    /// Recoveries from the durable store.
    pub fn recovers(&self) -> u64 {
        self.recovers.load(Ordering::Relaxed)
    }

    /// Times the incumbent improved (changed value).
    pub fn incumbent_updates(&self) -> u64 {
        self.incumbent_updates.load(Ordering::Relaxed)
    }

    /// Per-shard, per-phase wall-time attribution.
    pub fn phases(&self) -> &Arc<PhaseProfiler> {
        &self.phases
    }

    /// The buffered individual phase spans (empty without an attached
    /// trace buffer).
    pub fn trace_samples(&self) -> Vec<PhaseSample> {
        self.trace.as_ref().map(|t| t.samples()).unwrap_or_default()
    }

    /// Point-in-time JSON snapshot of the probe.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("id", JsonValue::UInt(self.id)),
            ("label", JsonValue::str(&self.label)),
            ("steps", JsonValue::UInt(self.steps())),
            ("delivered", JsonValue::UInt(self.delivered())),
            ("queued", JsonValue::UInt(self.queued())),
            ("open_records", JsonValue::UInt(self.open_records())),
            (
                "incumbent",
                match self.incumbent() {
                    Some(v) => JsonValue::Int(v),
                    None => JsonValue::Null,
                },
            ),
            ("epoch", JsonValue::UInt(self.epoch())),
            ("bus_clauses", JsonValue::UInt(self.bus_clauses())),
            ("bus_incumbents", JsonValue::UInt(self.bus_incumbents())),
            ("checkpoints", JsonValue::UInt(self.checkpoints())),
            ("checkpoint_bytes", JsonValue::UInt(self.checkpoint_bytes())),
            ("persists", JsonValue::UInt(self.persists())),
            ("recovers", JsonValue::UInt(self.recovers())),
            (
                "incumbent_updates",
                JsonValue::UInt(self.incumbent_updates()),
            ),
            (
                "barrier_wait_ms",
                JsonValue::Float(self.phases.phase_total(Phase::BarrierWait).1 as f64 / 1e6),
            ),
            ("phases", self.phases.to_json()),
        ])
    }
}

impl Observer for JobProbe {
    fn on_step(&self, step: u64, delivered: u64, queued: u64) {
        // One writer (see `Observer::on_step`), so plain loads and
        // stores suffice: no locked read-modify-write on the step path.
        // A restarted/resumed engine re-runs from an earlier step; the
        // probe tracks the furthest point.
        if step > self.steps.load(Ordering::Relaxed) {
            self.steps.store(step, Ordering::Relaxed);
        }
        let total = self.delivered.load(Ordering::Relaxed) + delivered;
        self.delivered.store(total, Ordering::Relaxed);
        self.queued.store(queued, Ordering::Relaxed);
    }

    fn on_progress(&self, steps: u64, open_records: u64, incumbent: Option<i64>) {
        self.steps.fetch_max(steps, Ordering::Relaxed);
        self.open_records.store(open_records, Ordering::Relaxed);
        if let Some(v) = incumbent {
            // Count actual changes: the improvement-rate signal should
            // not tick when progress re-reports the same bound.
            if self.incumbent.swap(v, Ordering::Relaxed) != v {
                self.incumbent_updates.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn on_epoch(&self, epoch: u64, _member: usize, steps: u64, clauses: u64, incumbents: u64) {
        self.epoch.fetch_max(epoch, Ordering::Relaxed);
        self.steps.fetch_max(steps, Ordering::Relaxed);
        self.bus_clauses.fetch_add(clauses, Ordering::Relaxed);
        self.bus_incumbents.fetch_add(incumbents, Ordering::Relaxed);
    }

    fn on_checkpoint(&self, bytes: u64) {
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.checkpoint_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    fn on_event(&self, event: &Event) {
        match event.kind {
            // A failed persist is reported as `Persisted` with a
            // negative value; only successes count as durable progress.
            EventKind::Persisted if event.value >= 0 => {
                self.persists.fetch_add(1, Ordering::Relaxed);
            }
            EventKind::Recovered => {
                self.recovers.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        if let Some(recorder) = &self.recorder {
            let mut event = event.clone();
            event.job.get_or_insert(self.id);
            recorder.record(event);
        }
    }

    fn on_phase(&self, shard: usize, phase: Phase, nanos: u64) {
        self.phases.record(shard, phase, nanos);
        if let Some(trace) = &self.trace {
            trace.record(shard, phase, nanos);
        }
    }

    fn on_shard_active(&self, shard: usize, nodes: u64) {
        self.phases.set_active(shard, nodes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::EventKind;

    #[test]
    fn probe_accumulates_steps_and_progress() {
        let p = JobProbe::new(3, "sat", None);
        p.on_step(1, 4, 10);
        p.on_step(2, 6, 8);
        assert_eq!(p.steps(), 2);
        assert_eq!(p.delivered(), 10);
        assert_eq!(p.queued(), 8);
        p.on_progress(5, 7, Some(-2));
        assert_eq!(p.steps(), 5);
        assert_eq!(p.open_records(), 7);
        assert_eq!(p.incumbent(), Some(-2));
        // Progress without an incumbent keeps the old one.
        p.on_progress(6, 3, None);
        assert_eq!(p.incumbent(), Some(-2));
    }

    #[test]
    fn restarted_run_never_regresses_the_step_counter() {
        let p = JobProbe::new(1, "replay", None);
        p.on_step(100, 0, 0);
        p.on_step(5, 0, 0); // deterministic replay from step 0
        assert_eq!(p.steps(), 100);
    }

    #[test]
    fn events_are_attributed_to_the_probe_job() {
        let rec = Arc::new(FlightRecorder::new(8));
        let p = JobProbe::new(42, "x", Some(rec.clone()));
        p.on_event(&Event::new(EventKind::Started, None, 0));
        assert_eq!(rec.snapshot()[0].job, Some(42));
    }

    #[test]
    fn json_snapshot_includes_incumbent_null() {
        let p = JobProbe::new(1, "k", None);
        let json = p.to_json().to_string();
        assert!(json.contains("\"incumbent\":null"), "{json}");
        assert!(json.contains("\"persists\":0"), "{json}");
        assert!(json.contains("\"phases\""), "{json}");
    }

    #[test]
    fn persist_and_recover_events_are_counted() {
        let p = JobProbe::new(5, "durable", None);
        p.on_event(&Event::new(EventKind::Persisted, Some(5), 100));
        p.on_event(&Event::new(EventKind::Persisted, Some(5), 0));
        p.on_event(&Event::new(EventKind::Persisted, Some(5), -1)); // failure
        p.on_event(&Event::new(EventKind::Recovered, Some(5), 100));
        p.on_event(&Event::new(EventKind::Completed, Some(5), 0));
        assert_eq!(p.persists(), 2, "failures don't count");
        assert_eq!(p.recovers(), 1);
    }

    #[test]
    fn incumbent_updates_count_changes_only() {
        let p = JobProbe::new(2, "bnb", None);
        p.on_progress(1, 0, Some(10));
        p.on_progress(2, 0, Some(10));
        p.on_progress(3, 0, Some(7));
        p.on_progress(4, 0, None);
        assert_eq!(p.incumbent_updates(), 2);
    }

    #[test]
    fn phase_hooks_feed_profiler_and_trace() {
        use crate::phase::{Phase, TraceBuffer};
        let p = JobProbe::new(3, "sharded", None)
            .with_phase_trace(std::sync::Arc::new(TraceBuffer::new(8)));
        p.on_phase(1, Phase::Handler, 40);
        p.on_shard_active(1, 9);
        assert_eq!(p.phases().phase_total(Phase::Handler), (1, 40, 40));
        assert_eq!(p.phases().shard(1).unwrap().active(), 9);
        assert_eq!(p.trace_samples().len(), 1);
    }
}
