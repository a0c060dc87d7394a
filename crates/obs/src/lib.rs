//! Live observability core (dependency-free).
//!
//! The paper's evaluation (§V-C) is reconstructed from post-hoc logs;
//! this crate is the *live* counterpart: lock-light counters, gauges
//! and span timers that every layer of the stack can feed while a run
//! is in flight, plus a fixed-capacity ring-buffer event recorder (the
//! "flight recorder") whose tail survives a crash.
//!
//! Design invariant — **observation never perturbs computation**: the
//! [`Observer`] trait's methods take values by copy and return nothing,
//! so an observer has no channel through which to feed data back into
//! the deterministic step loop. The bit-identity suites run with
//! observation on and off and assert identical reports, metrics,
//! traces and checkpoint bytes.
//!
//! The second invariant is **bounded overhead**: every hook sits behind
//! an [`ObsHandle`] that is a single `Option` branch when disabled (no
//! clock reads, no allocation), and the instrumented hot paths update
//! relaxed atomics only. `bench/bin/l1_budgets.rs` measures the
//! probed-vs-bare steps/sec ratio and asserts the budget.
//!
//! The post-hoc side lives here too: the log2-bucketed [`Histogram`]
//! the simulation log tallies hop counts into (and the service its
//! queue-wait and solve times), and the [`ascii`] charts the figure
//! binaries, the examples and the service dashboard print.

pub mod ascii;
mod export;
mod histogram;
mod json;
mod metric;
mod phase;
mod probe;
mod recorder;
mod registry;
mod series;

pub use export::{chrome_trace, prometheus};
pub use histogram::Histogram;
pub use json::{pretty, JsonValue};
pub use metric::{Counter, Gauge, SpanStat, SpanTimer};
pub use phase::{Phase, PhaseProfiler, PhaseSample, ShardPhases, TraceBuffer};
pub use probe::JobProbe;
pub use recorder::{Event, EventKind, FlightRecorder};
pub use registry::{CrashDump, Registry, CRASH_DUMP_TAIL};
pub use series::{EwmaRate, RingSeries, Signals};

use std::sync::Arc;
use std::time::Duration;

/// Saturating `Duration` → nanoseconds conversion. `as_nanos()` returns
/// a `u128`; a bare `as u64` cast silently truncates durations beyond
/// ~584 years (the bug class PR 5 fixed in the service stats). Telemetry
/// sites clamp instead: an impossible duration reads as `u64::MAX`, not
/// as a small plausible-looking number.
#[inline]
pub fn saturating_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Saturating `Duration` → microseconds conversion (see
/// [`saturating_nanos`]).
#[inline]
pub fn saturating_micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Passive telemetry sink threaded through the stack's layers. Every
/// method has a no-op default, takes plain values and returns nothing:
/// an observer can watch a deterministic run but never steer it.
///
/// Implementations must be cheap and non-blocking — hooks fire from the
/// engine's step loop and from shard worker threads. The bundled
/// [`JobProbe`]/[`Registry`] implementations use relaxed atomics on the
/// per-step paths and take short mutexes only for lifecycle-rate
/// events.
pub trait Observer: Send + Sync {
    /// One engine step completed: messages delivered during the step
    /// and messages still queued (inboxes + transit) after it.
    ///
    /// One writer: for a given observer, only the engine's coordinator
    /// thread calls this, one step after another — never two threads at
    /// once. Implementations may update their per-step counters with
    /// plain load + store instead of locked read-modify-writes.
    fn on_step(&self, step: u64, delivered: u64, queued: u64) {
        let _ = (step, delivered, queued);
    }

    /// Live recursion/B&B frontier progress at a slice barrier.
    fn on_progress(&self, steps: u64, open_records: u64, incumbent: Option<i64>) {
        let _ = (steps, open_records, incumbent);
    }

    /// One portfolio member finished a sync epoch; `clauses` and
    /// `incumbents` count what the knowledge bus carried this epoch.
    fn on_epoch(&self, epoch: u64, member: usize, steps: u64, clauses: u64, incumbents: u64) {
        let _ = (epoch, member, steps, clauses, incumbents);
    }

    /// A checkpoint was encoded (`bytes` of payload; its time arrives as
    /// the [`Phase::CheckpointEncode`] phase).
    fn on_checkpoint(&self, bytes: u64) {
        let _ = bytes;
    }

    /// A lifecycle-rate structured event (job submitted, slice yielded,
    /// preemption, crash, ...). Fires far below step rate.
    fn on_event(&self, event: &Event) {
        let _ = event;
    }

    /// `shard` spent `nanos` of wall time in `phase`. Step-loop phases
    /// (delivery/handler/exchange) only fire on sampled steps (see
    /// [`ObsHandle::phase_sampled`]); barrier waits, checkpoint encodes
    /// and fsyncs fire on every occurrence.
    fn on_phase(&self, shard: usize, phase: Phase, nanos: u64) {
        let _ = (shard, phase, nanos);
    }

    /// The number of nodes `shard` visited on a sampled step (its work
    /// list: the active set, or every node on a tick step) — the
    /// per-shard load-imbalance signal.
    fn on_shard_active(&self, shard: usize, nodes: u64) {
        let _ = (shard, nodes);
    }
}

/// How often the engines *time* step-loop phases when an observer is
/// attached: every `DEFAULT_PHASE_PERIOD`-th step. Sub-microsecond
/// sparse steps cannot afford clock reads on every step; sampling every
/// power-of-two-th step keeps attribution statistically faithful (every
/// phase of a sampled step is timed together) at 1/16th the clock cost.
pub const DEFAULT_PHASE_PERIOD: u64 = 16;

/// A cloneable on/off switch around an observer, designed to live
/// inside `Clone + Debug` config structs. Disabled (the default) every
/// hook is one `Option` branch — no clock reads, no allocation — which
/// is what keeps un-observed runs at bare-engine speed.
#[derive(Clone)]
pub struct ObsHandle {
    observer: Option<Arc<dyn Observer>>,
    /// Power-of-two-minus-one mask: steps with `step & mask == 0` get
    /// their phases timed.
    phase_mask: u64,
}

impl Default for ObsHandle {
    fn default() -> ObsHandle {
        ObsHandle::off()
    }
}

impl ObsHandle {
    /// The disabled handle (all hooks are no-ops).
    pub fn off() -> ObsHandle {
        ObsHandle {
            observer: None,
            phase_mask: DEFAULT_PHASE_PERIOD - 1,
        }
    }

    /// Wraps an observer.
    pub fn new(observer: Arc<dyn Observer>) -> ObsHandle {
        ObsHandle {
            observer: Some(observer),
            phase_mask: DEFAULT_PHASE_PERIOD - 1,
        }
    }

    /// Sets the phase-sampling period (rounded up to a power of two,
    /// min 1 = every step). Period 1 times every step — right for
    /// coarse-step workloads; the default suits sub-µs sparse steps.
    pub fn with_phase_period(mut self, period: u64) -> ObsHandle {
        self.phase_mask = period.clamp(1, 1 << 62).next_power_of_two() - 1;
        self
    }

    /// The effective phase-sampling period.
    pub fn phase_period(&self) -> u64 {
        self.phase_mask + 1
    }

    /// Whether an observer is attached. Instrumentation sites use this
    /// to skip clock reads entirely when disabled.
    pub fn enabled(&self) -> bool {
        self.observer.is_some()
    }

    /// The attached observer, if any.
    pub fn observer(&self) -> Option<&Arc<dyn Observer>> {
        self.observer.as_ref()
    }

    /// Whether `step`'s phases should be timed: an observer is attached
    /// *and* the step lands on the sampling grid. One branch when
    /// disabled.
    #[inline]
    pub fn phase_sampled(&self, step: u64) -> bool {
        self.observer.is_some() && step & self.phase_mask == 0
    }

    /// A lap clock for `step`'s phases on `shard`, or `None` when the
    /// step is unsampled (or observation is off). The engines call
    /// [`PhaseClock::lap`] at each phase boundary; consecutive laps
    /// share clock reads, so a fully-timed step costs phases + 1 reads.
    /// The clock owns its observer handle (cloned only on sampled
    /// steps), so it can live across `&mut self` engine calls.
    #[inline]
    pub fn phase_clock(&self, shard: usize, step: u64) -> Option<PhaseClock> {
        if step & self.phase_mask != 0 {
            return None;
        }
        self.observer.as_ref().map(|o| PhaseClock {
            obs: Arc::clone(o),
            shard,
            last: std::time::Instant::now(),
        })
    }

    /// Times `f` and attributes it to `phase` on `shard` — for
    /// occurrence-rate phases (barrier wait, checkpoint encode, fsync)
    /// that are never sampled away. Runs `f` with no clock reads when
    /// disabled.
    #[inline]
    pub fn time_phase<R>(&self, shard: usize, phase: Phase, f: impl FnOnce() -> R) -> R {
        match &self.observer {
            None => f(),
            Some(o) => {
                let start = std::time::Instant::now();
                let out = f();
                o.on_phase(shard, phase, saturating_nanos(start.elapsed()));
                out
            }
        }
    }

    /// See [`Observer::on_step`].
    #[inline]
    pub fn on_step(&self, step: u64, delivered: u64, queued: u64) {
        if let Some(o) = &self.observer {
            o.on_step(step, delivered, queued);
        }
    }

    /// See [`Observer::on_progress`].
    #[inline]
    pub fn on_progress(&self, steps: u64, open_records: u64, incumbent: Option<i64>) {
        if let Some(o) = &self.observer {
            o.on_progress(steps, open_records, incumbent);
        }
    }

    /// See [`Observer::on_epoch`].
    #[inline]
    pub fn on_epoch(&self, epoch: u64, member: usize, steps: u64, clauses: u64, incumbents: u64) {
        if let Some(o) = &self.observer {
            o.on_epoch(epoch, member, steps, clauses, incumbents);
        }
    }

    /// See [`Observer::on_checkpoint`].
    #[inline]
    pub fn on_checkpoint(&self, bytes: u64) {
        if let Some(o) = &self.observer {
            o.on_checkpoint(bytes);
        }
    }

    /// See [`Observer::on_event`].
    #[inline]
    pub fn on_event(&self, event: &Event) {
        if let Some(o) = &self.observer {
            o.on_event(event);
        }
    }

    /// See [`Observer::on_phase`].
    #[inline]
    pub fn on_phase(&self, shard: usize, phase: Phase, nanos: u64) {
        if let Some(o) = &self.observer {
            o.on_phase(shard, phase, nanos);
        }
    }

    /// See [`Observer::on_shard_active`].
    #[inline]
    pub fn on_shard_active(&self, shard: usize, nodes: u64) {
        if let Some(o) = &self.observer {
            o.on_shard_active(shard, nodes);
        }
    }
}

/// A lap timer over one sampled step's phase sequence. Each
/// [`PhaseClock::lap`] attributes the wall time since the previous lap
/// (or construction) to the given phase, so consecutive phases share
/// clock reads: a step timed into `p` phases costs `p + 1` reads total.
pub struct PhaseClock {
    obs: Arc<dyn Observer>,
    shard: usize,
    last: std::time::Instant,
}

impl PhaseClock {
    /// Closes the current phase span and opens the next.
    #[inline]
    pub fn lap(&mut self, phase: Phase) {
        let now = std::time::Instant::now();
        self.obs.on_phase(
            self.shard,
            phase,
            saturating_nanos(now.saturating_duration_since(self.last)),
        );
        self.last = now;
    }
}

impl std::fmt::Debug for ObsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.observer.is_some() {
            "ObsHandle(on)"
        } else {
            "ObsHandle(off)"
        })
    }
}

impl From<Arc<dyn Observer>> for ObsHandle {
    fn from(observer: Arc<dyn Observer>) -> ObsHandle {
        ObsHandle::new(observer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Default)]
    struct CountingObserver {
        steps: AtomicU64,
        phases: AtomicU64,
        events: AtomicU64,
    }

    impl Observer for CountingObserver {
        fn on_step(&self, _step: u64, _delivered: u64, _queued: u64) {
            self.steps.fetch_add(1, Ordering::Relaxed);
        }
        fn on_phase(&self, _shard: usize, _phase: Phase, _nanos: u64) {
            self.phases.fetch_add(1, Ordering::Relaxed);
        }
        fn on_event(&self, _event: &Event) {
            self.events.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn disabled_handle_is_inert() {
        let h = ObsHandle::default();
        assert!(!h.enabled());
        h.on_step(1, 2, 3);
        h.on_progress(1, 2, Some(3));
        assert_eq!(h.time_phase(0, Phase::BarrierWait, || 42), 42);
        assert_eq!(format!("{h:?}"), "ObsHandle(off)");
    }

    #[test]
    fn enabled_handle_forwards_every_hook() {
        let obs = Arc::new(CountingObserver::default());
        let h = ObsHandle::new(obs.clone() as Arc<dyn Observer>);
        assert!(h.enabled());
        h.on_step(1, 0, 0);
        h.on_step(2, 0, 0);
        assert_eq!(h.time_phase(3, Phase::BarrierWait, || "x"), "x");
        h.on_event(&Event::new(EventKind::Submitted, Some(7), 0));
        assert_eq!(obs.steps.load(Ordering::Relaxed), 2);
        assert_eq!(obs.phases.load(Ordering::Relaxed), 1);
        assert_eq!(obs.events.load(Ordering::Relaxed), 1);
        assert_eq!(format!("{h:?}"), "ObsHandle(on)");
    }

    #[test]
    fn clones_share_the_observer() {
        let obs = Arc::new(CountingObserver::default());
        let h = ObsHandle::new(obs.clone() as Arc<dyn Observer>);
        let h2 = h.clone();
        h.on_step(1, 0, 0);
        h2.on_step(2, 0, 0);
        assert_eq!(obs.steps.load(Ordering::Relaxed), 2);
    }

    #[derive(Default)]
    struct PhaseCounter {
        phases: AtomicU64,
        nanos: AtomicU64,
    }

    impl Observer for PhaseCounter {
        fn on_phase(&self, _shard: usize, _phase: Phase, nanos: u64) {
            self.phases.fetch_add(1, Ordering::Relaxed);
            self.nanos.fetch_add(nanos, Ordering::Relaxed);
        }
    }

    #[test]
    fn phase_sampling_follows_the_mask() {
        let h = ObsHandle::off();
        assert!(!h.phase_sampled(0), "disabled handle never samples");
        let obs = Arc::new(PhaseCounter::default());
        let h = ObsHandle::new(obs.clone() as Arc<dyn Observer>);
        assert_eq!(h.phase_period(), DEFAULT_PHASE_PERIOD);
        assert!(h.phase_sampled(0));
        assert!(!h.phase_sampled(1));
        assert!(h.phase_sampled(DEFAULT_PHASE_PERIOD));
        let every = h.clone().with_phase_period(1);
        assert!(every.phase_sampled(7));
        let rounded = h.clone().with_phase_period(5);
        assert_eq!(rounded.phase_period(), 8);
        assert!(h.phase_clock(0, 1).is_none());
        let mut clock = h.phase_clock(0, 16).expect("sampled step");
        clock.lap(Phase::Delivery);
        clock.lap(Phase::Handler);
        assert_eq!(obs.phases.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn time_phase_reports_only_when_enabled() {
        assert_eq!(ObsHandle::off().time_phase(0, Phase::Fsync, || 9), 9);
        let obs = Arc::new(PhaseCounter::default());
        let h = ObsHandle::new(obs.clone() as Arc<dyn Observer>);
        assert_eq!(h.time_phase(0, Phase::Fsync, || "io"), "io");
        assert_eq!(obs.phases.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn saturating_micros_is_exact_below_the_cap() {
        assert_eq!(saturating_micros(Duration::ZERO), 0);
        assert_eq!(saturating_micros(Duration::from_micros(1)), 1);
        assert_eq!(saturating_micros(Duration::from_millis(7)), 7_000);
        assert_eq!(saturating_micros(Duration::from_secs(3)), 3_000_000);
        // Sub-microsecond remainders truncate toward zero.
        assert_eq!(saturating_micros(Duration::from_nanos(999)), 0);
    }

    #[test]
    fn saturating_micros_saturates_instead_of_wrapping() {
        // u64::MAX seconds is ~10^19 s; in microseconds that exceeds
        // u64::MAX by a factor of 10^6 — `as u64` would silently wrap.
        let huge = Duration::new(u64::MAX, 999_999_999);
        assert_eq!(saturating_micros(huge), u64::MAX);
        // The exact boundary: u64::MAX microseconds still fits.
        let edge = Duration::from_micros(u64::MAX);
        assert_eq!(saturating_micros(edge), u64::MAX);
        let over = edge + Duration::from_micros(1);
        assert_eq!(saturating_micros(over), u64::MAX);
    }
}
