//! Phase-attributed profiling: where a run's wall time actually goes.
//!
//! The barrier-synchronous model makes every step a fixed sequence of
//! phases — message delivery, handler execution, cross-shard exchange,
//! barrier waits — plus the rarer checkpoint-encode and persist/fsync
//! work around it. [`Phase`] names them; [`PhaseProfiler`] accumulates
//! per-shard span statistics for each; [`TraceBuffer`] optionally keeps
//! the most recent individual spans so [`crate::chrome_trace`] can
//! render a per-shard timeline.
//!
//! The profiler obeys the crate's two invariants. It is strictly
//! one-way (values in, nothing out), so profiled runs stay bit-identical
//! to unprofiled ones. And it is cheap: hot-path recording is a shared
//! read-lock plus relaxed atomics, and the engines only *time* phases on
//! sampled steps (see `ObsHandle::phase_sampled`), so even sub-µs steps
//! stay within the overhead budget.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use crate::json::JsonValue;
use crate::metric::SpanStat;

/// A named region of a run's wall time. Every nanosecond the profiler
/// attributes lands in exactly one of these.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Moving messages: routed transit hops, counting each step's
    /// deliveries, and staged-send delivery (engine phases 1 and 3).
    Delivery,
    /// Running node handlers, each popping its delivered messages from
    /// its inbox (phase 2).
    Handler,
    /// A shard worker blocked at a step barrier.
    BarrierWait,
    /// Cross-shard exchange: absorbing transit/send mail posted by
    /// other shards through the mail grid.
    Exchange,
    /// Encoding a checkpoint's canonical byte body.
    CheckpointEncode,
    /// Writing a durable record (temp file + fsync + rename).
    Fsync,
}

impl Phase {
    /// Number of phases (the size of per-shard accumulator arrays).
    pub const COUNT: usize = 6;

    /// Every phase, in accumulator-index order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Delivery,
        Phase::Handler,
        Phase::BarrierWait,
        Phase::Exchange,
        Phase::CheckpointEncode,
        Phase::Fsync,
    ];

    /// The phase's slot in per-shard accumulator arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Phase::Delivery => 0,
            Phase::Handler => 1,
            Phase::BarrierWait => 2,
            Phase::Exchange => 3,
            Phase::CheckpointEncode => 4,
            Phase::Fsync => 5,
        }
    }

    /// Stable lower-snake name (the JSON/Prometheus encoding).
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Delivery => "delivery",
            Phase::Handler => "handler",
            Phase::BarrierWait => "barrier_wait",
            Phase::Exchange => "exchange",
            Phase::CheckpointEncode => "checkpoint_encode",
            Phase::Fsync => "fsync",
        }
    }
}

/// One shard's phase accumulators plus its most recently reported
/// active-set load (the elastic scheduler's imbalance input).
#[derive(Default)]
pub struct ShardPhases {
    stats: [SpanStat; Phase::COUNT],
    active: AtomicU64,
}

impl ShardPhases {
    /// The accumulated statistic for `phase` on this shard.
    pub fn stat(&self, phase: Phase) -> &SpanStat {
        &self.stats[phase.index()]
    }

    /// The latest reported active-set size (0 until reported).
    pub fn active(&self) -> u64 {
        self.active.load(Ordering::Relaxed)
    }
}

/// Sanity cap on shard indices: worker/shard ids are small in practice;
/// anything larger is clamped into the last slot rather than allocating
/// an absurd accumulator table.
const MAX_SHARDS: usize = 1024;

/// Per-shard, per-phase span accounting. Shard slots are created lazily
/// on first use (the profiler does not know the shard count up front);
/// recording into an existing slot takes only a shared read-lock and
/// relaxed atomics, so shard worker threads never serialise on it.
#[derive(Default)]
pub struct PhaseProfiler {
    shards: RwLock<Vec<Arc<ShardPhases>>>,
}

impl PhaseProfiler {
    pub fn new() -> PhaseProfiler {
        PhaseProfiler::default()
    }

    fn slot(&self, shard: usize) -> Arc<ShardPhases> {
        let shard = shard.min(MAX_SHARDS - 1);
        {
            let shards = self.shards.read().expect("profiler poisoned");
            if let Some(slot) = shards.get(shard) {
                return Arc::clone(slot);
            }
        }
        let mut shards = self.shards.write().expect("profiler poisoned");
        while shards.len() <= shard {
            shards.push(Arc::new(ShardPhases::default()));
        }
        Arc::clone(&shards[shard])
    }

    /// Records one completed span of `nanos` for `phase` on `shard`.
    #[inline]
    pub fn record(&self, shard: usize, phase: Phase, nanos: u64) {
        self.slot(shard).stats[phase.index()].record(nanos);
    }

    /// Records `shard`'s current active-set size (its step load).
    #[inline]
    pub fn set_active(&self, shard: usize, nodes: u64) {
        self.slot(shard).active.store(nodes, Ordering::Relaxed);
    }

    /// Shard slots created so far.
    pub fn shard_count(&self) -> usize {
        self.shards.read().expect("profiler poisoned").len()
    }

    /// The accumulators for `shard`, if it ever recorded.
    pub fn shard(&self, shard: usize) -> Option<Arc<ShardPhases>> {
        self.shards
            .read()
            .expect("profiler poisoned")
            .get(shard)
            .cloned()
    }

    /// All shard slots, in shard order.
    pub fn shards(&self) -> Vec<Arc<ShardPhases>> {
        self.shards.read().expect("profiler poisoned").clone()
    }

    /// `(count, total_ns, max_ns)` for `phase`, aggregated over shards.
    pub fn phase_total(&self, phase: Phase) -> (u64, u64, u64) {
        let mut count = 0u64;
        let mut total = 0u64;
        let mut max = 0u64;
        for slot in self.shards.read().expect("profiler poisoned").iter() {
            let stat = &slot.stats[phase.index()];
            count = count.saturating_add(stat.count());
            total = total.saturating_add(stat.total_ns());
            max = max.max(stat.max_ns());
        }
        (count, total, max)
    }

    /// `(max, mean)` of per-shard active-set loads, over shards that
    /// have reported; `None` before any report.
    pub fn load(&self) -> Option<(f64, f64)> {
        let shards = self.shards.read().expect("profiler poisoned");
        if shards.is_empty() {
            return None;
        }
        let loads: Vec<u64> = shards.iter().map(|s| s.active()).collect();
        let max = *loads.iter().max().expect("non-empty") as f64;
        let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
        Some((max, mean))
    }

    /// Per-phase aggregate `{count, total_ns, max_ns}` over all shards,
    /// with every phase present (stable snapshot shape).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object(Phase::ALL.map(|phase| {
            let (count, total, max) = self.phase_total(phase);
            (
                phase.as_str(),
                JsonValue::object([
                    ("count", JsonValue::UInt(count)),
                    ("total_ns", JsonValue::UInt(total)),
                    ("max_ns", JsonValue::UInt(max)),
                ]),
            )
        }))
    }
}

/// One individual timed span, kept by a [`TraceBuffer`] for timeline
/// export. `end_micros` is relative to the buffer's creation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseSample {
    pub shard: usize,
    pub phase: Phase,
    pub end_micros: u64,
    pub dur_nanos: u64,
}

/// A fixed-capacity ring of recent [`PhaseSample`]s — the raw material
/// of a Chrome-trace timeline. Opt-in (a probe records aggregates
/// always, individual spans only when a buffer is attached); the mutex
/// is only touched on sampled steps.
pub struct TraceBuffer {
    ring: Mutex<VecDeque<PhaseSample>>,
    capacity: usize,
    epoch: Instant,
}

impl TraceBuffer {
    /// A buffer keeping the most recent `capacity` spans.
    pub fn new(capacity: usize) -> TraceBuffer {
        TraceBuffer {
            ring: Mutex::new(VecDeque::with_capacity(capacity.clamp(1, 4096))),
            capacity: capacity.max(1),
            epoch: Instant::now(),
        }
    }

    /// Stamps and records one completed span, evicting the oldest at
    /// capacity.
    pub fn record(&self, shard: usize, phase: Phase, dur_nanos: u64) {
        let end_micros = crate::saturating_micros(self.epoch.elapsed());
        let mut ring = self.ring.lock().expect("trace buffer poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(PhaseSample {
            shard,
            phase,
            end_micros,
            dur_nanos,
        });
    }

    /// A copy of the buffered spans, oldest first.
    pub fn samples(&self) -> Vec<PhaseSample> {
        self.ring
            .lock()
            .expect("trace buffer poisoned")
            .iter()
            .copied()
            .collect()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_index_round_trips() {
        for (i, phase) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(phase.index(), i);
        }
    }

    #[test]
    fn profiler_accumulates_per_shard() {
        let p = PhaseProfiler::new();
        p.record(0, Phase::Handler, 100);
        p.record(2, Phase::Handler, 300);
        p.record(2, Phase::Delivery, 50);
        assert_eq!(p.shard_count(), 3);
        assert_eq!(p.shard(0).unwrap().stat(Phase::Handler).total_ns(), 100);
        assert_eq!(p.shard(2).unwrap().stat(Phase::Handler).total_ns(), 300);
        assert_eq!(p.phase_total(Phase::Handler), (2, 400, 300));
        assert_eq!(p.phase_total(Phase::Fsync), (0, 0, 0));
    }

    #[test]
    fn load_reports_max_and_mean() {
        let p = PhaseProfiler::new();
        assert_eq!(p.load(), None);
        p.set_active(0, 10);
        p.set_active(1, 30);
        let (max, mean) = p.load().unwrap();
        assert_eq!(max, 30.0);
        assert_eq!(mean, 20.0);
    }

    /// The u128→u64 truncation audit's accumulator half: a saturated
    /// duration flows through `record` un-mangled, and aggregation
    /// saturates instead of wrapping.
    #[test]
    fn saturated_durations_survive_the_accumulators() {
        let ns = crate::saturating_nanos(std::time::Duration::MAX);
        assert_eq!(ns, u64::MAX);
        let p = PhaseProfiler::new();
        p.record(0, Phase::Fsync, ns);
        p.record(1, Phase::Fsync, ns);
        let (count, total, max) = p.phase_total(Phase::Fsync);
        assert_eq!(count, 2);
        assert_eq!(total, u64::MAX, "aggregate saturates, never wraps");
        assert_eq!(max, u64::MAX);
    }

    #[test]
    fn absurd_shard_ids_clamp_instead_of_allocating() {
        let p = PhaseProfiler::new();
        p.record(usize::MAX, Phase::Handler, 1);
        assert_eq!(p.shard_count(), MAX_SHARDS);
    }

    #[test]
    fn trace_buffer_keeps_the_tail() {
        let buf = TraceBuffer::new(2);
        buf.record(0, Phase::Delivery, 10);
        buf.record(0, Phase::Handler, 20);
        buf.record(1, Phase::Handler, 30);
        let samples = buf.samples();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].phase, Phase::Handler);
        assert_eq!(samples[1].shard, 1);
        assert_eq!(TraceBuffer::new(0).capacity(), 1);
    }

    #[test]
    fn json_has_every_phase() {
        let p = PhaseProfiler::new();
        p.record(0, Phase::Handler, 5);
        let json = p.to_json().to_string();
        for phase in Phase::ALL {
            assert!(json.contains(phase.as_str()), "{json}");
        }
    }
}
