//! [`ServiceObserver`]: the live window onto a running service.
//!
//! A cloneable view over the service's [`Registry`] — per-job probes,
//! lifecycle flight recorder, queue-depth gauge, crash dumps — plus a
//! small sampling loop that turns the raw counters into ring-buffered
//! time series and EWMA rate estimators, summarised as the
//! [`Signals`] vector an elastic scheduler (or a dashboard) consumes.
//! Observation is strictly read-only: nothing an observer does can
//! reach back into the deterministic solve loops.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use hyperspace_obs::{
    ascii::render_multi_chart, pretty, CrashDump, EwmaRate, JobProbe, JsonValue, Registry,
    RingSeries, Signals,
};

/// Samples each dashboard ring series retains.
const SERIES_CAPACITY: usize = 512;
/// EWMA smoothing factor for the rate estimators — biased toward
/// recency (a scheduler reacting to a stale rate oscillates).
const RATE_ALPHA: f64 = 0.3;

/// Sampled history behind the observer's mutex. Sampling is explicit
/// (the embedder decides the cadence), so the mutex is never touched by
/// solver threads.
struct History {
    /// Wall clock at the previous sample.
    last: Option<Instant>,
    /// Aggregate steps/sec estimator over the summed step counters.
    steps_rate: EwmaRate,
    /// Incumbent improvements/sec estimator (the B&B progress signal).
    incumbent_rate: EwmaRate,
    steps_per_sec: RingSeries,
    queue_depth: RingSeries,
    /// The most recent full signal vector.
    signals: Signals,
}

/// A cloneable, read-only live view of a [`crate::SolverService`].
///
/// Clones share the same registry and sample history, so one clone can
/// drive a sampling loop while another renders dashboards. Obtain one
/// via [`crate::SolverService::observe`]; it stays valid after the
/// service shuts down (the final counters remain readable).
#[derive(Clone)]
pub struct ServiceObserver {
    registry: Arc<Registry>,
    history: Arc<Mutex<History>>,
}

impl ServiceObserver {
    pub(crate) fn new(registry: Arc<Registry>) -> ServiceObserver {
        ServiceObserver {
            registry,
            history: Arc::new(Mutex::new(History {
                last: None,
                steps_rate: EwmaRate::new(RATE_ALPHA),
                incumbent_rate: EwmaRate::new(RATE_ALPHA),
                steps_per_sec: RingSeries::new(SERIES_CAPACITY),
                queue_depth: RingSeries::new(SERIES_CAPACITY),
                signals: Signals::default(),
            })),
        }
    }

    /// The underlying metric registry (named counters/gauges/spans,
    /// probes, flight recorder, crash dumps).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Probes of the running jobs and of the most recently finished
    /// ones (as many as the flight recorder holds events), ordered by
    /// job id.
    pub fn probes(&self) -> Vec<Arc<JobProbe>> {
        self.registry.probes()
    }

    /// Crash dumps captured so far (flight-recorder tails of panicked
    /// jobs).
    pub fn crashes(&self) -> Vec<CrashDump> {
        self.registry.crashes()
    }

    /// Engine steps executed across every job the service has run.
    pub fn total_steps(&self) -> u64 {
        self.registry.lifetime_totals().0
    }

    /// Jobs currently waiting in the queue (the service keeps this
    /// gauge current at every push and pop).
    pub fn queue_depth(&self) -> u64 {
        self.registry.gauge("queue.depth").get()
    }

    /// Takes one sample: feeds the ring series and rate estimators,
    /// refreshes the [`Signals`] vector, and returns the smoothed
    /// aggregate steps/sec (`0.0` until two samples exist). Call this
    /// on whatever cadence the display or scheduler wants — the solver
    /// threads never pay for it.
    pub fn sample(&self) -> f64 {
        let (steps, improvements) = self.registry.lifetime_totals();
        let probes = self.registry.probes();
        let frontier: u64 = probes.iter().map(|p| p.open_records()).sum();
        let depth = self.queue_depth();
        // Per-shard active-set loads pooled across every job's profiler:
        // the max/mean imbalance is the repartitioning signal.
        let (mut load_max, mut load_sum, mut load_n) = (0u64, 0u64, 0u64);
        for probe in &probes {
            for shard in probe.phases().shards().iter() {
                let active = shard.active();
                load_max = load_max.max(active);
                load_sum += active;
                load_n += 1;
            }
        }
        let now = Instant::now();
        let mut h = self.history.lock().expect("observer history poisoned");
        let dt = h
            .last
            .map(|then| now.saturating_duration_since(then).as_secs_f64())
            .unwrap_or(0.0);
        h.last = Some(now);
        let rate = h.steps_rate.observe(steps as f64, dt);
        let incumbent_rate = h.incumbent_rate.observe(improvements as f64, dt);
        h.steps_per_sec.push(rate);
        h.queue_depth.push(depth as f64);
        let load_mean = if load_n > 0 {
            load_sum as f64 / load_n as f64
        } else {
            0.0
        };
        h.signals = Signals {
            steps_per_sec: rate,
            queue_depth: depth as f64,
            incumbent_rate,
            frontier_size: frontier as f64,
            shard_load_max: load_max as f64,
            shard_load_mean: load_mean,
            shard_imbalance: if load_mean > 0.0 {
                load_max as f64 / load_mean
            } else {
                0.0
            },
        };
        rate
    }

    /// The most recent signal vector (all zeros before the first
    /// [`ServiceObserver::sample`]).
    pub fn signals(&self) -> Signals {
        self.history
            .lock()
            .expect("observer history poisoned")
            .signals
    }

    /// Samples recorded so far (including any the ring has evicted).
    pub fn samples(&self) -> usize {
        self.history
            .lock()
            .expect("observer history poisoned")
            .steps_per_sec
            .pushed() as usize
    }

    /// Point-in-time JSON snapshot of the whole registry: counters,
    /// gauges, spans, per-job probes, flight-recorder tail and crash
    /// dumps. Self-contained — render with `to_string()` (compact) or
    /// [`ServiceObserver::snapshot_pretty`].
    pub fn snapshot(&self) -> JsonValue {
        self.registry.to_json()
    }

    /// The snapshot, pretty-printed.
    pub fn snapshot_pretty(&self) -> String {
        pretty(&self.snapshot())
    }

    /// An ASCII dashboard: the sampled steps/sec and queue-depth series
    /// as an overlaid line chart, followed by a one-line live summary.
    /// Both series are normalised to their own maxima by the renderer,
    /// so the chart shows trajectory, not absolute scale (the summary
    /// line carries the numbers).
    pub fn dashboard(&self, width: usize, height: usize) -> String {
        let h = self.history.lock().expect("observer history poisoned");
        let mut out = String::new();
        let latest = h.steps_per_sec.last().unwrap_or(0.0);
        if h.steps_per_sec.is_empty() {
            out.push_str("(no samples yet — call sample() on a cadence)\n");
        } else {
            out.push_str(&render_multi_chart(
                &[
                    ("steps/s", &h.steps_per_sec.values()),
                    ("queue", &h.queue_depth.values()),
                ],
                width,
                height,
            ));
        }
        drop(h);
        out.push_str(&format!(
            "live: {:.0} steps/s | {} queued | {} jobs probed | {} events | {} crashes\n",
            latest,
            self.queue_depth(),
            self.registry.probes().len(),
            self.registry.recorder().recorded(),
            self.registry.crashes().len(),
        ));
        out
    }
}

impl std::fmt::Debug for ServiceObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceObserver")
            .field("jobs", &self.registry.probes().len())
            .field("samples", &self.samples())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperspace_obs::Observer;

    #[test]
    fn sampling_builds_the_dashboard_series() {
        let registry = Arc::new(Registry::default());
        let obs = ServiceObserver::new(Arc::clone(&registry));
        assert_eq!(obs.sample(), 0.0); // no previous sample
        registry.probe(1, "x").on_step(500, 10, 0);
        registry.gauge("queue.depth").set(3);
        let rate = obs.sample();
        assert!(rate > 0.0, "steps advanced between samples: {rate}");
        assert_eq!(obs.samples(), 2);
        assert_eq!(obs.queue_depth(), 3);
        let dash = obs.dashboard(40, 8);
        assert!(dash.contains("steps/s"), "{dash}");
        assert!(dash.contains("3 queued"), "{dash}");
    }

    #[test]
    fn signals_vector_reflects_the_probes() {
        let registry = Arc::new(Registry::default());
        let obs = ServiceObserver::new(Arc::clone(&registry));
        assert_eq!(obs.signals(), Signals::default());
        let probe = registry.probe(1, "bnb");
        probe.on_progress(10, 42, Some(100));
        probe.on_progress(20, 42, Some(90));
        probe.on_shard_active(0, 30);
        probe.on_shard_active(1, 10);
        registry.gauge("queue.depth").set(2);
        obs.sample();
        std::thread::sleep(std::time::Duration::from_millis(2));
        obs.sample();
        let s = obs.signals();
        assert_eq!(s.queue_depth, 2.0);
        assert_eq!(s.frontier_size, 42.0);
        assert_eq!(s.shard_load_max, 30.0);
        assert_eq!(s.shard_load_mean, 20.0);
        assert!((s.shard_imbalance - 1.5).abs() < 1e-9, "{s:?}");
    }

    #[test]
    fn clones_share_history_and_registry() {
        let obs = ServiceObserver::new(Arc::new(Registry::default()));
        let clone = obs.clone();
        obs.sample();
        clone.sample();
        assert_eq!(obs.samples(), 2);
    }

    #[test]
    fn empty_observer_renders_placeholder_dashboard() {
        let obs = ServiceObserver::new(Arc::new(Registry::default()));
        assert!(obs.dashboard(40, 8).contains("no samples yet"));
        let json = obs.snapshot_pretty();
        assert!(json.contains("\"jobs\""), "{json}");
    }
}
