//! The host gauge: a fixed piece of work, timed between ops, that tells
//! how fast the host is running at that moment.
//!
//! The grading machine is a small virtual machine on a shared host. Its
//! cores slow down by a third to a half, for seconds or minutes at a
//! time, with what its neighbours do (a dependent multiply-add chain
//! keeps its pace; anything that issues several instructions a cycle or
//! leaves the first-level cache does not), so the same binary on the same
//! inputs reads 30 to 50 % apart from one run to the next. No median over
//! a run removes a slowdown that lasts as long as the run. What does is
//! to measure the slowdown: the gauge's kernel is always the same work,
//! its time moves with the host as the product code's does, and the part
//! of every timing that the process spent computing is divided by the
//! kernel's time over [`NOMINAL_NS`] (README.md, "The host gauge").
//!
//! The kernel belongs to the benchmark, calls no product code, allocates
//! nothing and is run once untimed before it is timed, so neither a
//! change to the product nor what the workload left in the caches and on
//! the heap can move a reading.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's time in nanoseconds on the grading machine when nothing
/// disturbs it (the fifth percentile of a one-minute run). Timings are
/// scaled to this, so a reported millisecond is a millisecond of that
/// quiet machine. Only the ratios between results matter; this constant
/// fixes their scale.
pub const NOMINAL_NS: f64 = 195_000.0;

const CLAUSES: i32 = 136;
const SCANS: usize = 400;
const INBOXES: usize = 196;
const ROUNDS: u64 = 40;
const RING: usize = 32 << 10;
const HOPS: usize = 8_000;

/// One thread's copy of the fixed work: what the stack's hot paths do,
/// in miniature.
struct Kernel {
    formula: Vec<i32>,
    residual: Vec<i32>,
    inboxes: Vec<VecDeque<u64>>,
    /// A random cycle through 128 KB.
    ring: Vec<u32>,
}

/// A random cycle through `len` slots.
fn cycle(len: usize) -> Vec<u32> {
    let mut order: Vec<u32> = (0..len as u32).collect();
    crate::stats::Rng::new(len as u64).shuffle(&mut order);
    let mut ring = vec![0; len];
    for (i, &from) in order.iter().enumerate() {
        ring[from as usize] = order[(i + 1) % len];
    }
    ring
}

impl Kernel {
    fn new() -> Kernel {
        Kernel {
            formula: (0..CLAUSES).flat_map(|v| [v + 1, -v - 2, v + 3]).collect(),
            residual: Vec::with_capacity(3 * CLAUSES as usize),
            inboxes: (0..INBOXES).map(|_| VecDeque::new()).collect(),
            ring: cycle(RING),
        }
    }

    /// Runs the work twice and times the second: the first brings the
    /// kernel's 200 KB back into the caches the workload has just used,
    /// so the reading does not depend on what the workload left there.
    fn reading(&mut self) -> f64 {
        self.run();
        self.run()
    }

    /// Runs the work once; wall nanoseconds.
    fn run(&mut self) -> f64 {
        let started = Instant::now();
        // Copy and scan, literal by literal: an activation simplifying
        // its residual formula. No allocation, so the heap the workload
        // leaves behind does not matter.
        let mut satisfied = 0;
        for pass in 0..SCANS as i32 {
            self.residual.clear();
            for clause in self.formula.chunks_exact(3) {
                if clause.iter().any(|&l| l == pass - CLAUSES) {
                    satisfied += 1;
                } else {
                    self.residual
                        .extend(clause.iter().filter(|&&l| l != pass + 1));
                }
            }
            black_box(&self.residual);
        }
        black_box(satisfied);
        // Pop, mix, push: the step loop delivering messages.
        for (node, inbox) in self.inboxes.iter_mut().enumerate() {
            inbox.push_back(node as u64);
        }
        for round in 0..ROUNDS {
            for node in 0..INBOXES {
                if let Some(msg) = self.inboxes[node].pop_front() {
                    let next = msg.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31) ^ round;
                    self.inboxes[next as usize % INBOXES].push_back(next);
                }
            }
        }
        self.inboxes.iter_mut().for_each(VecDeque::clear);
        // Dependent loads beyond the nearest cache: walking node states.
        let mut at = 0;
        for _ in 0..HOPS {
            at = self.ring[at as usize];
        }
        black_box(at);
        started.elapsed().as_nanos() as f64
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time this process has used so far, all threads, living and
/// joined: `CLOCK_PROCESS_CPUTIME_ID`.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for this target.
    let rc = unsafe { clock_gettime(2, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// `(w - c + c / s) / w` for a computing share `c / w` and a slowdown `s`.
fn quiet_factor(computing: f64, slowdown: f64) -> f64 {
    1.0 - computing * (1.0 - 1.0 / slowdown)
}

/// Times the kernel on as many threads at once as the workload computes
/// on, and keeps every reading.
pub struct HostGauge {
    kernels: Vec<Kernel>,
    readings: Vec<f64>,
    spent: Duration,
    spent_cpu: Duration,
}

/// The start of an interval to be brought to the quiet machine's pace.
pub struct Mark {
    wall: Instant,
    /// The process's CPU time and the gauge's own wall and CPU time then.
    cpu: Duration,
    spent: Duration,
    spent_cpu: Duration,
    /// Index of the reading that preceded the interval.
    reading: usize,
}

impl HostGauge {
    /// A gauge for a workload that computes on `threads` threads.
    pub fn new(threads: usize) -> HostGauge {
        let mut gauge = HostGauge {
            kernels: (0..threads).map(|_| Kernel::new()).collect(),
            readings: Vec::new(),
            spent: Duration::ZERO,
            spent_cpu: Duration::ZERO,
        };
        // Fault the buffers in.
        gauge.sample();
        gauge
    }

    /// A gauge that does nothing, under which every factor is 1: for
    /// passes whose timings are not reported (traced passes, probes).
    pub fn off() -> HostGauge {
        HostGauge::new(0)
    }

    fn is_off(&self) -> bool {
        self.kernels.is_empty()
    }

    /// Runs the kernel now, on every thread at once, and records the mean
    /// of their times in nanoseconds.
    pub fn sample(&mut self) {
        if self.is_off() {
            return;
        }
        let started = Instant::now();
        let cpu = process_cpu();
        let (first, rest) = self.kernels.split_first_mut().expect("not off");
        let total: f64 = std::thread::scope(|scope| {
            let others: Vec<_> = rest
                .iter_mut()
                .map(|kernel| scope.spawn(|| kernel.reading()))
                .collect();
            first.reading()
                + others
                    .into_iter()
                    .map(|t| t.join().expect("gauge thread"))
                    .sum::<f64>()
        });
        self.readings.push(total / self.kernels.len() as f64);
        self.spent += started.elapsed();
        self.spent_cpu += process_cpu() - cpu;
    }

    /// Starts an interval. The last reading is taken to be the host's
    /// pace at its start, so take one first if the last is stale.
    pub fn mark(&self) -> Mark {
        Mark {
            wall: Instant::now(),
            cpu: if self.is_off() {
                Duration::ZERO
            } else {
                process_cpu()
            },
            spent: self.spent,
            spent_cpu: self.spent_cpu,
            reading: self.readings.len().saturating_sub(1),
        }
    }

    /// Wall time since `mark`, net of the gauge's own.
    pub fn elapsed(&self, mark: &Mark) -> Duration {
        mark.wall.elapsed().saturating_sub(self.spent - mark.spent)
    }

    /// Takes a reading and returns the factor that brings a wall time
    /// measured since `mark` to the quiet machine's pace.
    ///
    /// Only computing slows down with the host; waiting for a barrier, a
    /// wake-up or the disk does not. So of the interval's wall time `w`
    /// the share the process spent computing (its CPU time over its
    /// threads, `c`) is divided by the slowdown `s` (the mean of the
    /// readings around and inside the interval, over [`NOMINAL_NS`]) and
    /// the rest is left as it is: `w - c + c / s`.
    pub fn quiet_factor(&mut self, mark: &Mark) -> f64 {
        if self.is_off() {
            return 1.0;
        }
        let wall = self.elapsed(mark).as_secs_f64();
        let cpu = (process_cpu() - mark.cpu).saturating_sub(self.spent_cpu - mark.spent_cpu);
        self.sample();
        let around = &self.readings[mark.reading..];
        let slowdown = around.iter().sum::<f64>() / around.len() as f64 / NOMINAL_NS;
        let computing = cpu.as_secs_f64() / self.kernels.len() as f64 / wall;
        quiet_factor(computing.min(1.0), slowdown)
    }

    /// Ends the interval of one op: its latency in nanoseconds as the
    /// wall clock saw it, and at the quiet machine's pace.
    pub fn finish(&mut self, mark: &Mark) -> (u64, f64) {
        let latency_ns = self.elapsed(mark).as_nanos() as u64;
        (latency_ns, latency_ns as f64 * self.quiet_factor(mark))
    }

    /// Every reading so far, each over [`NOMINAL_NS`].
    pub fn slowdowns(&self) -> Vec<f64> {
        self.readings.iter().map(|r| r / NOMINAL_NS).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_off_gauge_leaves_timings_alone() {
        let mut gauge = HostGauge::off();
        let mark = gauge.mark();
        assert_eq!(gauge.quiet_factor(&mark), 1.0);
        assert!(gauge.slowdowns().is_empty());
    }

    #[test]
    fn computing_is_scaled_and_waiting_is_not() {
        // All computing on a host half as fast: half the time.
        assert_eq!(quiet_factor(1.0, 2.0), 0.5);
        // All waiting: left as it is, whatever the host.
        assert_eq!(quiet_factor(0.0, 2.0), 1.0);
        // Half and half: 0.5 + 0.5 / 2.
        assert_eq!(quiet_factor(0.5, 2.0), 0.75);
        // A quiet host changes nothing.
        assert_eq!(quiet_factor(0.7, 1.0), 1.0);
    }

    #[test]
    fn a_gauge_reads_and_keeps_its_own_time_out_of_intervals() {
        let mut gauge = HostGauge::new(2);
        let mark = gauge.mark();
        let factor = gauge.quiet_factor(&mark);
        assert!(factor > 0.0 && factor.is_finite(), "{factor}");
        assert!(gauge.slowdowns().iter().all(|s| *s > 0.0));
        assert_eq!(gauge.slowdowns().len(), 2);
        assert!(gauge.elapsed(&mark) < mark.wall.elapsed());
    }
}
