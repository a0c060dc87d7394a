//! The one harness the self-checking bins share: the command line, the
//! flood workload, the interleaved A/B loop and the report writer.

use std::time::Instant;

use hyperspace_obs::{pretty, JsonValue, ObsHandle};
use hyperspace_sim::{reference, InitCtx, NodeId, NodeProgram, Outbox, SimConfig, Simulation};
use hyperspace_topology::Torus;

/// A bin's command line: `--smoke`, and `--flag VALUE` pairs.
pub struct Args(Vec<String>);

impl Args {
    /// The process's arguments.
    pub fn from_env() -> Args {
        Args(std::env::args().skip(1).collect())
    }

    /// An explicit argument list (tests).
    pub fn new<S: Into<String>>(args: impl IntoIterator<Item = S>) -> Args {
        Args(args.into_iter().map(Into::into).collect())
    }

    /// `--smoke`: shrink the workload for CI; assertions still run.
    pub fn smoke(&self) -> bool {
        self.0.iter().any(|a| a == "--smoke")
    }

    /// The word following `flag`, if the flag was given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    /// The `u64` following `flag`, or `default` without the flag.
    pub fn u64_or(&self, flag: &str, default: u64) -> u64 {
        self.value(flag).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{flag} takes a u64, got {v:?}"))
        })
    }
}

fn mix(v: u64) -> u64 {
    v.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31) ^ v
}

/// A self-sustaining deterministic flood: every delivered message is
/// forwarded to a state-chosen port, so in-flight traffic is constant
/// for as many steps as the cap allows — pure steady-state engine load
/// with no ramp-down tail. Injecting one message per node makes a dense
/// flood; injecting a handful onto a large torus makes a sparse walker
/// swarm where almost every inbox is empty almost always.
#[derive(Clone)]
struct ForwardForever;

impl NodeProgram for ForwardForever {
    type Msg = u64;
    type State = u64;

    fn init(&self, node: NodeId, _ctx: &InitCtx) -> u64 {
        mix(node as u64)
    }

    fn on_message(&self, state: &mut u64, msg: u64, ctx: &mut Outbox<'_, u64>) {
        *state = state.wrapping_add(mix(msg));
        let degree = ctx.degree();
        ctx.send_port(*state as usize % degree, msg.wrapping_add(1));
    }
}

/// The `ForwardForever` flood on one machine.
pub struct Flood {
    /// Human tag for printouts and reports.
    pub name: &'static str,
    /// Torus side (nodes = side * side — the paper's machine shape).
    pub side: u32,
    /// Concurrent messages kept in flight.
    pub messages: u64,
}

/// One timed flood run.
pub struct FloodRun {
    /// Steps executed (always the cap: the flood never drains).
    pub steps: u64,
    /// Messages delivered over the run.
    pub delivered: u64,
    /// Steps per wall-clock second, machine construction included.
    pub steps_per_sec: f64,
}

impl Flood {
    /// Nodes of the machine.
    pub fn nodes(&self) -> u64 {
        u64::from(self.side) * u64::from(self.side)
    }

    /// The flood's injections, spread over the whole machine so sparse
    /// stepping keeps the walkers on distinct nodes.
    fn injections(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        let nodes = self.nodes();
        (0..self.messages).map(move |m| {
            (
                ((m * nodes / self.messages) % nodes) as NodeId,
                mix(m) | 0x100,
            )
        })
    }

    fn config(steps: u64, obs: ObsHandle) -> SimConfig {
        SimConfig {
            max_steps: steps,
            obs,
            ..SimConfig::default()
        }
    }

    /// `steps` steps on the step kernel, observed by `obs`.
    pub fn on_engine(&self, steps: u64, obs: ObsHandle) -> FloodRun {
        let start = Instant::now();
        let topo = Torus::new_2d(self.side, self.side);
        let mut sim = Simulation::new(topo, ForwardForever, Flood::config(steps, obs));
        for (node, payload) in self.injections() {
            sim.inject(node, payload);
        }
        let report = sim.run_to_quiescence().expect("unbounded queues");
        let delivered = sim.metrics().total_delivered;
        self.checked(steps, report.steps, delivered, start)
    }

    /// `steps` steps on the reference interpreter, which visits every
    /// node every step — the dense baseline.
    pub fn on_reference(&self, steps: u64) -> FloodRun {
        let start = Instant::now();
        let topo = Torus::new_2d(self.side, self.side);
        let cfg = Flood::config(steps, ObsHandle::off());
        let run = reference::run(&topo, &ForwardForever, &cfg, self.injections());
        let report = run.result.expect("unbounded queues");
        self.checked(steps, report.steps, run.metrics.total_delivered, start)
    }

    fn checked(&self, cap: u64, steps: u64, delivered: u64, start: Instant) -> FloodRun {
        let elapsed = start.elapsed().as_secs_f64();
        assert_eq!(steps, cap, "flood must never drain");
        // Walkers that collide on one inbox are popped across several steps
        // (`msgs_per_step`), so delivery count is bounded, not exact.
        assert!(
            delivered >= cap && delivered <= cap * self.messages,
            "implausible delivery count {delivered}"
        );
        FloodRun {
            steps,
            delivered,
            steps_per_sec: steps as f64 / elapsed,
        }
    }
}

/// What [`interleaved`] measured: the best rate per side and the ratio
/// `a / b` of the cleanest pair.
pub struct Pairs {
    /// Best rate of side `a` (the side under test).
    pub a: f64,
    /// Best rate of side `b` (the baseline).
    pub b: f64,
    /// `max_t (a_t / b_t)`.
    pub ratio: f64,
}

/// Interleaved paired trials: each `b` trial runs immediately after its
/// `a` partner (after one discarded warm-up each), so CPU frequency
/// drift and cache warm-up hit both sides of a pair equally instead of
/// whichever ran last. The verdict is the ratio of the *cleanest pair*,
/// which is the measurement least contaminated by scheduler noise: a
/// spike that slows one trial spoils that pair's ratio, never improves
/// another's.
pub fn interleaved(
    label: &str,
    trials: usize,
    mut a: impl FnMut() -> f64,
    mut b: impl FnMut() -> f64,
) -> Pairs {
    a();
    b();
    let mut pairs = Pairs {
        a: 0.0,
        b: 0.0,
        ratio: 0.0,
    };
    for t in 0..trials {
        let (rate_a, rate_b) = (a(), b());
        let ratio = rate_a / rate_b;
        println!("  [{label}] trial {t}: {rate_a:>12.0} vs {rate_b:>12.0} steps/s ({ratio:.2}x)");
        pairs.a = pairs.a.max(rate_a);
        pairs.b = pairs.b.max(rate_b);
        pairs.ratio = pairs.ratio.max(ratio);
    }
    pairs
}

/// Prints a bin's machine-readable report and, under `--out PATH`,
/// writes it there.
pub fn emit(args: &Args, report: &JsonValue) {
    let rendered = pretty(report);
    println!("{rendered}");
    if let Some(path) = args.value("--out") {
        std::fs::write(path, &rendered).expect("write report");
        println!("wrote {path}");
    }
}
