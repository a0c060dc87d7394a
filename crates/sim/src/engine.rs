//! Engine configuration, run reports and errors, and [`Simulation`] —
//! the sequential face of the one step kernel. The execution model of a
//! simulated step (paper §IV-A, §V-A) is described, and implemented
//! once, in the `shard` module.

use std::ops::{Deref, DerefMut};
use std::panic::resume_unwind;

use crate::checkpoint::SimCheckpoint;
use crate::codec::{Codec, CodecError};
use crate::control::StopHandle;
use crate::program::NodeProgram;
use crate::record::SimMetrics;
use crate::sharded::{Fault, ShardedConfig, ShardedSimulation};
use hyperspace_obs::ObsHandle;
use hyperspace_topology::{NodeId, Topology};

/// How sends traverse the machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DeliveryModel {
    /// Sends must target direct neighbours (the paper's §V-A assumption:
    /// "messages can be communicated between adjacent cores only").
    #[default]
    AdjacentOnly,
    /// Sends may target any node; messages advance one hop per step along
    /// the topology's deterministic minimal route (a simple NoC model).
    Routed,
    /// Sends may target any node and arrive the next step regardless of
    /// distance (the fully-connected baseline's semantics).
    Direct,
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Hard step cap; a run hitting it reports [`RunOutcome::MaxSteps`].
    pub max_steps: u64,
    /// Inbox pops per node per step (the paper uses 1). A budget of `0`
    /// could never drain queued work — `run_to_quiescence` would spin
    /// forever delivering nothing — so construction clamps it to at
    /// least 1.
    pub msgs_per_step: u32,
    /// Message traversal semantics.
    pub delivery: DeliveryModel,
    /// Record the per-step queued-message series (Figure 5 top).
    pub record_queue_series: bool,
    /// Record per-node delivered/sent counts (Figure 5 bottom).
    pub record_node_activity: bool,
    /// Record a full send/deliver event trace (testing; costly).
    pub record_trace: bool,
    /// Invoke `NodeProgram::on_tick` for every node each `k` steps.
    pub tick_every: Option<u64>,
    /// Bounded-inbox failure injection: exceeding this capacity aborts the
    /// run with [`SimError::QueueOverflow`]. `None` models the paper's
    /// unbounded queues.
    pub queue_capacity: Option<usize>,
    /// Cooperative run control: when the handle trips (explicit stop or
    /// wall-clock deadline), `run_to_quiescence` ends the
    /// run with [`RunOutcome::Stopped`]. Checked between steps, so all
    /// per-step invariants hold at the point of interruption.
    pub stop: Option<StopHandle>,
    /// Passive telemetry sink (see [`hyperspace_obs::Observer`]). Off by
    /// default; when attached, the engine reports each completed step
    /// and each checkpoint encode/decode. Observation is one-way — an
    /// observer has no channel back into the step loop — so results,
    /// metrics, traces and checkpoint bytes are bit-identical with
    /// observation on or off.
    pub obs: ObsHandle,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_steps: 1_000_000,
            msgs_per_step: 1,
            delivery: DeliveryModel::AdjacentOnly,
            record_queue_series: true,
            record_node_activity: true,
            record_trace: false,
            tick_every: None,
            queue_capacity: None,
            stop: None,
            obs: ObsHandle::off(),
        }
    }
}

/// Why a run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// No messages remained anywhere in the machine.
    Quiescent,
    /// A handler called [`crate::Outbox::halt`] (e.g. root result available).
    Halted,
    /// The `max_steps` safety cap was reached.
    MaxSteps,
    /// The run's [`StopHandle`] tripped (cancellation or deadline).
    Stopped,
}

/// Summary of a completed run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Why the run ended.
    pub outcome: RunOutcome,
    /// Steps executed.
    pub steps: u64,
    /// §V-C computation time: steps between first and last message,
    /// inclusive.
    pub computation_time: u64,
}

/// Per-step summary returned by `step`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepReport {
    /// The step just executed (1-based).
    pub step: u64,
    /// Messages delivered to handlers during this step.
    pub delivered: u64,
    /// Messages queued (inboxes + transit) after this step.
    pub queued_after: u64,
    /// Whether some handler requested a halt.
    pub halted: bool,
}

/// Errors surfaced by the engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// A bounded inbox overflowed (failure injection mode).
    QueueOverflow {
        /// Node whose inbox overflowed.
        node: NodeId,
        /// Step at which the overflow occurred.
        step: u64,
        /// Queue length that violated the bound.
        len: usize,
    },
    /// A node's handler panicked. The kernel always contains the panic:
    /// the faulting node drops the rest of its step, every other node
    /// finishes it, workers shut down cleanly, and the machine stays
    /// consistent, resumable and the same for every sharding. What the
    /// caller sees is decided once per face: a
    /// [`crate::ShardedSimulation`] — whatever its shard and thread
    /// counts — returns this error; a [`Simulation`] resumes the unwind
    /// with the handler's own payload; stack runs in `hyperspace-core`
    /// re-raise this error's `Display` text, which ends in the original
    /// message.
    HandlerPanic {
        /// Node whose handler panicked (lowest id if several did in the
        /// same step).
        node: NodeId,
        /// Step at which the panic occurred.
        step: u64,
        /// The panic payload, if it was a string.
        message: String,
    },
}

/// Renders a caught panic payload: the message when the panic carried
/// one (`panic!` yields a `&str` or a `String`), `default` for any other
/// payload type. The one payload-to-text ladder — the kernel's
/// [`SimError::HandlerPanic`] and the services that catch whole jobs
/// both read payloads through it.
pub fn panic_message(payload: &(dyn std::any::Any + Send), default: &str) -> String {
    (payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| default.to_string())
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::QueueOverflow { node, step, len } => write!(
                f,
                "inbox of node {node} overflowed at step {step} (len {len})"
            ),
            SimError::HandlerPanic {
                node,
                step,
                message,
            } => write!(
                f,
                "handler of node {node} panicked at step {step}: {message}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// The sequential machine: the step kernel with a single shard, stepped
/// inline on the calling thread — the paper's evaluation backend
/// (§IV-A). A constructor and two policies over
/// [`ShardedSimulation`], which it dereferences to for everything else
/// (`inject`, `set_max_steps`, `state`, `metrics`, `trace`, `snapshot`,
/// ...): its node states are one contiguous slice, and a handler panic
/// propagates to the caller as the panic it was.
pub struct Simulation<T: Topology, P: NodeProgram>(ShardedSimulation<T, P>);

impl<T: Topology, P: NodeProgram> Deref for Simulation<T, P> {
    type Target = ShardedSimulation<T, P>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<T: Topology, P: NodeProgram> DerefMut for Simulation<T, P> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

/// The [`Simulation`] failure policy: overflows are errors, a handler's
/// panic continues unwinding with its own payload.
fn reraise<R>(result: Result<R, Fault>) -> Result<R, SimError> {
    match result {
        Err(Fault {
            payload: Some(payload),
            ..
        }) => resume_unwind(payload),
        other => other.map_err(SimError::from),
    }
}

impl<T: Topology, P: NodeProgram> Simulation<T, P> {
    /// Builds the machine: initialises every node's state via
    /// `program.init` and empty queues.
    pub fn new(topo: T, program: P, cfg: SimConfig) -> Self {
        Simulation(ShardedSimulation::new(
            topo,
            program,
            cfg,
            ShardedConfig::with_shards(1),
        ))
    }

    /// All node states, indexed by node id.
    pub fn states(&self) -> &[P::State] {
        self.0.first_shard_states()
    }

    /// Executes one simulation step.
    pub fn step(&mut self) -> Result<StepReport, SimError> {
        reraise(self.0.step_once())
    }

    /// Steps until no messages remain, a handler halts the run, the step
    /// cap is reached, or the stop handle trips.
    pub fn run_to_quiescence(&mut self) -> Result<RunReport, SimError> {
        reraise(self.0.drive())
    }

    /// Consumes the simulation, returning final states and metrics.
    pub fn into_parts(self) -> (Vec<P::State>, SimMetrics) {
        self.0.into_parts()
    }

    /// Rebuilds a simulation from a checkpoint (taken under any
    /// sharding), ready to resume exactly where the snapshot was taken;
    /// see [`ShardedSimulation::restore`].
    pub fn restore(
        topo: T,
        program: P,
        cfg: SimConfig,
        ckpt: &SimCheckpoint,
    ) -> Result<Self, CodecError>
    where
        P::State: Codec,
        P::Msg: Codec,
    {
        ShardedSimulation::restore(topo, program, cfg, ShardedConfig::with_shards(1), ckpt)
            .map(Simulation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceEvent;
    use crate::{reference, DeliveryModel, InitCtx, Outbox};
    use hyperspace_topology::{FullyConnected, Ring, Torus};

    /// Runs `program` on the kernel and on the reference interpreter and
    /// demands the same run: outcome, steps, states, every metric, trace.
    fn assert_matches_reference<T: Topology + Clone, P: NodeProgram>(
        topo: T,
        program: P,
        cfg: SimConfig,
        injections: &[(NodeId, P::Msg)],
    ) -> (RunReport, Vec<P::State>, Vec<TraceEvent>)
    where
        P::State: PartialEq + std::fmt::Debug,
    {
        let cfg = SimConfig {
            record_trace: true,
            ..cfg
        };
        let oracle = reference::run(&topo, &program, &cfg, injections.iter().cloned());
        let oracle_report = oracle.result.expect("reference run");
        let mut sim = Simulation::new(topo, program, cfg);
        for (node, msg) in injections {
            sim.inject(*node, msg.clone());
        }
        let report = sim.run_to_quiescence().expect("kernel run");
        assert_eq!(report.outcome, oracle_report.outcome);
        assert_eq!(report.steps, oracle_report.steps);
        assert_eq!(report.computation_time, oracle_report.computation_time);
        assert_eq!(sim.states(), oracle.states.as_slice());
        assert_eq!(sim.metrics(), &oracle.metrics);
        assert_eq!(sim.trace(), oracle.trace.as_slice());
        let trace = sim.trace().to_vec();
        (report, sim.into_parts().0, trace)
    }

    /// Flood-fill traversal from Listing 1.
    struct Traverse;
    impl NodeProgram for Traverse {
        type Msg = ();
        type State = bool;
        fn init(&self, _node: NodeId, _ctx: &InitCtx) -> bool {
            false
        }
        fn on_message(&self, visited: &mut bool, _msg: (), ctx: &mut Outbox<'_, ()>) {
            if !*visited {
                *visited = true;
                ctx.broadcast(());
            }
        }
    }

    #[test]
    fn flood_fill_visits_every_node() {
        let mut sim = Simulation::new(Torus::new_2d(6, 6), Traverse, SimConfig::default());
        sim.inject(0, ());
        let report = sim.run_to_quiescence().unwrap();
        assert_eq!(report.outcome, RunOutcome::Quiescent);
        assert!(sim.states().iter().all(|&v| v));
        // Every node received at least one message.
        assert!(sim.metrics().delivered_per_node.iter().all(|&c| c > 0));
    }

    #[test]
    fn two_node_ring_timing_is_exact() {
        // Ring of 3 (ring of 2 merges ports). Trigger at node 0.
        // step 1: node 0 handles trigger, sends to 1 and 2.
        // step 2: nodes 1 and 2 handle, each sends 2 messages (to 0 and each
        //         other).
        // step 3: node 0 pops one duplicate, nodes 1,2 pop each other's
        //         duplicate; all dropped (visited). One message left for 0.
        // step 4: node 0 pops the last duplicate.
        let mut sim = Simulation::new(Ring::new(3), Traverse, SimConfig::default());
        sim.inject(0, ());
        let report = sim.run_to_quiescence().unwrap();
        assert_eq!(report.outcome, RunOutcome::Quiescent);
        assert_eq!(report.steps, 4);
        assert_eq!(report.computation_time, 4);
        assert_eq!(sim.metrics().total_delivered, 1 + 2 + 4);
        // Node 0 delivered: trigger + 2 replies = 3.
        assert_eq!(sim.metrics().delivered_per_node[0], 3);
    }

    #[test]
    fn one_pop_per_step_serialises_hot_node() {
        // All nodes send to node 0 at once; node 0 drains one per step.
        struct AllToZero;
        impl NodeProgram for AllToZero {
            type Msg = u8;
            type State = u32;
            fn init(&self, _n: NodeId, _c: &InitCtx) -> u32 {
                0
            }
            fn on_message(&self, count: &mut u32, msg: u8, ctx: &mut Outbox<'_, u8>) {
                *count += 1;
                if msg == 1 && ctx.node() != 0 {
                    // forward a unit of work to node 0
                    ctx.send(0, 2);
                }
            }
        }
        let n = 5u32;
        let mut sim = Simulation::new(
            FullyConnected::new(n),
            AllToZero,
            SimConfig {
                delivery: DeliveryModel::Direct,
                ..SimConfig::default()
            },
        );
        for node in 1..n {
            sim.inject(node, 1);
        }
        let report = sim.run_to_quiescence().unwrap();
        // step 1: the 4 triggers; steps 2..5: node 0 pops one per step.
        assert_eq!(report.steps, 5);
        assert_eq!(*sim.state(0), 4);
    }

    #[test]
    fn msgs_per_step_budget_widens_throughput() {
        struct AllToZero;
        impl NodeProgram for AllToZero {
            type Msg = ();
            type State = u32;
            fn init(&self, _n: NodeId, _c: &InitCtx) -> u32 {
                0
            }
            fn on_message(&self, count: &mut u32, _m: (), _ctx: &mut Outbox<'_, ()>) {
                *count += 1;
            }
        }
        let mut sim = Simulation::new(
            FullyConnected::new(9),
            AllToZero,
            SimConfig {
                delivery: DeliveryModel::Direct,
                msgs_per_step: 4,
                ..SimConfig::default()
            },
        );
        for _ in 0..8 {
            sim.inject(0, ());
        }
        let report = sim.run_to_quiescence().unwrap();
        assert_eq!(report.steps, 2);
        assert_eq!(*sim.state(0), 8);
    }

    #[test]
    fn staged_count_counts_the_current_invocation_only() {
        // Nodes 0 and 1 each handle three messages in one step and send
        // one per message: every invocation has staged exactly one so
        // far, whatever earlier invocations — its own node's or another
        // node's — left in the staging buffer.
        struct CountStaged;
        impl NodeProgram for CountStaged {
            type Msg = bool;
            type State = Vec<usize>;
            fn init(&self, _n: NodeId, _c: &InitCtx) -> Vec<usize> {
                Vec::new()
            }
            fn on_message(&self, counts: &mut Vec<usize>, first: bool, ctx: &mut Outbox<'_, bool>) {
                if first {
                    ctx.send_port(0, false);
                    counts.push(ctx.staged_count());
                }
            }
        }
        let cfg = SimConfig {
            msgs_per_step: 3,
            ..SimConfig::default()
        };
        let injections = [
            (0, true),
            (0, true),
            (0, true),
            (1, true),
            (1, true),
            (1, true),
        ];
        let (_, states, _) = assert_matches_reference(Ring::new(4), CountStaged, cfg, &injections);
        assert_eq!(states[0], [1, 1, 1]);
        assert_eq!(states[1], [1, 1, 1]);
    }

    #[test]
    fn adjacent_only_rejects_remote_sends() {
        struct BadSend;
        impl NodeProgram for BadSend {
            type Msg = ();
            type State = ();
            fn init(&self, _n: NodeId, _c: &InitCtx) {}
            fn on_message(&self, _s: &mut (), _m: (), ctx: &mut Outbox<'_, ()>) {
                ctx.send(5, ()); // nodes 0 and 5 are not adjacent on a 4x4 torus
            }
        }
        let mut sim = Simulation::new(Torus::new_2d(4, 4), BadSend, SimConfig::default());
        sim.inject(0, ());
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.step()));
        assert!(res.is_err(), "expected adjacency assertion to fire");
        let payload = res.unwrap_err();
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("adjacent-only delivery: 0 -> 5 is not a mesh link")
        );
    }

    /// Node 0 sends to a neighbour, to a node two links away and to one
    /// four links away; the others note the step their message arrived.
    struct FarSends;
    impl NodeProgram for FarSends {
        type Msg = u8;
        type State = Option<u64>;
        fn init(&self, _n: NodeId, _c: &InitCtx) -> Option<u64> {
            None
        }
        fn on_message(&self, got: &mut Option<u64>, msg: u8, ctx: &mut Outbox<'_, u8>) {
            if msg == 0 {
                for dst in [1, 5, 10] {
                    ctx.send(dst, 1);
                }
            } else {
                *got = Some(ctx.step());
            }
        }
    }

    #[test]
    fn routed_sends_enter_transit_only_beyond_a_mesh_link() {
        let cfg = SimConfig {
            delivery: DeliveryModel::Routed,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(Torus::new_2d(4, 4), FarSends, cfg);
        sim.inject(0, 0);
        sim.run_to_quiescence().unwrap();
        // The neighbour's copy went straight to its inbox (handled the
        // very next step); the others took one step per link.
        let arrived = [1, 5, 10].map(|node| sim.state(node).unwrap());
        assert_eq!(arrived, [2, 3, 5]);
        // Trigger 0 hops, then 1 + 2 + 4 links.
        assert_eq!(sim.metrics().hop_histogram.count(), 4);
        assert_eq!(sim.metrics().hop_histogram.sum(), 7);
    }

    #[test]
    fn broadcast_fan_out_is_counted_per_link_not_per_envelope() {
        // One broadcast from node 0 on a degree-4 torus: 4 sends, 4
        // one-hop deliveries. The fan-out must neither collapse into a
        // single send nor inflate any envelope's hop count.
        struct BroadcastOnce;
        impl NodeProgram for BroadcastOnce {
            type Msg = ();
            type State = ();
            fn init(&self, _n: NodeId, _c: &InitCtx) {}
            fn on_message(&self, _s: &mut (), _m: (), ctx: &mut Outbox<'_, ()>) {
                if ctx.node() == 0 && ctx.sender() == 0 && ctx.hops() == 0 {
                    ctx.broadcast(());
                }
            }
        }
        let mut sim = Simulation::new(Torus::new_2d(4, 4), BroadcastOnce, SimConfig::default());
        sim.inject(0, ());
        sim.run_to_quiescence().unwrap();
        let m = sim.metrics();
        assert_eq!(m.total_sent, 4);
        assert_eq!(m.total_delivered, 5); // trigger + 4 fan-out copies
        assert_eq!(m.sent_per_node[0], 4);
        // Hop histogram: the zero-hop trigger plus exactly 4 one-hop
        // deliveries — 4 links total, one per fan-out envelope.
        assert_eq!(m.hop_histogram.count(), 5);
        assert_eq!(m.hop_histogram.sum(), 4);
        assert_eq!(m.hop_histogram.max(), Some(1));
    }

    #[test]
    fn self_send_is_a_zero_hop_local_delivery_under_every_model() {
        // A node's message to itself traverses zero mesh links; it must
        // be delivered the next step with zero recorded hops under all
        // three delivery models (under Routed it must not detour
        // through the transit queue and pick up phantom latency).
        struct SelfPing;
        impl NodeProgram for SelfPing {
            type Msg = u8;
            type State = Option<u64>;
            fn init(&self, _n: NodeId, _c: &InitCtx) -> Option<u64> {
                None
            }
            fn on_message(&self, got: &mut Option<u64>, msg: u8, ctx: &mut Outbox<'_, u8>) {
                if msg == 1 {
                    ctx.send(ctx.node(), 2);
                } else {
                    *got = Some(ctx.step());
                }
            }
        }
        for delivery in [
            DeliveryModel::AdjacentOnly,
            DeliveryModel::Routed,
            DeliveryModel::Direct,
        ] {
            let mut sim = Simulation::new(
                Torus::new_2d(4, 4),
                SelfPing,
                SimConfig {
                    delivery,
                    ..SimConfig::default()
                },
            );
            sim.inject(5, 1);
            let report = sim.run_to_quiescence().unwrap();
            // Trigger handled at step 1; loopback delivered at step 2.
            assert_eq!(*sim.state(5), Some(2), "{delivery:?}");
            assert_eq!(report.steps, 2, "{delivery:?}");
            assert_eq!(sim.metrics().hop_histogram.max(), Some(0), "{delivery:?}");
        }
    }

    #[test]
    fn routed_delivery_takes_distance_steps() {
        struct Echo;
        impl NodeProgram for Echo {
            type Msg = u8;
            type State = Option<u64>;
            fn init(&self, _n: NodeId, _c: &InitCtx) -> Option<u64> {
                None
            }
            fn on_message(&self, got: &mut Option<u64>, msg: u8, ctx: &mut Outbox<'_, u8>) {
                if msg == 1 && ctx.node() == 0 {
                    ctx.send(9, 2); // distance 3 on a ring of 10? no: ring-10 dist(0,9)=1
                    ctx.send(5, 3); // distance 5
                } else {
                    *got = Some(ctx.step());
                }
            }
        }
        let mut sim = Simulation::new(
            Ring::new(10),
            Echo,
            SimConfig {
                delivery: DeliveryModel::Routed,
                ..SimConfig::default()
            },
        );
        sim.inject(0, 1);
        sim.run_to_quiescence().unwrap();
        // Trigger handled at step 1. Adjacent send (0->9) delivered step 2.
        assert_eq!(*sim.state(9), Some(2));
        // Distance-5 send: 5 transit phases then handled: step 1+5 = 6.
        assert_eq!(*sim.state(5), Some(6));
        // Hop histogram saw a 5-hop delivery.
        assert_eq!(sim.metrics().hop_histogram.max(), Some(5));
    }

    #[test]
    fn halt_stops_the_run_with_messages_pending() {
        struct HaltAfter;
        impl NodeProgram for HaltAfter {
            type Msg = u32;
            type State = ();
            fn init(&self, _n: NodeId, _c: &InitCtx) {}
            fn on_message(&self, _s: &mut (), msg: u32, ctx: &mut Outbox<'_, u32>) {
                if msg > 0 {
                    ctx.broadcast(msg - 1);
                }
                if msg == 5 {
                    ctx.halt();
                }
            }
        }
        let mut sim = Simulation::new(Torus::new_2d(4, 4), HaltAfter, SimConfig::default());
        sim.inject(0, 5);
        let report = sim.run_to_quiescence().unwrap();
        assert_eq!(report.outcome, RunOutcome::Halted);
        assert_eq!(report.steps, 1);
        assert!(sim.queued() > 0);
    }

    #[test]
    fn queue_capacity_overflow_error() {
        struct Flood;
        impl NodeProgram for Flood {
            type Msg = ();
            type State = ();
            fn init(&self, _n: NodeId, _c: &InitCtx) {}
            fn on_message(&self, _s: &mut (), _m: (), ctx: &mut Outbox<'_, ()>) {
                for _ in 0..8 {
                    ctx.send_port(0, ());
                }
            }
        }
        let mut sim = Simulation::new(
            Ring::new(4),
            Flood,
            SimConfig {
                queue_capacity: Some(4),
                ..SimConfig::default()
            },
        );
        sim.inject(0, ());
        let err = sim.run_to_quiescence().unwrap_err();
        match err {
            SimError::QueueOverflow { len, .. } => assert!(len > 4),
            other => panic!("expected QueueOverflow, got {other:?}"),
        }
    }

    #[test]
    fn tick_hook_fires_on_schedule() {
        struct Ticker;
        impl NodeProgram for Ticker {
            type Msg = ();
            type State = u32;
            fn init(&self, _n: NodeId, _c: &InitCtx) -> u32 {
                0
            }
            fn on_message(&self, _s: &mut u32, _m: (), _ctx: &mut Outbox<'_, ()>) {}
            fn on_tick(&self, ticks: &mut u32, _ctx: &mut Outbox<'_, ()>) {
                *ticks += 1;
            }
        }
        let mut sim = Simulation::new(
            Ring::new(3),
            Ticker,
            SimConfig {
                tick_every: Some(2),
                ..SimConfig::default()
            },
        );
        for _ in 0..6 {
            sim.step().unwrap();
        }
        assert_eq!(*sim.state(0), 3); // steps 2, 4, 6
    }

    #[test]
    fn queue_series_tracks_totals() {
        let mut sim = Simulation::new(Torus::new_2d(4, 4), Traverse, SimConfig::default());
        sim.inject(0, ());
        sim.run_to_quiescence().unwrap();
        let series = sim.metrics().queued_series.as_slice();
        // Ends at zero (quiescent) and peaked somewhere in the middle.
        assert_eq!(*series.last().unwrap(), 0);
        assert!(sim.metrics().peak_queued() >= 4);
        // Conservation: sent + injected == delivered at quiescence.
        assert_eq!(sim.metrics().total_sent + 1, sim.metrics().total_delivered);
    }

    #[test]
    fn completed_run_beats_a_tripped_stop_handle() {
        // Drain a flood-fill to quiescence, then re-enter the loop with
        // the stop handle tripped: the finished run must still report
        // Quiescent, not Stopped — completion has precedence.
        let stop = crate::StopHandle::new();
        let mut sim = Simulation::new(
            Torus::new_2d(4, 4),
            Traverse,
            SimConfig {
                stop: Some(stop.clone()),
                ..SimConfig::default()
            },
        );
        sim.inject(0, ());
        sim.run_to_quiescence().unwrap();
        stop.stop();
        let report = sim.run_to_quiescence().unwrap();
        assert_eq!(report.outcome, RunOutcome::Quiescent);
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        // Reference: an uninterrupted flood-fill. Then, for several cut
        // points, run to the cut, snapshot, round-trip the bytes,
        // restore, and finish: everything must match the reference.
        let cfg = SimConfig {
            record_trace: true,
            ..SimConfig::default()
        };
        let mut reference = Simulation::new(Torus::new_2d(6, 6), Traverse, cfg.clone());
        reference.inject(7, ());
        let ref_report = reference.run_to_quiescence().unwrap();
        for cut in [0u64, 1, 2, 5, ref_report.steps] {
            let mut sim = Simulation::new(Torus::new_2d(6, 6), Traverse, cfg.clone());
            sim.inject(7, ());
            sim.set_max_steps(cut);
            sim.run_to_quiescence().unwrap();
            let ckpt = sim.snapshot();
            assert_eq!(ckpt.step(), cut.min(ref_report.steps));
            let bytes = ckpt.to_bytes();
            let ckpt = SimCheckpoint::from_bytes(&bytes).expect("bytes round-trip");
            let mut resumed =
                Simulation::restore(Torus::new_2d(6, 6), Traverse, cfg.clone(), &ckpt)
                    .expect("restores");
            let report = resumed.run_to_quiescence().unwrap();
            assert_eq!(report.outcome, ref_report.outcome, "cut={cut}");
            assert_eq!(report.steps, ref_report.steps, "cut={cut}");
            assert_eq!(
                report.computation_time, ref_report.computation_time,
                "cut={cut}"
            );
            assert_eq!(resumed.states(), reference.states(), "cut={cut}");
            assert_eq!(resumed.trace(), reference.trace(), "cut={cut}");
            assert_eq!(resumed.queued(), reference.queued(), "cut={cut}");
            let m = resumed.metrics();
            let rm = reference.metrics();
            assert_eq!(m.delivered_per_node, rm.delivered_per_node, "cut={cut}");
            assert_eq!(m.sent_per_node, rm.sent_per_node, "cut={cut}");
            assert_eq!(m.hop_histogram, rm.hop_histogram, "cut={cut}");
            assert_eq!(
                m.queued_series.as_slice(),
                rm.queued_series.as_slice(),
                "cut={cut}"
            );
            assert_eq!(m.total_sent, rm.total_sent, "cut={cut}");
            assert_eq!(m.first_delivery_step, rm.first_delivery_step, "cut={cut}");
            assert_eq!(m.last_delivery_step, rm.last_delivery_step, "cut={cut}");
        }
    }

    #[test]
    fn snapshot_captures_routed_transit_mid_flight() {
        // A distance-5 send is cut while in transit: the restored run
        // must deliver it at the same step with the same hop count.
        struct Echo;
        impl NodeProgram for Echo {
            type Msg = u8;
            type State = Option<u64>;
            fn init(&self, _n: NodeId, _c: &InitCtx) -> Option<u64> {
                None
            }
            fn on_message(&self, got: &mut Option<u64>, msg: u8, ctx: &mut Outbox<'_, u8>) {
                if msg == 1 && ctx.node() == 0 {
                    ctx.send(5, 3);
                } else {
                    *got = Some(ctx.step());
                }
            }
        }
        let cfg = SimConfig {
            delivery: DeliveryModel::Routed,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(Ring::new(10), Echo, cfg.clone());
        sim.inject(0, 1);
        sim.set_max_steps(3); // the send is 2 hops into its 5-hop route
        sim.run_to_quiescence().unwrap();
        let ckpt = sim.snapshot();
        let mut resumed = Simulation::restore(Ring::new(10), Echo, cfg, &ckpt).expect("restores");
        resumed.run_to_quiescence().unwrap();
        assert_eq!(*resumed.state(5), Some(6));
        assert_eq!(resumed.metrics().hop_histogram.max(), Some(5));
    }

    #[test]
    fn restore_rejects_wrong_machine_sizes_and_corrupt_bytes() {
        let mut sim = Simulation::new(Torus::new_2d(4, 4), Traverse, SimConfig::default());
        sim.inject(0, ());
        sim.set_max_steps(2);
        sim.run_to_quiescence().unwrap();
        let ckpt = sim.snapshot();
        // Wrong topology size.
        assert!(
            Simulation::restore(Torus::new_2d(6, 6), Traverse, SimConfig::default(), &ckpt)
                .is_err()
        );
        // Truncated payloads fail cleanly.
        let bytes = ckpt.to_bytes();
        for cut in (0..bytes.len()).step_by(7) {
            assert!(SimCheckpoint::from_bytes(&bytes[..cut]).is_err(), "{cut}");
        }
    }

    #[test]
    fn floods_match_the_reference_interpreter() {
        // A wide 128-node frontier and a small mesh: the active set and
        // the single-shard fast path must be unobservable.
        assert_matches_reference(
            Torus::new_3d(8, 4, 4),
            Traverse,
            SimConfig::default(),
            &[(17, ())],
        );
        assert_matches_reference(
            Torus::new_2d(6, 6),
            Traverse,
            SimConfig::default(),
            &[(7, ())],
        );
    }

    #[test]
    fn zero_msgs_per_step_is_clamped_to_one() {
        // A zero budget would make every step a no-op and the run an
        // infinite spin; the engine clamps it to 1 at construction.
        let run = |msgs_per_step| {
            let mut sim = Simulation::new(
                Torus::new_2d(4, 4),
                Traverse,
                SimConfig {
                    msgs_per_step,
                    ..SimConfig::default()
                },
            );
            sim.inject(0, ());
            let report = sim.run_to_quiescence().unwrap();
            (report.steps, sim.metrics().total_delivered)
        };
        assert_eq!(run(0), run(1));
    }

    #[test]
    fn routed_arrivals_respect_queue_capacity() {
        // Non-adjacent senders flood node 0 purely through the transit
        // queue, so every delivery lands on the phase-1 arrival path —
        // which must enforce `queue_capacity` exactly like the direct
        // staged-send path.
        struct FarFlood;
        impl NodeProgram for FarFlood {
            type Msg = ();
            type State = ();
            fn init(&self, _n: NodeId, _c: &InitCtx) {}
            fn on_message(&self, _s: &mut (), _m: (), ctx: &mut Outbox<'_, ()>) {
                if ctx.node() != 0 {
                    for _ in 0..4 {
                        ctx.send(0, ());
                    }
                }
            }
        }
        let mut sim = Simulation::new(
            Ring::new(12),
            FarFlood,
            SimConfig {
                delivery: DeliveryModel::Routed,
                queue_capacity: Some(3),
                ..SimConfig::default()
            },
        );
        for node in [4, 5, 6, 7] {
            sim.inject(node, ());
        }
        let err = sim.run_to_quiescence().unwrap_err();
        match err {
            SimError::QueueOverflow { node, len, .. } => {
                assert_eq!(node, 0);
                assert!(len > 3);
            }
            other => panic!("expected QueueOverflow, got {other:?}"),
        }
    }

    #[test]
    fn tick_only_program_runs_ticks_with_empty_inboxes() {
        // No messages ever flow: under the active set every step is
        // "dead" except the tick cadence, which must still visit every
        // node, and the fast-forward must synthesise the skipped steps'
        // records exactly as the reference's step-by-step walk does.
        struct Busy;
        impl NodeProgram for Busy {
            type Msg = ();
            type State = u32;
            fn init(&self, _n: NodeId, _c: &InitCtx) -> u32 {
                0
            }
            fn on_message(&self, _s: &mut u32, _m: (), _ctx: &mut Outbox<'_, ()>) {}
            fn on_tick(&self, ticks: &mut u32, _ctx: &mut Outbox<'_, ()>) {
                *ticks += 1;
            }
            fn is_idle(&self, ticks: &u32) -> bool {
                *ticks >= 3
            }
        }
        let cfg = SimConfig {
            tick_every: Some(5),
            ..SimConfig::default()
        };
        let (report, states, _) = assert_matches_reference(Ring::new(5), Busy, cfg, &[]);
        assert_eq!(report.outcome, RunOutcome::Quiescent);
        assert_eq!(report.steps, 15); // ticks at 5, 10, 15 — then every node idle
        assert_eq!(states, vec![3; 5]);
    }

    #[test]
    fn idle_node_reactivates_on_late_routed_arrival() {
        // Node 5 handles a message at step 1 and drains out of the
        // active set; a distance-5 send launched the same step must
        // still wake it on arrival five steps later.
        struct Echo;
        impl NodeProgram for Echo {
            type Msg = u8;
            type State = Option<u64>;
            fn init(&self, _n: NodeId, _c: &InitCtx) -> Option<u64> {
                None
            }
            fn on_message(&self, got: &mut Option<u64>, msg: u8, ctx: &mut Outbox<'_, u8>) {
                if msg == 1 && ctx.node() == 0 {
                    ctx.send(5, 2);
                } else {
                    *got = Some(ctx.step());
                }
            }
        }
        let mut sim = Simulation::new(
            Ring::new(10),
            Echo,
            SimConfig {
                delivery: DeliveryModel::Routed,
                ..SimConfig::default()
            },
        );
        sim.inject(5, 0); // wakes node 5, which records and goes idle
        sim.inject(0, 1); // launches the far send the same step
        let report = sim.run_to_quiescence().unwrap();
        assert_eq!(report.outcome, RunOutcome::Quiescent);
        // Handled at step 1, then re-woken by the 5-hop arrival.
        assert_eq!(*sim.state(5), Some(6));
    }

    #[test]
    fn restore_mid_backlog_rebuilds_the_active_set() {
        // Cut while node 0 still holds a half-drained backlog: the
        // restored run (whose active set is rebuilt from inbox
        // occupancy, not checkpointed) must finish identically.
        struct CountDeliveries;
        impl NodeProgram for CountDeliveries {
            type Msg = ();
            type State = u32;
            fn init(&self, _n: NodeId, _c: &InitCtx) -> u32 {
                0
            }
            fn on_message(&self, count: &mut u32, _m: (), _ctx: &mut Outbox<'_, ()>) {
                *count += 1;
            }
        }
        let cfg = SimConfig {
            delivery: DeliveryModel::Direct,
            ..SimConfig::default()
        };
        let mut reference = Simulation::new(FullyConnected::new(9), CountDeliveries, cfg.clone());
        for _ in 0..6 {
            reference.inject(0, ());
        }
        let ref_report = reference.run_to_quiescence().unwrap();
        assert_eq!(ref_report.steps, 6); // one pop per step

        let mut sim = Simulation::new(FullyConnected::new(9), CountDeliveries, cfg.clone());
        for _ in 0..6 {
            sim.inject(0, ());
        }
        sim.set_max_steps(3);
        sim.run_to_quiescence().unwrap();
        let ckpt = sim.snapshot();
        let mut resumed = Simulation::restore(FullyConnected::new(9), CountDeliveries, cfg, &ckpt)
            .expect("restores");
        let report = resumed.run_to_quiescence().unwrap();
        assert_eq!(report.outcome, ref_report.outcome);
        assert_eq!(report.steps, ref_report.steps);
        assert_eq!(*resumed.state(0), 6);
        assert_eq!(
            resumed.metrics().queued_series.as_slice(),
            reference.metrics().queued_series.as_slice()
        );
    }
}
