//! The reference interpreter: layer 1's step semantics (paper §IV-A,
//! §V-A) written the naive way, as the oracle the step kernel is tested
//! and benchmarked against.
//!
//! One function, one machine-wide queue per concept, and **every node
//! is visited on every step** — no shards, no active set, no exchange,
//! no fast-forward over dead steps, no checkpoints. It shares the
//! kernel's data types and none of its code, so agreement between the
//! two — outcome or error value, steps, states, every metric, the full
//! trace — is evidence about the semantics, not about a shared bug.
//! Wall-clock concerns (`stop`, `obs`) are not semantics and are
//! ignored; a panicking handler simply panics.

use std::collections::VecDeque;

use hyperspace_topology::{Csr, NodeId, Topology};

use crate::engine::{DeliveryModel, RunOutcome, RunReport, SimConfig, SimError};
use crate::envelope::Envelope;
use crate::program::{InitCtx, NodeProgram, Outbox};
use crate::record::{SimMetrics, TraceEvent, TraceKind};

/// Everything observable about a finished reference run.
pub struct ReferenceRun<P: NodeProgram> {
    /// How the run ended.
    pub result: Result<RunReport, SimError>,
    /// Final node states, indexed by node id.
    pub states: Vec<P::State>,
    /// The run's measurements.
    pub metrics: SimMetrics,
    /// The event trace (empty unless `record_trace` is set).
    pub trace: Vec<TraceEvent>,
}

/// Runs `program` on `topo` from the given injected triggers until the
/// machine is quiescent, a handler halts it, the step cap is reached or
/// a bounded inbox overflows.
pub fn run<T: Topology, P: NodeProgram>(
    topo: &T,
    program: &P,
    cfg: &SimConfig,
    injections: impl IntoIterator<Item = (NodeId, P::Msg)>,
) -> ReferenceRun<P> {
    let n = topo.num_nodes();
    let csr = Csr::build(topo);
    let budget = cfg.msgs_per_step.max(1) as usize;
    let mut states: Vec<P::State> = (0..n as NodeId)
        .map(|node| {
            let ctx = InitCtx {
                node,
                num_nodes: n,
                neighbours: csr.neighbours(node),
            };
            program.init(node, &ctx)
        })
        .collect();
    let mut inboxes: Vec<VecDeque<Envelope<P::Msg>>> = (0..n).map(|_| VecDeque::new()).collect();
    // Routed messages in flight with their current position, in the
    // order they entered the network.
    let mut transit: Vec<(NodeId, Envelope<P::Msg>)> = Vec::new();
    let mut batches: Vec<Vec<Envelope<P::Msg>>> = (0..n).map(|_| Vec::new()).collect();
    let mut staged: Vec<Vec<Envelope<P::Msg>>> = (0..n).map(|_| Vec::new()).collect();
    let mut metrics = SimMetrics::new(n, cfg.record_node_activity);
    let mut trace = Vec::new();
    let mut queued = 0u64;
    for (node, payload) in injections {
        inboxes[node as usize].push_back(Envelope {
            src: node,
            dst: node,
            sent_step: 0,
            hops: 0,
            payload,
        });
        queued += 1;
    }

    let (mut step, mut halted) = (0u64, false);
    let outcome = loop {
        if halted {
            break Ok(RunOutcome::Halted);
        }
        let idle = || cfg.tick_every.is_none() || states.iter().all(|s| program.is_idle(s));
        if queued == 0 && idle() {
            break Ok(RunOutcome::Quiescent);
        }
        if step >= cfg.max_steps {
            break Ok(RunOutcome::MaxSteps);
        }
        step += 1;
        // The first inbox to exceed its bound, in delivery order.
        let mut overflow = None;
        let mut deliver = |inbox: &mut VecDeque<Envelope<P::Msg>>, msg: Envelope<P::Msg>| {
            let node = msg.dst;
            inbox.push_back(msg);
            if overflow.is_none() && cfg.queue_capacity.is_some_and(|cap| inbox.len() > cap) {
                let len = inbox.len();
                overflow = Some(SimError::QueueOverflow { node, step, len });
            }
        };

        // Transit: every routed message advances one link.
        for (at, mut msg) in std::mem::take(&mut transit) {
            let next = topo.next_hop(at, msg.dst);
            if next != at {
                msg.advance_hop();
            }
            if next == msg.dst {
                deliver(&mut inboxes[next as usize], msg);
            } else {
                transit.push((next, msg));
            }
        }

        // Pop: every node takes up to `budget` messages.
        let mut delivered = 0u64;
        for (node, (inbox, batch)) in inboxes.iter_mut().zip(&mut batches).enumerate() {
            for msg in inbox.drain(..budget.min(inbox.len())) {
                metrics.hop_histogram.record(msg.hops as u64);
                if cfg.record_trace {
                    trace.push(TraceEvent {
                        step,
                        kind: TraceKind::Deliver,
                        src: msg.src,
                        dst: msg.dst,
                        hops: msg.hops,
                    });
                }
                batch.push(msg);
            }
            delivered += batch.len() as u64;
            if cfg.record_node_activity {
                metrics.delivered_per_node[node] += batch.len() as u64;
            }
        }
        queued -= delivered;
        if delivered > 0 {
            metrics.first_delivery_step.get_or_insert(step);
            metrics.last_delivery_step = Some(step);
            metrics.total_delivered += delivered;
        }

        // Handlers: `receive` per popped message, then the tick hook.
        let tick = matches!(cfg.tick_every, Some(k) if k > 0 && step.is_multiple_of(k));
        for node in 0..n {
            let mut outbox = Outbox {
                node: node as NodeId,
                step,
                src: node as NodeId,
                hops: 0,
                neighbours: csr.neighbours(node as NodeId),
                topo_nodes: n,
                adjacent_only: cfg.delivery == DeliveryModel::AdjacentOnly,
                base: 0,
                staged: &mut staged[node],
                halt: &mut halted,
            };
            for msg in batches[node].drain(..) {
                (outbox.src, outbox.hops) = (msg.src, msg.hops);
                outbox.base = outbox.staged.len();
                program.on_message(&mut states[node], msg.payload, &mut outbox);
            }
            if tick {
                (outbox.src, outbox.hops) = (node as NodeId, 0);
                outbox.base = outbox.staged.len();
                program.on_tick(&mut states[node], &mut outbox);
            }
        }

        // Sends: in (sender, emission) order, visible next step. Only a
        // routed send beyond a mesh link enters the network.
        for (node, sends) in staged.iter_mut().enumerate() {
            for mut msg in sends.drain(..) {
                if cfg.record_trace {
                    trace.push(TraceEvent {
                        step,
                        kind: TraceKind::Send,
                        src: msg.src,
                        dst: msg.dst,
                        hops: 0,
                    });
                }
                if cfg.record_node_activity {
                    metrics.sent_per_node[node] += 1;
                }
                metrics.total_sent += 1;
                queued += 1;
                if cfg.delivery == DeliveryModel::Routed
                    && msg.src != msg.dst
                    && !csr.neighbours(msg.src).contains(&msg.dst)
                {
                    transit.push((msg.src, msg));
                } else {
                    msg.complete_direct();
                    deliver(&mut inboxes[msg.dst as usize], msg);
                }
            }
        }
        if let Some(err) = overflow {
            break Err(err);
        }
        if cfg.record_queue_series {
            metrics.queued_series.push(queued);
            metrics.delivered_series.push(delivered);
        }
    };
    let result = outcome.map(|outcome| RunReport {
        outcome,
        steps: step,
        computation_time: metrics.computation_time(),
    });
    ReferenceRun {
        result,
        states,
        metrics,
        trace,
    }
}
