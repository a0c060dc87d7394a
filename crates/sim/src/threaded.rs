//! A genuinely concurrent layer-1 backend.
//!
//! §III-A1 lists several possible implementations of the message-passing
//! layer: bare-metal meshes, MPI clusters, or "a software event loop running
//! on a single processor" (the [`crate::Simulation`] engine). This module is
//! the *multi-threaded* point in that design space: nodes are sharded over
//! OS threads and exchange messages through `std::sync::mpsc` channels,
//! proving that programs written against [`NodeProgram`] run unchanged on a
//! real concurrent substrate.
//!
//! Timing semantics necessarily differ from the time-stepped simulator
//! (there is no global step counter), so this backend reports wall-clock
//! time and message totals rather than per-step series. Termination uses a
//! global in-flight message counter: it is incremented *before* each send
//! and decremented only *after* the receiving handler (including all of its
//! own sends) completes, so the counter reads zero only when the machine is
//! truly quiescent. Runs can also be interrupted cooperatively through a
//! [`StopHandle`] (deadline or cancellation), in which case the report's
//! `stopped` flag is set and per-node states reflect the partial run.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::control::StopHandle;
use crate::program::{InitCtx, NodeProgram};
use hyperspace_topology::{Csr, NodeId, Topology};

/// A message addressed to a node, as carried by the channel fabric.
struct Packet<M> {
    src: NodeId,
    dst: NodeId,
    payload: M,
}

/// Report of a threaded run.
#[derive(Clone, Debug)]
pub struct ThreadedReport {
    /// Wall-clock duration of the run (excluding setup).
    pub elapsed: Duration,
    /// Total messages delivered (triggers included).
    pub total_delivered: u64,
    /// Messages delivered to each node.
    pub delivered_per_node: Vec<u64>,
    /// Number of worker threads used.
    pub workers: usize,
    /// Whether the run was interrupted by its [`StopHandle`] rather than
    /// reaching quiescence or an application halt.
    pub stopped: bool,
}

/// Context handed to handlers running on the threaded backend.
///
/// Mirrors the subset of [`crate::Outbox`] that is meaningful without a
/// global clock.
pub struct ThreadedOutbox<'a, M> {
    node: NodeId,
    src: NodeId,
    neighbours: &'a [NodeId],
    num_nodes: usize,
    in_flight: &'a AtomicU64,
    senders: &'a [Sender<Packet<M>>],
    shard_of: &'a dyn Fn(NodeId) -> usize,
    halt: &'a AtomicBool,
}

impl<'a, M> ThreadedOutbox<'a, M> {
    /// The node executing the handler.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Sender of the message being handled.
    pub fn sender(&self) -> NodeId {
        self.src
    }

    /// Degree of this node.
    pub fn degree(&self) -> usize {
        self.neighbours.len()
    }

    /// Neighbour reached through `port`.
    pub fn neighbour(&self, port: usize) -> NodeId {
        self.neighbours[port]
    }

    /// Sends a message to an adjacent node (or to self).
    pub fn send(&mut self, dst: NodeId, msg: M) {
        assert!(
            dst == self.node || self.neighbours.contains(&dst),
            "adjacent-only delivery: {} -> {dst} is not a mesh link",
            self.node
        );
        // Increment before handing the packet to the fabric so the counter
        // can never transiently read zero while work remains.
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        let shard = (self.shard_of)(dst);
        self.senders[shard]
            .send(Packet {
                src: self.node,
                dst,
                payload: msg,
            })
            .expect("worker channel closed prematurely");
    }

    /// Sends through a local port.
    pub fn send_port(&mut self, port: usize, msg: M) {
        let dst = self.neighbours[port];
        self.send(dst, msg);
    }

    /// Sends to every neighbour.
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        for port in 0..self.neighbours.len() {
            self.send_port(port, msg.clone());
        }
    }

    /// Requests the whole machine to halt.
    pub fn halt(&mut self) {
        self.halt.store(true, Ordering::SeqCst);
    }
}

/// Programs runnable on the threaded backend.
///
/// Any [`NodeProgram`] whose handler only uses the facilities shared with
/// [`ThreadedOutbox`] can be adapted via [`run_threaded`]'s handler closure;
/// this trait is the native interface.
pub trait ThreadedProgram: Sync {
    /// Message payload.
    type Msg: Send;
    /// Per-node state.
    type State: Send;

    /// Initial state of `node`.
    fn init(&self, node: NodeId, ctx: &InitCtx) -> Self::State;

    /// Handles one message.
    fn on_message(
        &self,
        state: &mut Self::State,
        msg: Self::Msg,
        ctx: &mut ThreadedOutbox<'_, Self::Msg>,
    );
}

/// Every simulator program that satisfies the threaded bounds is
/// automatically a threaded program, with the caveat that handlers must not
/// rely on `Outbox`-only facilities (steps, routed sends).
impl<P> ThreadedProgram for SimAdapter<P>
where
    P: NodeProgram,
    P::Msg: Send,
{
    type Msg = P::Msg;
    type State = P::State;

    fn init(&self, node: NodeId, ctx: &InitCtx) -> Self::State {
        self.0.init(node, ctx)
    }

    fn on_message(
        &self,
        state: &mut Self::State,
        msg: Self::Msg,
        ctx: &mut ThreadedOutbox<'_, Self::Msg>,
    ) {
        // Re-enter through a simulator-style Outbox is not possible without
        // a step clock; instead programs adapt via `ThreadedProgram`
        // directly. The adapter exists for programs written against the
        // common broadcast/flood patterns.
        let mut staged: Vec<crate::envelope::Envelope<P::Msg>> = Vec::new();
        let mut halt = false;
        {
            let mut outbox = crate::program::Outbox {
                node: ctx.node,
                step: 0,
                src: ctx.src,
                hops: 1,
                neighbours: ctx.neighbours,
                topo_nodes: ctx.num_nodes,
                adjacent_only: true,
                staged: &mut staged,
                halt: &mut halt,
            };
            self.0.on_message(state, msg, &mut outbox);
        }
        for env in staged {
            ctx.send(env.dst, env.payload);
        }
        if halt {
            ctx.halt();
        }
    }
}

/// Adapter running an unmodified simulator [`NodeProgram`] on the threaded
/// backend — the demonstration that layer 1 is swappable (§III-B1).
pub struct SimAdapter<P>(pub P);

/// Runs `program` over `topo` on `workers` OS threads until quiescence.
///
/// `injections` seed the computation (the §IV-A trigger messages).
pub fn run_threaded<P: ThreadedProgram>(
    topo: &dyn Topology,
    program: &P,
    injections: Vec<(NodeId, P::Msg)>,
    workers: usize,
) -> (Vec<P::State>, ThreadedReport) {
    run_threaded_ctl(topo, program, injections, workers, None)
}

/// [`run_threaded`] with cooperative run control: the run additionally
/// ends (with `report.stopped == true`) as soon as `stop` trips — the
/// hook a deadline-bounded solver service needs.
pub fn run_threaded_ctl<P: ThreadedProgram>(
    topo: &dyn Topology,
    program: &P,
    injections: Vec<(NodeId, P::Msg)>,
    workers: usize,
    stop: Option<StopHandle>,
) -> (Vec<P::State>, ThreadedReport) {
    assert!(workers >= 1);
    let n = topo.num_nodes();
    let workers = workers.min(n);
    let csr = Csr::build(topo);

    // Node -> shard assignment: round-robin for load spreading.
    let shard_of = move |node: NodeId| (node as usize) % workers;

    type Fabric<M> = (Vec<Sender<Packet<M>>>, Vec<Receiver<Packet<M>>>);
    let (senders, receivers): Fabric<P::Msg> = (0..workers).map(|_| channel()).unzip();
    // std receivers are single-consumer: each is moved into its worker.
    let mut receivers: Vec<Option<Receiver<Packet<P::Msg>>>> =
        receivers.into_iter().map(Some).collect();

    let in_flight = AtomicU64::new(0);
    let halt = AtomicBool::new(false);
    let was_stopped = AtomicBool::new(false);
    let delivered = (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();

    // Per-shard states, initialised up front.
    let mut shard_states: Vec<Vec<(NodeId, P::State)>> = (0..workers).map(|_| Vec::new()).collect();
    for node in 0..n as NodeId {
        let ictx = InitCtx {
            node,
            num_nodes: n,
            neighbours: csr.neighbours(node),
        };
        shard_states[shard_of(node)].push((node, program.init(node, &ictx)));
    }

    // Seed triggers before any worker starts.
    for (node, msg) in injections {
        in_flight.fetch_add(1, Ordering::SeqCst);
        senders[shard_of(node)]
            .send(Packet {
                src: node,
                dst: node,
                payload: msg,
            })
            .expect("send to fresh channel");
    }

    let start = Instant::now();
    type ShardStates<S> = Arc<Mutex<Vec<Option<Vec<(NodeId, S)>>>>>;
    let states_arc: ShardStates<P::State> =
        Arc::new(Mutex::new((0..workers).map(|_| None).collect()));

    std::thread::scope(|scope| {
        for (wid, mut local) in shard_states.drain(..).enumerate() {
            let rx = receivers[wid].take().expect("receiver unclaimed");
            // std senders are not Sync: every worker owns its own clone of
            // the full fabric.
            let my_senders: Vec<Sender<Packet<P::Msg>>> = senders.to_vec();
            let in_flight = &in_flight;
            let halt = &halt;
            let was_stopped = &was_stopped;
            let delivered = &delivered;
            let csr = &csr;
            let stop = stop.clone();
            let states_arc = Arc::clone(&states_arc);
            let shard_of_ref: Box<dyn Fn(NodeId) -> usize + Send> = Box::new(shard_of);
            scope.spawn(move || {
                // Index into `local` by node id for O(1) dispatch.
                let mut index = std::collections::HashMap::with_capacity(local.len());
                for (i, (node, _)) in local.iter().enumerate() {
                    index.insert(*node, i);
                }
                loop {
                    if let Some(stop) = &stop {
                        if stop.should_stop() {
                            was_stopped.store(true, Ordering::SeqCst);
                            halt.store(true, Ordering::SeqCst);
                            break;
                        }
                    }
                    match rx.recv_timeout(Duration::from_micros(200)) {
                        Ok(pkt) => {
                            let slot = index[&pkt.dst];
                            let (node, state) = &mut local[slot];
                            delivered[pkt.dst as usize].fetch_add(1, Ordering::Relaxed);
                            let mut ctx = ThreadedOutbox {
                                node: *node,
                                src: pkt.src,
                                neighbours: csr.neighbours(*node),
                                num_nodes: n,
                                in_flight,
                                senders: &my_senders,
                                shard_of: &*shard_of_ref,
                                halt,
                            };
                            program.on_message(state, pkt.payload, &mut ctx);
                            // Decrement only after the handler (and its
                            // sends) completed.
                            in_flight.fetch_sub(1, Ordering::SeqCst);
                        }
                        Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                            if halt.load(Ordering::SeqCst) || in_flight.load(Ordering::SeqCst) == 0
                            {
                                break;
                            }
                        }
                    }
                }
                states_arc.lock().expect("no poisoned workers")[wid] = Some(local);
            });
        }
    });

    let elapsed = start.elapsed();
    let mut flat: Vec<Option<P::State>> = (0..n).map(|_| None).collect();
    let mut guard = states_arc.lock().expect("no poisoned workers");
    for shard in guard.iter_mut() {
        for (node, state) in shard.take().expect("worker finished") {
            flat[node as usize] = Some(state);
        }
    }
    let states: Vec<P::State> = flat
        .into_iter()
        .map(|s| s.expect("every node initialised"))
        .collect();
    let delivered_per_node: Vec<u64> = delivered
        .iter()
        .map(|c| c.load(Ordering::Relaxed))
        .collect();
    let total_delivered = delivered_per_node.iter().sum();
    (
        states,
        ThreadedReport {
            elapsed,
            total_delivered,
            delivered_per_node,
            workers,
            stopped: was_stopped.load(Ordering::SeqCst),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Outbox;
    use hyperspace_topology::{Hypercube, Torus};

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
    fn threaded_flood_fill_visits_all() {
        let topo = Torus::new_2d(8, 8);
        let (states, report) = run_threaded(&topo, &SimAdapter(Traverse), vec![(0, ())], 4);
        assert!(states.iter().all(|&v| v));
        assert_eq!(report.delivered_per_node.len(), 64);
        assert!(!report.stopped);
        // Trigger + 4 messages per visited node were all delivered.
        assert_eq!(report.total_delivered, 1 + 64 * 4);
    }

    #[test]
    fn threaded_matches_simulated_delivery_totals() {
        let topo = Hypercube::new(5);
        let (states_t, report_t) = run_threaded(&topo, &SimAdapter(Traverse), vec![(7, ())], 3);

        let mut sim =
            crate::Simulation::new(Hypercube::new(5), Traverse, crate::SimConfig::default());
        sim.inject(7, ());
        sim.run_to_quiescence().unwrap();
        assert_eq!(states_t, sim.states());
        assert_eq!(report_t.total_delivered, sim.metrics().total_delivered);
    }

    #[test]
    #[should_panic(expected = "adjacent-only delivery: 0 -> 5 is not a mesh link")]
    fn adjacency_assertion_names_the_missing_link() {
        let csr = Csr::build(&Torus::new_2d(4, 4));
        let (tx, rx) = channel::<Packet<()>>();
        let mut outbox = ThreadedOutbox {
            node: 0,
            src: 0,
            neighbours: csr.neighbours(0),
            num_nodes: csr.num_nodes(),
            in_flight: &AtomicU64::new(0),
            senders: &[tx],
            shard_of: &|_| 0,
            halt: &AtomicBool::new(false),
        };
        // Over a link, then over none.
        outbox.send(4, ());
        assert!(rx.try_recv().is_ok());
        outbox.send(5, ());
    }

    #[test]
    fn single_worker_works() {
        let topo = Torus::new_2d(4, 4);
        let (states, _) = run_threaded(&topo, &SimAdapter(Traverse), vec![(3, ())], 1);
        assert!(states.iter().all(|&v| v));
    }

    #[test]
    fn pre_tripped_stop_interrupts_the_run() {
        // An already-expired deadline: workers observe the trip before
        // processing and the run reports `stopped` without hanging.
        let stop = StopHandle::new();
        stop.stop();
        let topo = Torus::new_2d(8, 8);
        let (states, report) =
            run_threaded_ctl(&topo, &SimAdapter(Traverse), vec![(0, ())], 4, Some(stop));
        assert!(report.stopped);
        // The flood cannot have completed: node states exist but the
        // visited count is below the full mesh.
        assert!(states.iter().filter(|&&v| v).count() < 64);
    }
}
