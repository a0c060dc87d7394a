//! One handle on a running five-layer stack, and the slices it is driven
//! in.
//!
//! [`StackRun`] is the one way an assembled stack is driven: it owns the
//! machine, its root node and its step cap, advances to an absolute step
//! ([`StackRun::advance_to`]), reads the root result and the machine-wide
//! frontier, injects bus bounds at the root, and folds into its report
//! once ([`StackRun::finish`]). [`crate::StackBuilder::run`] drives one
//! from slice to slice; [`crate::StackBuilder::start`] hands it out as a
//! [`RunSlice`], the surface the service's scheduler drives; a portfolio
//! member is an epoch policy over one.
//!
//! A running stack's node states have no byte encoding yet: there is no
//! `Codec` for layer 4's `RecState`, layer 3's `MapState` or a mapper's
//! state, nor for the programs' `Arg`/`Out` types. (What a record saves
//! is plain data — every built-in program's frame is `()` or a small
//! struct; only an `FnProgram` continuation is a closure.) So a stack
//! cannot be serialised the way a raw [`hyperspace_sim`] program can —
//! instead it is *suspended in place*: the simulation object
//! survives between slices, each slice advancing it by one checkpoint
//! interval through the engine's epoch-stepping API (`set_max_steps` +
//! re-entrant `run_to_quiescence`). Because the engine is bit-exact
//! deterministic, a sliced run is indistinguishable from an
//! uninterrupted one — same report, metrics and trace, whatever the cut
//! points — which is the invariant the checkpoint equivalence suite
//! enforces, and what lets a service suspend a job between slices and
//! resume it arbitrarily later (or re-derive a lost job's state by
//! deterministic replay after a worker crash).

use hyperspace_recursion::{FrontierSnapshot, RecProgram};
use hyperspace_sim::{NodeId, ObsHandle, RunOutcome, SimError};

use crate::report::{RecRunReport, RunSummary};
use crate::stack::{fold, park, Shape, StackSim};

/// What one slice of driving did to a suspendable run.
pub enum SliceOutcome {
    /// The run reached a terminal outcome; here is its summary.
    Finished(RunSummary),
    /// The slice budget was exhausted with work remaining; the run is
    /// handed back, suspended at a step barrier.
    Yielded(Box<dyn RunSlice>),
}

/// A suspended solver run that advances one checkpoint interval at a
/// time. Between calls the run is inert and owned by the caller: park
/// it in a queue, hand it to another worker thread, resume it hours
/// later — determinism guarantees the eventual result is bit-identical
/// to an uninterrupted run.
pub trait RunSlice: Send {
    /// Advances by one checkpoint interval (or to termination).
    fn run_slice(self: Box<Self>) -> SliceOutcome;

    /// Simulated steps completed so far.
    fn steps_done(&self) -> u64;

    /// Serialised engine state at the current barrier, if this run's
    /// state can round-trip through bytes. Stack runs return `None`:
    /// their node states have no `Codec` yet (`RecState`, `MapState`,
    /// mapper state and the program's `Arg`/`Out` lack one), so a crashed
    /// process re-derives them by deterministic replay instead. Slices whose
    /// state does serialise may override this to let a durable store
    /// skip the replay.
    fn checkpoint_bytes(&self) -> Option<Vec<u8>> {
        None
    }
}

/// An assembled five-layer stack with its root problem injected, driven
/// in bounded chunks ([`crate::StackBuilder::into_run`]). Between calls
/// it rests at a step barrier, where its root result and frontier can be
/// read and bounds injected. Finished or dropped, it parks its machine
/// for the next run of its shape on the same thread.
pub struct StackRun<P: RecProgram> {
    /// The machine; `None` once [`StackRun::finish`] has parked it.
    pub(crate) sim: Option<StackSim<P>>,
    /// What the machine must match to serve another run.
    pub(crate) shape: Shape,
    pub(crate) root: NodeId,
    /// Steps per slice (`u64::MAX` = run to termination in one slice).
    pub(crate) interval: u64,
    /// The run's hard step cap.
    pub(crate) cap: u64,
    /// Passive telemetry sink; slice barriers report the live frontier
    /// to it. The engine inside `sim` holds its own copy for per-step
    /// reporting.
    pub(crate) obs: ObsHandle,
    /// The outcome of the last advance ([`RunOutcome::MaxSteps`] before
    /// the first) — the one [`StackRun::finish`] reports.
    pub(crate) outcome: RunOutcome,
}

impl<P: RecProgram> StackRun<P> {
    fn sim(&self) -> &StackSim<P> {
        self.sim
            .as_ref()
            .expect("a run holds its machine until it ends")
    }

    fn sim_mut(&mut self) -> &mut StackSim<P> {
        self.sim
            .as_mut()
            .expect("a run holds its machine until it ends")
    }

    /// Simulated steps completed so far.
    pub fn steps(&self) -> u64 {
        self.sim().current_step()
    }

    /// Drives the run to the absolute step `step`, clamped to the run's
    /// step cap. `None` means the run is still open at that barrier;
    /// `Some` is its terminal outcome — [`RunOutcome::MaxSteps`] only
    /// once the cap itself is reached. This is the one place layer-1
    /// failures become stack failures, whatever the backend: a handler
    /// panic is re-raised as `handler of node N panicked at step S:
    /// <original message>`, and a queue overflow cannot happen (stack
    /// runs use unbounded queues).
    pub fn advance_to(&mut self, step: u64) -> Option<RunOutcome> {
        let cap = step.min(self.cap);
        let sim = self.sim_mut();
        sim.set_max_steps(cap);
        self.outcome = match sim.run_to_quiescence() {
            Ok(report) => report.outcome,
            Err(err @ SimError::HandlerPanic { .. }) => panic!("{err}"),
            Err(err) => panic!("stack runs use unbounded queues: {err}"),
        };
        (self.outcome != RunOutcome::MaxSteps || self.steps() >= self.cap).then_some(self.outcome)
    }

    /// Advances by one checkpoint interval.
    pub(crate) fn advance_slice(&mut self) -> Option<RunOutcome> {
        self.advance_to(self.steps().saturating_add(self.interval))
    }

    /// The root call's result, once it has arrived.
    pub fn root_result(&self) -> Option<&P::Out> {
        self.sim().state(self.root).root_result()
    }

    /// The machine-wide recursion/B&B frontier at the current barrier:
    /// every node's [`FrontierSnapshot`] folded by
    /// [`FrontierSnapshot::absorb`], so its `incumbent` is the best any
    /// node holds.
    pub fn frontier(&self) -> FrontierSnapshot {
        let mut frontier = FrontierSnapshot::default();
        let sim = self.sim();
        for node in 0..sim.topology().num_nodes() as NodeId {
            let st = &sim.state(node).app;
            frontier.absorb(&st.frontier(), st.objective());
        }
        frontier
    }

    /// Injects an incumbent bound at the root; it floods the mesh through
    /// the ordinary bound-gossip channel.
    pub fn inject_bound(&mut self, value: i64) {
        let root = self.root;
        self.sim_mut()
            .inject(root, hyperspace_mapping::bound(value));
    }

    /// Folds the run into its report under the last advance's outcome,
    /// reading the machine in place, then parks the machine: the next
    /// run of the same shape on this thread reuses it.
    pub fn finish(mut self) -> RecRunReport<P::Out> {
        let mut sim = self.sim.take().expect("a run finishes once");
        let report = fold(&mut sim, self.outcome, self.root);
        park(self.shape.clone(), sim);
        report
    }

    /// Reports the live frontier to the observer. Folding the frontier
    /// walks every node, so this is gated on an attached observer —
    /// un-observed runs pay nothing at slice barriers.
    fn report_progress(&self) {
        if self.obs.enabled() {
            let frontier = self.frontier();
            self.obs
                .on_progress(self.steps(), frontier.open_records, frontier.incumbent);
        }
    }
}

impl<P: RecProgram> Drop for StackRun<P> {
    /// An unfinished run parks its machine too — its queued envelopes
    /// and suspended activations dropped — unless it is being dropped by
    /// a panic, which leaves the machine to unwind with it.
    fn drop(&mut self) {
        if let Some(sim) = self.sim.take() {
            if !std::thread::panicking() {
                park(self.shape.clone(), sim);
            }
        }
    }
}

impl<P: RecProgram> RunSlice for StackRun<P>
where
    P::Out: std::fmt::Debug,
{
    fn run_slice(mut self: Box<Self>) -> SliceOutcome {
        let finished = self.advance_slice().is_some();
        self.report_progress();
        if finished {
            SliceOutcome::Finished(self.finish().summary())
        } else {
            SliceOutcome::Yielded(self)
        }
    }

    fn steps_done(&self) -> u64 {
        self.steps()
    }
}
