//! Suspendable stack execution: drive a solve in bounded step slices.
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
use hyperspace_sim::{NodeId, ObsHandle, RunOutcome};

use crate::report::RunSummary;
use crate::stack::{drive, summarise, StackSim};

/// Observable checkpoint metadata of a suspended run: how far it got
/// and what its layer-4 frontier looks like. This is what a scheduler
/// logs or exposes — the full state stays in the suspended simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Simulated steps completed so far.
    pub steps: u64,
    /// The machine-wide recursion/B&B frontier, folded over all nodes.
    pub frontier: FrontierSnapshot,
}

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

    /// Checkpoint metadata at the current step barrier.
    fn checkpoint(&self) -> CheckpointMeta;

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

/// A five-layer stack run sliced at checkpoint intervals.
pub(crate) struct StackSlice<P: RecProgram> {
    pub(crate) sim: StackSim<P>,
    pub(crate) root: NodeId,
    /// Steps per slice (`u64::MAX` = run to termination in one slice).
    pub(crate) interval: u64,
    /// The run's hard step cap.
    pub(crate) cap: u64,
    /// Passive telemetry sink; slice barriers report the live frontier
    /// to it. The engine inside `sim` holds its own copy for per-step
    /// reporting.
    pub(crate) obs: ObsHandle,
}

impl<P: RecProgram> StackSlice<P> {
    /// Steps the underlying engine has executed.
    pub(crate) fn current_step(&self) -> u64 {
        self.sim.current_step()
    }

    /// Advances by one checkpoint interval; `None` means the slice
    /// budget ran out with the run still open (suspended, resumable).
    fn advance(&mut self) -> Option<RunOutcome> {
        let target = self
            .current_step()
            .saturating_add(self.interval)
            .min(self.cap);
        let outcome = drive(&mut self.sim, target);
        if outcome == RunOutcome::MaxSteps && self.current_step() < self.cap {
            None
        } else {
            Some(outcome)
        }
    }

    /// Drives slice after slice to a terminal outcome, crossing the same
    /// barriers a suspended run would ([`crate::StackBuilder::run`]).
    pub(crate) fn run_to_terminal(&mut self) -> RunOutcome {
        loop {
            if let Some(outcome) = self.advance() {
                return outcome;
            }
        }
    }

    /// Checkpoint metadata at the current step barrier: steps plus the
    /// machine-wide frontier folded over all nodes.
    fn checkpoint_meta(&self) -> CheckpointMeta {
        let mut frontier = FrontierSnapshot::default();
        for node in 0..self.sim.topology().num_nodes() as NodeId {
            let st = self.sim.state(node);
            frontier.absorb(&st.app.frontier(), st.app.objective());
        }
        CheckpointMeta {
            steps: self.current_step(),
            frontier,
        }
    }

    /// Reports the live frontier to the observer. Folding the frontier
    /// walks every node, so this is gated on an attached observer —
    /// un-observed runs pay nothing at slice barriers.
    fn report_progress(&self) {
        if self.obs.enabled() {
            let meta = self.checkpoint_meta();
            self.obs.on_progress(
                meta.steps,
                meta.frontier.open_records,
                meta.frontier.incumbent,
            );
        }
    }
}

impl<P: RecProgram> RunSlice for StackSlice<P>
where
    P::Out: std::fmt::Debug,
{
    fn run_slice(mut self: Box<Self>) -> SliceOutcome {
        let outcome = match self.advance() {
            None => {
                self.report_progress();
                return SliceOutcome::Yielded(self);
            }
            Some(outcome) => outcome,
        };
        self.report_progress();
        SliceOutcome::Finished(summarise(self.sim, outcome, self.root).summary())
    }

    fn steps_done(&self) -> u64 {
        self.current_step()
    }

    fn checkpoint(&self) -> CheckpointMeta {
        self.checkpoint_meta()
    }
}
