//! Run reports aggregating measurements from every layer.

use hyperspace_recursion::RecStats;
use hyperspace_sim::record::SimMetrics;
use hyperspace_sim::{NodeId, RunOutcome};

/// One improvement of some node's incumbent during a branch-and-bound
/// run, in the report's merged (step, value, node) order. The merged
/// trace is deterministic and bit-identical across execution backends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IncumbentEvent {
    /// Simulation step at which the node observed the improvement.
    pub step: u64,
    /// The node's incumbent value after the update.
    pub value: i64,
    /// The node that improved.
    pub node: NodeId,
}

/// Everything measured in one stack run (§V-C's three quantities plus
/// layer-level counters).
#[derive(Clone, Debug)]
pub struct RecRunReport<Out> {
    /// The root call's result, if it arrived before the run ended.
    pub result: Option<Out>,
    /// Why the run ended.
    pub outcome: RunOutcome,
    /// Steps executed.
    pub steps: u64,
    /// §V-C computation time (trigger to last message — with root-halt
    /// enabled, trigger to root result).
    pub computation_time: u64,
    /// Layer-1 instrumentation: queue series, node activity, totals.
    pub metrics: SimMetrics,
    /// Layer-4 counters summed over all nodes.
    pub rec_totals: RecStats,
    /// Requests serviced, summed over all nodes.
    pub requests_total: u64,
    /// Replies delivered, summed over all nodes.
    pub replies_total: u64,
    /// Status broadcasts received, summed over all nodes.
    pub status_total: u64,
    /// Cancels received, summed over all nodes.
    pub cancels_total: u64,
    /// Incumbent-bound messages received, summed over all nodes
    /// (branch-and-bound mode; 0 otherwise).
    pub bounds_total: u64,
    /// The best incumbent held by any node when the run ended — the
    /// authoritative answer of a B&B run. For a completed run this
    /// equals the optimum (including a warm start, which `result`
    /// deliberately excludes: subtrees that merely *tie* the warm
    /// start are pruned); for a stopped or step-capped run it is the
    /// best feasible solution found so far.
    pub best_incumbent: Option<i64>,
    /// Every incumbent improvement observed by any node, merged in
    /// (step, value, node) order (empty outside B&B mode).
    pub incumbent_trace: Vec<IncumbentEvent>,
}

impl<Out> RecRunReport<Out> {
    /// The paper's Figure 4 y-axis: `1 / computation_time`.
    pub fn performance(&self) -> f64 {
        if self.computation_time == 0 {
            0.0
        } else {
            1.0 / self.computation_time as f64
        }
    }

    /// Requests answered by the prune predicate without expansion.
    pub fn nodes_pruned(&self) -> u64 {
        self.rec_totals.pruned
    }
}

impl<Out: std::fmt::Debug> RecRunReport<Out> {
    /// Collapses this report into a type-erased [`RunSummary`].
    pub fn summary(&self) -> RunSummary {
        RunSummary {
            result: self.result.as_ref().map(|r| format!("{r:?}")),
            outcome: self.outcome,
            steps: self.steps,
            computation_time: self.computation_time,
            total_sent: self.metrics.total_sent,
            total_delivered: self.metrics.total_delivered,
            activations_started: self.rec_totals.started,
            activations_completed: self.rec_totals.completed,
            nodes_pruned: self.rec_totals.pruned,
            best_incumbent: self.best_incumbent,
        }
    }
}

/// A type-erased summary of one stack run: what a multi-tenant service
/// stores, caches and hands back for jobs of arbitrary program types.
///
/// The root result is rendered via `Debug` (programs choose their `Out`
/// types; the service cannot know them), and only scalar counters are
/// kept — full [`RecRunReport`]s carry per-node series that are too big
/// to cache per job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunSummary {
    /// `Debug` rendering of the root result, if one arrived.
    pub result: Option<String>,
    /// Why the run ended.
    pub outcome: RunOutcome,
    /// Steps executed.
    pub steps: u64,
    /// §V-C computation time.
    pub computation_time: u64,
    /// Total messages sent across the mesh.
    pub total_sent: u64,
    /// Total messages delivered across the mesh.
    pub total_delivered: u64,
    /// Layer-4 activations started.
    pub activations_started: u64,
    /// Layer-4 activations completed.
    pub activations_completed: u64,
    /// Subtrees answered by the prune predicate without expansion
    /// (branch-and-bound mode; 0 otherwise).
    pub nodes_pruned: u64,
    /// Best incumbent held anywhere when the run ended (B&B mode).
    pub best_incumbent: Option<i64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn performance_is_reciprocal_time() {
        let report = RecRunReport::<u32> {
            result: Some(1),
            outcome: RunOutcome::Halted,
            steps: 250,
            computation_time: 200,
            metrics: SimMetrics::default(),
            rec_totals: RecStats::default(),
            requests_total: 0,
            replies_total: 0,
            status_total: 0,
            cancels_total: 0,
            bounds_total: 0,
            best_incumbent: None,
            incumbent_trace: Vec::new(),
        };
        assert!((report.performance() - 0.005).abs() < 1e-12);
        let zero = RecRunReport::<u32> {
            computation_time: 0,
            ..report
        };
        assert_eq!(zero.performance(), 0.0);
    }

    #[test]
    fn summary_carries_the_pruning_counters() {
        let mut report = RecRunReport::<u32> {
            result: Some(1),
            outcome: RunOutcome::Halted,
            steps: 10,
            computation_time: 10,
            metrics: SimMetrics::default(),
            rec_totals: RecStats {
                started: 30,
                pruned: 10,
                ..RecStats::default()
            },
            requests_total: 40,
            replies_total: 40,
            status_total: 0,
            cancels_total: 0,
            bounds_total: 12,
            best_incumbent: Some(99),
            incumbent_trace: vec![IncumbentEvent {
                step: 3,
                value: 99,
                node: 0,
            }],
        };
        assert_eq!(report.nodes_pruned(), 10);
        assert_eq!(report.summary().nodes_pruned, 10);
        report.rec_totals.pruned = 0;
        let summary = report.summary();
        assert_eq!(summary.nodes_pruned, 0);
        assert_eq!(summary.best_incumbent, Some(99));
    }
}
