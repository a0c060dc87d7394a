//! Exact 0/1 knapsack by branch and bound with a *shared* incumbent.
//!
//! [`crate::KnapsackProgram`] carries its prune bound inside each task,
//! so a branch only knows about solutions found on its own path. This
//! program instead leaves bounding entirely to the stack's optimisation
//! mode (`ObjectiveSpec::Maximise` + `PruneSpec::Incumbent`): every
//! completed subtree value becomes an incumbent candidate, incumbents
//! gossip through the mesh as ordinary `Bound` envelopes, and layer 4
//! evaluates the fractional-relaxation upper bound against the *global*
//! incumbent before expanding any frame. Cross-checked against the
//! [`crate::knapsack_reference`] DP oracle by the conformance suite.

use hyperspace_recursion::{Calls, Join, RecProgram, Resumed, Spawn, Step};

use crate::knapsack::{fractional_bound, Item};

/// A branch-and-bound node: items decided up to `next`, remaining
/// capacity and accumulated value. Unlike [`crate::KnapsackTask`] it
/// carries no path-local incumbent — the shared incumbent lives in the
/// host.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BnbKnapsackTask {
    /// The full item list (travels with the task; messages are
    /// self-contained). Pre-sort by density for a tight bound.
    pub items: Vec<Item>,
    /// Index of the next undecided item.
    pub next: usize,
    /// Remaining capacity.
    pub capacity: u32,
    /// Value accumulated by taken items.
    pub value: u32,
}

impl BnbKnapsackTask {
    /// Root task over `items` with total `capacity`.
    pub fn root(items: Vec<Item>, capacity: u32) -> BnbKnapsackTask {
        BnbKnapsackTask {
            items,
            next: 0,
            capacity,
            value: 0,
        }
    }

    /// Fractional (LP-relaxation) upper bound on the achievable value.
    pub fn upper_bound(&self) -> u32 {
        fractional_bound(&self.items, self.next, self.capacity, self.value)
    }
}

/// Max-value 0/1 knapsack by distributed branch and bound with
/// incumbent propagation (run with `ObjectiveSpec::Maximise`).
#[derive(Clone, Copy)]
pub struct BnbKnapsackProgram;

impl RecProgram for BnbKnapsackProgram {
    type Arg = BnbKnapsackTask;
    type Out = u64;
    type Frame = ();

    fn start(&self, task: BnbKnapsackTask) -> Step<Self> {
        if task.next >= task.items.len() {
            return Step::Done(task.value as u64);
        }
        let item = task.items[task.next];
        let mut calls = Calls::new();
        if item.weight <= task.capacity {
            let mut take = task.clone();
            take.next += 1;
            take.capacity -= item.weight;
            take.value += item.value;
            calls.push(take);
        }
        let mut skip = task;
        skip.next += 1;
        calls.push(skip);
        Step::Spawn(Spawn {
            calls,
            join: Join::All,
            frame: (),
        })
    }

    fn resume(&self, _frame: (), results: Resumed<u64>) -> Step<Self> {
        Step::Done(results.into_all().into_iter().max().unwrap_or(0))
    }

    /// §III-B3 hint: undecided items approximate remaining sub-tree
    /// depth.
    fn weight(&self, arg: &BnbKnapsackTask) -> u32 {
        (arg.items.len() - arg.next) as u32
    }

    /// Every completed subtree value is achievable (leaves return the
    /// value of a concrete item selection; joins fold `max`), so it is
    /// a sound incumbent candidate.
    fn solution_value(&self, out: &u64) -> Option<i64> {
        Some(*out as i64)
    }

    /// Fractional-relaxation upper bound: the best this subtree could
    /// possibly achieve.
    fn bound(&self, arg: &BnbKnapsackTask) -> Option<i64> {
        Some(arg.upper_bound() as i64)
    }

    /// A pruned subtree answers with the value already accumulated on
    /// its path — achievable (take the chosen items, skip the rest) and
    /// no better than anything the subtree could have produced.
    fn pruned(&self, arg: &BnbKnapsackTask) -> Option<u64> {
        Some(arg.value as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knapsack::{knapsack_reference, seeded_items};
    use hyperspace_core::{MapperSpec, ObjectiveSpec, PruneSpec, StackBuilder, TopologySpec};
    use hyperspace_recursion::eval_local;

    fn items_from_seed(seed: u64, n: usize) -> Vec<Item> {
        seeded_items(seed, n, 16, 24)
    }

    #[test]
    fn unpruned_local_evaluation_matches_dp() {
        for seed in 0..6u64 {
            let items = items_from_seed(seed, 10);
            let cap: u32 = items.iter().map(|i| i.weight).sum::<u32>() / 2;
            let expect = knapsack_reference(&items, cap);
            let got = eval_local(&BnbKnapsackProgram, BnbKnapsackTask::root(items, cap));
            assert_eq!(got, expect, "seed {seed}");
        }
    }

    #[test]
    fn distributed_bnb_matches_dp_and_prunes() {
        let items = items_from_seed(3, 12);
        let cap: u32 = items.iter().map(|i| i.weight).sum::<u32>() / 2;
        let expect = knapsack_reference(&items, cap);
        let report = StackBuilder::new(BnbKnapsackProgram)
            .topology(TopologySpec::Torus2D { w: 4, h: 4 })
            .mapper(MapperSpec::LeastBusy {
                status_period: None,
            })
            .objective(ObjectiveSpec::Maximise)
            .prune(PruneSpec::incumbent())
            .halt_on_root_reply(false)
            .run(BnbKnapsackTask::root(items, cap), 0);
        assert_eq!(report.result, Some(expect));
        assert_eq!(report.best_incumbent, Some(expect as i64));
        assert!(report.nodes_pruned() > 0, "bound should cut something");
        assert!(report.bounds_total > 0, "incumbents should gossip");
        assert!(!report.incumbent_trace.is_empty());
        // The trace ends at the optimum and improves monotonically in
        // observation order per node (globally: last event is best).
        assert_eq!(
            report.incumbent_trace.last().map(|e| e.value),
            Some(expect as i64)
        );
    }

    #[test]
    fn warm_start_prunes_more_than_cold_start() {
        let items = items_from_seed(5, 12);
        let cap: u32 = items.iter().map(|i| i.weight).sum::<u32>() / 2;
        let expect = knapsack_reference(&items, cap);
        let run = |prune: PruneSpec| {
            StackBuilder::new(BnbKnapsackProgram)
                .topology(TopologySpec::Torus2D { w: 4, h: 4 })
                .mapper(MapperSpec::RoundRobin)
                .objective(ObjectiveSpec::Maximise)
                .prune(prune)
                .halt_on_root_reply(false)
                .run(BnbKnapsackTask::root(items.clone(), cap), 0)
        };
        let cold = run(PruneSpec::incumbent());
        // Warm-start with the optimum minus one: everything that cannot
        // strictly beat it is cut immediately.
        let warm = run(PruneSpec::Incumbent {
            initial: Some(expect as i64 - 1),
        });
        assert_eq!(cold.result, Some(expect));
        assert_eq!(warm.result, Some(expect));
        // Cutting near the root shrinks the whole tree: fewer subtrees
        // expanded *and* fewer even considered (pruned + expanded).
        assert!(
            warm.rec_totals.started <= cold.rec_totals.started,
            "warm start must not expand more nodes ({} vs {})",
            warm.rec_totals.started,
            cold.rec_totals.started
        );
        assert!(
            warm.requests_total <= cold.requests_total,
            "warm start must not issue more requests ({} vs {})",
            warm.requests_total,
            cold.requests_total
        );
    }
}
