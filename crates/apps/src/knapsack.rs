//! 0/1 knapsack by branch and bound: optimisation (not just decision)
//! search, and the showcase for §III-B3's cross-layer hints.
//!
//! Each activation decides one item and forks take/skip branches joined
//! with `All`, folding the maximum achievable value. Both programs run on
//! one [`BnbKnapsackTask`], a path over the items every task of a search
//! shares. [`KnapsackProgram`] cuts a branch whose fractional upper bound
//! cannot beat the value on its own path — the "lazy evaluation functions
//! to prune the search space" the paper says can double as sub-problem
//! size estimates. [`BnbKnapsackProgram`] leaves bounding to the stack's
//! optimisation mode (`ObjectiveSpec::Maximise` + `PruneSpec::Incumbent`):
//! completed subtree values gossip through the mesh as incumbents, and
//! layer 4 checks the bound against the *global* incumbent before
//! expanding a frame. Both are cross-checked against the
//! [`knapsack_reference`] DP oracle.

use std::sync::Arc;

use hyperspace_recursion::{Calls, Join, RecProgram, Resumed, Spawn, Step};

/// The largest sum of item values a knapsack instance may have: a task
/// accumulates the value on its path in a `u32`.
pub const KNAPSACK_MAX_TOTAL_VALUE: u64 = u32::MAX as u64;

/// The sum of the items' values, widened so that it cannot overflow
/// (compare it with [`KNAPSACK_MAX_TOTAL_VALUE`]).
pub fn total_value(items: &[Item]) -> u64 {
    items.iter().map(|item| u64::from(item.value)).sum()
}

/// A knapsack item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Item {
    /// Weight.
    pub weight: u32,
    /// Value.
    pub value: u32,
}

/// A branch-and-bound node: the path from the root decided items `..next`,
/// leaving `capacity` and accumulating `value`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BnbKnapsackTask {
    /// The instance's items, shared by every task of one search.
    /// Pre-sort by density for a tight bound.
    pub items: Arc<[Item]>,
    /// Index of the next undecided item.
    pub next: usize,
    /// Remaining capacity.
    pub capacity: u32,
    /// Value accumulated by taken items.
    pub value: u32,
}

impl BnbKnapsackTask {
    /// Root task over `items` with total `capacity`. Items should be
    /// pre-sorted by value density for the bound to be tight (see
    /// [`sort_by_density`]). Panics unless the values sum to at most
    /// [`KNAPSACK_MAX_TOTAL_VALUE`].
    pub fn root(items: Vec<Item>, capacity: u32) -> BnbKnapsackTask {
        assert!(
            total_value(&items) <= KNAPSACK_MAX_TOTAL_VALUE,
            "item values sum past KNAPSACK_MAX_TOTAL_VALUE"
        );
        BnbKnapsackTask {
            items: items.into(),
            next: 0,
            capacity,
            value: 0,
        }
    }

    /// Fractional (LP-relaxation) upper bound on the achievable value.
    pub fn upper_bound(&self) -> u32 {
        fractional_bound(&self.items, self.next, self.capacity, self.value)
    }

    /// The two ways to decide item `next`, in issue order: take it if it
    /// fits, then skip it.
    fn children(self) -> Calls<BnbKnapsackTask> {
        let item = self.items[self.next];
        let skip = BnbKnapsackTask {
            next: self.next + 1,
            ..self
        };
        if item.weight > skip.capacity {
            return Calls::one(skip);
        }
        let take = BnbKnapsackTask {
            capacity: skip.capacity - item.weight,
            value: skip.value + item.value,
            ..skip.clone()
        };
        Calls::two(take, skip)
    }

    /// §III-B3 hint: undecided items approximate remaining sub-tree
    /// depth.
    fn weight(&self) -> u32 {
        (self.items.len() - self.next) as u32
    }
}

/// The children of an undecided task joined with `All`.
fn branch<P: RecProgram<Arg = BnbKnapsackTask, Frame = ()>>(task: BnbKnapsackTask) -> Step<P> {
    Step::Spawn(Spawn {
        calls: task.children(),
        join: Join::All,
        frame: (),
    })
}

/// Fractional (LP-relaxation) upper bound on the value achievable with
/// `capacity` left and items `next..` undecided, on top of `value`
/// already accumulated. Tightest when items are density-sorted
/// ([`sort_by_density`]).
pub fn fractional_bound(items: &[Item], next: usize, capacity: u32, value: u32) -> u32 {
    // Widen to u64: `value * cap` overflows u32 for large capacities,
    // and a wrapped-small "upper bound" would unsoundly prune the
    // optimal subtree. Saturating on the way back keeps the result an
    // upper bound (too large is safe, too small is not).
    let mut cap = capacity as u64;
    let mut bound = value as u64;
    for item in &items[next..] {
        if item.weight as u64 <= cap {
            cap -= item.weight as u64;
            bound += item.value as u64;
        } else {
            // Fractional part of the first item that does not fit.
            bound += item.value as u64 * cap / item.weight.max(1) as u64;
            break;
        }
    }
    bound.min(u32::MAX as u64) as u32
}

/// A deterministic pseudo-random item list with weights in
/// `1..=max_weight` and values in `1..=max_value`, density-sorted
/// ([`sort_by_density`]) so relaxation bounds are tight. The single
/// instance generator shared by the conformance suites, the anytime
/// tests and the `portfolio_race` sweep.
pub fn seeded_items(seed: u64, n: usize, max_weight: u32, max_value: u32) -> Vec<Item> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut draw = |modulus: u32| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        1 + ((s >> 33) % modulus.max(1) as u64) as u32
    };
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        let weight = draw(max_weight);
        let value = draw(max_value);
        items.push(Item { weight, value });
    }
    sort_by_density(&mut items);
    items
}

/// Sorts items by non-increasing value density (value/weight).
pub fn sort_by_density(items: &mut [Item]) {
    items.sort_by(|a, b| {
        let da = a.value as u64 * b.weight.max(1) as u64;
        let db = b.value as u64 * a.weight.max(1) as u64;
        db.cmp(&da)
    });
}

/// Max-value 0/1 knapsack by distributed branch and bound, pruning a
/// branch whose upper bound cannot beat the value on its own path.
#[derive(Clone, Copy)]
pub struct KnapsackProgram;

impl RecProgram for KnapsackProgram {
    type Arg = BnbKnapsackTask;
    type Out = u64;
    type Frame = ();

    fn start(&self, task: BnbKnapsackTask) -> Step<Self> {
        // Bound: nothing below (nothing at all, at a leaf) can beat what
        // this path already holds.
        if task.upper_bound() <= task.value {
            return Step::Done(task.value as u64);
        }
        branch(task)
    }

    fn resume(&self, _frame: (), results: Resumed<u64>) -> Step<Self> {
        Step::Done(results.into_all().into_iter().max().unwrap_or(0))
    }

    fn weight(&self, arg: &BnbKnapsackTask) -> u32 {
        arg.weight()
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
        if task.next == task.items.len() {
            return Step::Done(task.value as u64);
        }
        branch(task)
    }

    fn resume(&self, _frame: (), results: Resumed<u64>) -> Step<Self> {
        Step::Done(results.into_all().into_iter().max().unwrap_or(0))
    }

    fn weight(&self, arg: &BnbKnapsackTask) -> u32 {
        arg.weight()
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

/// Dynamic-programming oracle.
pub fn knapsack_reference(items: &[Item], capacity: u32) -> u64 {
    let mut best = vec![0u64; capacity as usize + 1];
    for item in items {
        for cap in (item.weight..=capacity).rev() {
            best[cap as usize] =
                best[cap as usize].max(best[(cap - item.weight) as usize] + item.value as u64);
        }
    }
    best[capacity as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperspace_core::{MapperSpec, ObjectiveSpec, PruneSpec, StackBuilder, TopologySpec};
    use hyperspace_recursion::eval_local;

    fn sample_items() -> Vec<Item> {
        let mut items = vec![
            Item {
                weight: 3,
                value: 9,
            },
            Item {
                weight: 5,
                value: 10,
            },
            Item {
                weight: 2,
                value: 7,
            },
            Item {
                weight: 4,
                value: 3,
            },
            Item {
                weight: 6,
                value: 14,
            },
            Item {
                weight: 1,
                value: 2,
            },
        ];
        sort_by_density(&mut items);
        items
    }

    #[test]
    fn local_matches_dp() {
        let items = sample_items();
        for cap in [0u32, 3, 7, 12, 21] {
            let expect = knapsack_reference(&items, cap);
            let got = eval_local(&KnapsackProgram, BnbKnapsackTask::root(items.clone(), cap));
            assert_eq!(got, expect, "capacity {cap}");
        }
    }

    #[test]
    fn distributed_matches_dp() {
        let items = sample_items();
        let expect = knapsack_reference(&items, 10);
        let report = StackBuilder::new(KnapsackProgram)
            .topology(TopologySpec::Torus2D { w: 4, h: 4 })
            .mapper(MapperSpec::WeightAware {
                local_threshold: 2,
                status_period: None,
            })
            .run(BnbKnapsackTask::root(items, 10), 0);
        assert_eq!(report.result, Some(expect));
    }

    #[test]
    fn fractional_bound_survives_u32_overflow() {
        // value * cap used to wrap in u32, yielding an unsoundly small
        // "upper bound". 100 * 2^30 / (2^32 - 1) = 25 in exact
        // arithmetic — the wrapped computation returned 0.
        let items = [Item {
            weight: u32::MAX,
            value: 100,
        }];
        let cap = 1u32 << 30;
        assert_eq!(fractional_bound(&items, 0, cap, 0), 25);
        // Sums beyond u32 saturate instead of wrapping: still an upper
        // bound.
        let rich: Vec<Item> = (0..3)
            .map(|_| Item {
                weight: 1,
                value: u32::MAX / 2,
            })
            .collect();
        assert_eq!(fractional_bound(&rich, 0, 10, u32::MAX / 2), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "KNAPSACK_MAX_TOTAL_VALUE")]
    fn a_root_whose_values_overflow_a_task_is_refused() {
        // Taking both items would wrap the task's `u32` value.
        let items = vec![
            Item {
                weight: 1,
                value: 1 << 31,
            };
            2
        ];
        BnbKnapsackTask::root(items, 2);
    }

    #[test]
    fn values_summing_to_the_limit_are_searched_exactly() {
        let items = vec![
            Item {
                weight: 1,
                value: 1 << 31,
            },
            Item {
                weight: 1,
                value: (1 << 31) - 1,
            },
        ];
        assert_eq!(total_value(&items), KNAPSACK_MAX_TOTAL_VALUE);
        let expect = knapsack_reference(&items, 2);
        assert_eq!(expect, KNAPSACK_MAX_TOTAL_VALUE);
        let got = eval_local(&KnapsackProgram, BnbKnapsackTask::root(items, 2));
        assert_eq!(got, expect);
    }

    #[test]
    fn upper_bound_dominates_value() {
        let items = sample_items();
        let task = BnbKnapsackTask::root(items.clone(), 9);
        assert!(task.upper_bound() as u64 >= knapsack_reference(&items, 9));
    }

    #[test]
    fn density_sort_orders_ratios() {
        let items = sample_items();
        for w in items.windows(2) {
            let d0 = w[0].value as f64 / w[0].weight as f64;
            let d1 = w[1].value as f64 / w[1].weight as f64;
            assert!(d0 >= d1);
        }
    }

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
