//! 0/1 knapsack by branch and bound: optimisation (not just decision)
//! search, and the showcase for §III-B3's cross-layer hints.
//!
//! Each activation considers one item and forks take/skip branches joined
//! with `All`, propagating the maximum achievable value. A fractional
//! upper bound prunes branches that cannot beat the incumbent — the
//! "lazy evaluation functions to prune the search space" the paper says
//! can double as sub-problem size estimates for the mapping layer.

use hyperspace_recursion::{Calls, Join, RecProgram, Resumed, Spawn, Step};

/// A knapsack item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Item {
    /// Weight.
    pub weight: u32,
    /// Value.
    pub value: u32,
}

/// A branch-and-bound node: items already decided up to `next`, remaining
/// capacity and accumulated value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KnapsackTask {
    /// The full item list (travels with the task; messages are
    /// self-contained).
    pub items: Vec<Item>,
    /// Index of the next undecided item.
    pub next: usize,
    /// Remaining capacity.
    pub capacity: u32,
    /// Value accumulated by taken items.
    pub value: u32,
    /// Best complete value seen on the path so far (prune bound).
    pub incumbent: u32,
}

impl KnapsackTask {
    /// Root task. Items should be pre-sorted by value density for the
    /// bound to be tight (see [`sort_by_density`]).
    pub fn root(items: Vec<Item>, capacity: u32) -> KnapsackTask {
        KnapsackTask {
            items,
            next: 0,
            capacity,
            value: 0,
            incumbent: 0,
        }
    }

    /// Fractional (LP-relaxation) upper bound on the achievable value.
    pub fn upper_bound(&self) -> u32 {
        fractional_bound(&self.items, self.next, self.capacity, self.value)
    }
}

/// Fractional (LP-relaxation) upper bound on the value achievable with
/// `capacity` left and items `next..` undecided, on top of `value`
/// already accumulated. Tightest when items are density-sorted
/// ([`sort_by_density`]). Shared by the path-local [`KnapsackTask`]
/// bound and the incumbent-pruned [`crate::BnbKnapsackProgram`].
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

/// Max-value 0/1 knapsack by distributed branch and bound.
#[derive(Clone, Copy)]
pub struct KnapsackProgram;

impl RecProgram for KnapsackProgram {
    type Arg = KnapsackTask;
    type Out = u64;
    type Frame = ();

    fn start(&self, task: KnapsackTask) -> Step<Self> {
        if task.next >= task.items.len() {
            return Step::Done(task.value as u64);
        }
        if task.upper_bound() <= task.incumbent {
            // Bound: cannot beat what a sibling already achieved.
            return Step::Done(task.value as u64);
        }
        let item = task.items[task.next];
        let mut calls = Calls::new();
        if item.weight <= task.capacity {
            let mut take = task.clone();
            take.next += 1;
            take.capacity -= item.weight;
            take.value += item.value;
            take.incumbent = take.incumbent.max(take.value);
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

    /// §III-B3 hint: the LP bound estimates how much value (≈ search) is
    /// left under this node.
    fn weight(&self, arg: &KnapsackTask) -> u32 {
        (arg.items.len() - arg.next) as u32
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
    use hyperspace_core::{MapperSpec, StackBuilder, TopologySpec};
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
            let got = eval_local(&KnapsackProgram, KnapsackTask::root(items.clone(), cap));
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
            .run(KnapsackTask::root(items, 10), 0);
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
    fn upper_bound_dominates_value() {
        let items = sample_items();
        let task = KnapsackTask::root(items.clone(), 9);
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
}
