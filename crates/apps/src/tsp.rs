//! Small-instance travelling salesman by branch and bound with a
//! reduced-cost lower bound and a shared incumbent.
//!
//! The minimisation complement to [`crate::BnbKnapsackProgram`]: run
//! with `ObjectiveSpec::Minimise` + `PruneSpec::Incumbent`. Each
//! activation extends a partial tour from city 0 by one unvisited city,
//! forking per candidate and folding the minimum complete-tour cost.
//! The lower bound is a row-reduction: the cost so far plus, for every
//! city that still owes the tour an outgoing edge (the current city and
//! each unvisited one), the cheapest edge it could possibly use. Layer 4
//! compares that bound against the gossiped incumbent before expanding.

use std::sync::Arc;

use hyperspace_recursion::{Calls, Join, RecProgram, Resumed, Spawn, Step};

/// Sentinel cost of an infeasible/pruned subtree: loses every `min`
/// fold and is never a solution value.
pub const TSP_INFEASIBLE: u64 = u64::MAX;

/// The most cities a tour may visit: a task keeps its visited set in a
/// `u32` mask.
pub const TSP_MAX_CITIES: usize = 32;

/// A symmetric TSP instance: `n` cities with a row-major distance
/// matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TspInstance {
    /// Number of cities (kept small: the search tree is `(n-1)!`).
    pub n: usize,
    /// Row-major `n x n` distances; the diagonal is zero.
    pub dist: Vec<u64>,
}

impl TspInstance {
    /// Builds an instance from a row-major distance matrix.
    pub fn new(n: usize, dist: Vec<u64>) -> TspInstance {
        assert_eq!(dist.len(), n * n, "distance matrix must be n x n");
        TspInstance { n, dist }
    }

    /// A deterministic pseudo-random symmetric instance with distances
    /// in `1..=max_dist` (diagonal zero).
    pub fn random(seed: u64, n: usize, max_dist: u64) -> TspInstance {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut dist = vec![0u64; n * n];
        for a in 0..n {
            for b in (a + 1)..n {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let d = 1 + (s >> 33) % max_dist.max(1);
                dist[a * n + b] = d;
                dist[b * n + a] = d;
            }
        }
        TspInstance { n, dist }
    }

    /// Distance between cities `a` and `b`.
    pub fn d(&self, a: usize, b: usize) -> u64 {
        self.dist[a * self.n + b]
    }
}

/// A partial tour: cities visited so far (bitmask), the current city,
/// and the cost accumulated along the path from city 0.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TspTask {
    /// The instance, shared by every task of one search.
    pub inst: Arc<TspInstance>,
    /// Bitmask of visited cities (city 0 is always set).
    pub visited: u32,
    /// The city the tour currently ends at.
    pub last: u8,
    /// Path cost accumulated so far.
    pub cost: u64,
}

impl TspTask {
    /// The root task: tour started (and ending) at city 0. Panics unless
    /// the instance has 2 to [`TSP_MAX_CITIES`] cities.
    pub fn root(inst: TspInstance) -> TspTask {
        assert!(inst.n >= 2 && inst.n <= TSP_MAX_CITIES, "size out of range");
        TspTask {
            inst: Arc::new(inst),
            visited: 1,
            last: 0,
            cost: 0,
        }
    }

    fn unvisited(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.inst.n).filter(|&c| self.visited & (1 << c) == 0)
    }

    /// Reduced-cost lower bound on the cheapest completion of this
    /// partial tour: `cost` plus, for the current city and every
    /// unvisited city, the cheapest edge it could still contribute (to
    /// an unvisited city, or closing back to 0). Each of those cities
    /// uses exactly one outgoing edge in any completion, so the sum
    /// never exceeds the true completion cost.
    pub fn lower_bound(&self) -> u64 {
        let last = self.last as usize;
        // The current city departs towards some unvisited city.
        let Some(departs) = self.unvisited().map(|c| self.inst.d(last, c)).min() else {
            return self.cost + self.inst.d(last, 0);
        };
        // Every unvisited city departs towards another unvisited city
        // or closes the tour at 0.
        let onwards = self.unvisited().map(|c| {
            self.unvisited()
                .filter(|&o| o != c)
                .map(|o| self.inst.d(c, o))
                .fold(self.inst.d(c, 0), u64::min)
        });
        self.cost + departs + onwards.sum::<u64>()
    }
}

/// Min-cost tour by distributed branch and bound with incumbent
/// propagation (run with `ObjectiveSpec::Minimise`).
#[derive(Clone, Copy)]
pub struct TspProgram;

impl RecProgram for TspProgram {
    type Arg = TspTask;
    type Out = u64;
    type Frame = ();

    fn start(&self, task: TspTask) -> Step<Self> {
        let n = task.inst.n;
        if task.visited.count_ones() as usize == n {
            return Step::Done(task.cost + task.inst.d(task.last as usize, 0));
        }
        let calls: Calls<TspTask> = task
            .unvisited()
            .map(|c| {
                let mut next = task.clone();
                next.visited |= 1 << c;
                next.cost += task.inst.d(task.last as usize, c);
                next.last = c as u8;
                next
            })
            .collect();
        Step::Spawn(Spawn {
            calls,
            join: Join::All,
            frame: (),
        })
    }

    fn resume(&self, _frame: (), results: Resumed<u64>) -> Step<Self> {
        Step::Done(
            results
                .into_all()
                .into_iter()
                .min()
                .unwrap_or(TSP_INFEASIBLE),
        )
    }

    /// §III-B3 hint: unvisited cities approximate remaining depth.
    fn weight(&self, arg: &TspTask) -> u32 {
        arg.inst.n as u32 - arg.visited.count_ones()
    }

    /// Completed subtree costs are real tour costs (min folds of leaf
    /// tours); the infeasible sentinel never becomes an incumbent.
    fn solution_value(&self, out: &u64) -> Option<i64> {
        (*out != TSP_INFEASIBLE).then_some(*out as i64)
    }

    fn bound(&self, arg: &TspTask) -> Option<i64> {
        Some(arg.lower_bound() as i64)
    }

    /// A pruned subtree is answered with the infeasible sentinel, which
    /// loses every `min` fold.
    fn pruned(&self, _arg: &TspTask) -> Option<u64> {
        Some(TSP_INFEASIBLE)
    }
}

/// Brute-force oracle: cheapest tour cost by exhaustive DFS.
pub fn tsp_reference(inst: &TspInstance) -> u64 {
    fn dfs(inst: &TspInstance, visited: u32, last: usize, cost: u64, best: &mut u64) {
        if visited.count_ones() as usize == inst.n {
            *best = (*best).min(cost + inst.d(last, 0));
            return;
        }
        for c in 0..inst.n {
            if visited & (1 << c) == 0 {
                dfs(inst, visited | (1 << c), c, cost + inst.d(last, c), best);
            }
        }
    }
    let mut best = TSP_INFEASIBLE;
    dfs(inst, 1, 0, 0, &mut best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperspace_core::{MapperSpec, ObjectiveSpec, PruneSpec, StackBuilder, TopologySpec};
    use hyperspace_recursion::eval_local;

    #[test]
    fn reference_solves_a_known_square() {
        // 4 cities on a unit square (1 = side, 14 ≈ diagonal * 10): the
        // optimal tour walks the perimeter, cost 4... scaled by 10.
        let inst = TspInstance::new(
            4,
            vec![
                0, 10, 14, 10, //
                10, 0, 10, 14, //
                14, 10, 0, 10, //
                10, 14, 10, 0,
            ],
        );
        assert_eq!(tsp_reference(&inst), 40);
        assert_eq!(eval_local(&TspProgram, TspTask::root(inst)), 40);
    }

    #[test]
    fn lower_bound_never_exceeds_optimum() {
        for seed in 0..8u64 {
            let inst = TspInstance::random(seed, 6, 50);
            let opt = tsp_reference(&inst);
            let root = TspTask::root(inst);
            assert!(root.lower_bound() <= opt, "seed {seed}");
        }
    }

    #[test]
    fn lower_bound_equals_the_collecting_formula() {
        // The bound as it was written over a collected `Vec` of the
        // unvisited cities.
        fn collected(task: &TspTask) -> u64 {
            let remaining: Vec<usize> = task.unvisited().collect();
            if remaining.is_empty() {
                return task.cost + task.inst.d(task.last as usize, 0);
            }
            let mut bound = task.cost;
            bound += remaining
                .iter()
                .map(|&c| task.inst.d(task.last as usize, c))
                .min()
                .unwrap_or(0);
            for &c in &remaining {
                bound += remaining
                    .iter()
                    .filter(|&&o| o != c)
                    .map(|&o| task.inst.d(c, o))
                    .chain(std::iter::once(task.inst.d(c, 0)))
                    .min()
                    .unwrap_or(0);
            }
            bound
        }
        let mut s = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |bound: u64| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s % bound
        };
        for seed in 0..200 {
            let n = 2 + next(9) as usize;
            let inst = TspInstance::random(seed, n, 1 + next(60));
            // City 0 and any others visited, the tour ending at one of them.
            let visited = 1 | (next(1 << n) as u32);
            let visited_cities: Vec<usize> = (0..n).filter(|c| visited & (1 << c) != 0).collect();
            let last = visited_cities[next(visited_cities.len() as u64) as usize] as u8;
            let task = TspTask {
                inst: Arc::new(inst),
                visited,
                last,
                cost: next(500),
            };
            assert_eq!(task.lower_bound(), collected(&task), "{task:?}");
        }
    }

    #[test]
    fn unpruned_local_evaluation_matches_reference() {
        for seed in 0..4u64 {
            let inst = TspInstance::random(seed, 6, 30);
            let expect = tsp_reference(&inst);
            assert_eq!(
                eval_local(&TspProgram, TspTask::root(inst)),
                expect,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn warm_start_at_the_optimum_proves_optimality_via_best_incumbent() {
        // The "confirm my best-known tour is optimal" usage: warm-start
        // with the optimum itself. Every leaf merely *ties* the warm
        // start, so the search prunes them all and the fold collapses
        // to the infeasible sentinel — by design. The authoritative
        // answer of a warm-started run is `best_incumbent`, which
        // carries the warm start through to the report.
        let inst = TspInstance::random(3, 6, 30);
        let opt = tsp_reference(&inst);
        let report = StackBuilder::new(TspProgram)
            .topology(TopologySpec::Torus2D { w: 4, h: 4 })
            .mapper(MapperSpec::RoundRobin)
            .objective(ObjectiveSpec::Minimise)
            .prune(PruneSpec::Incumbent {
                initial: Some(opt as i64),
            })
            .halt_on_root_reply(false)
            .run(TspTask::root(inst), 0);
        assert_eq!(report.best_incumbent, Some(opt as i64));
        assert_eq!(
            report.result,
            Some(TSP_INFEASIBLE),
            "nothing strictly beats the optimum, so the fold is all sentinels"
        );
        assert!(report.nodes_pruned() > 0);
    }

    #[test]
    fn distributed_bnb_matches_reference_and_prunes() {
        let inst = TspInstance::random(11, 7, 40);
        let expect = tsp_reference(&inst);
        let report = StackBuilder::new(TspProgram)
            .topology(TopologySpec::Torus2D { w: 4, h: 4 })
            .mapper(MapperSpec::LeastBusy {
                status_period: None,
            })
            .objective(ObjectiveSpec::Minimise)
            .prune(PruneSpec::incumbent())
            .halt_on_root_reply(false)
            .run(TspTask::root(inst), 0);
        assert_eq!(report.result, Some(expect));
        assert_eq!(report.best_incumbent, Some(expect as i64));
        assert!(report.nodes_pruned() > 0, "bound should cut something");
        assert!(report.bounds_total > 0, "incumbents should gossip");
    }
}
