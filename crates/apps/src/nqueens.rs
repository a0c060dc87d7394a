//! N-Queens solution counting: irregular combinatorial fan-out.
//!
//! Each activation extends a partial placement by one row, forking one
//! sub-call per safe column and summing the counts with an `All` join —
//! the counting complement to SAT's `Any`-joined decision search.

use hyperspace_recursion::{Calls, Join, RecProgram, Resumed, Spawn, Step};

/// A partial placement: `cols[r]` is the column of the queen in row `r`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueensTask {
    /// Board size.
    pub n: u8,
    /// Columns of already-placed queens, one per filled row.
    pub cols: Vec<u8>,
}

impl QueensTask {
    /// The empty board of size `n`.
    pub fn root(n: u8) -> QueensTask {
        QueensTask {
            n,
            cols: Vec::new(),
        }
    }

    /// Whether a queen at (next row, `col`) is unattacked.
    fn safe(&self, col: u8) -> bool {
        let row = self.cols.len() as i32;
        self.cols.iter().enumerate().all(|(r, &c)| {
            let (r, c) = (r as i32, c as i32);
            c != col as i32 && (row - r) != (col as i32 - c).abs()
        })
    }
}

/// Counts complete placements reachable from a partial placement.
#[derive(Clone, Copy)]
pub struct NQueensProgram;

impl RecProgram for NQueensProgram {
    type Arg = QueensTask;
    type Out = u64;
    type Frame = ();

    fn start(&self, task: QueensTask) -> Step<Self> {
        if task.cols.len() == task.n as usize {
            return Step::Done(1);
        }
        let calls: Calls<QueensTask> = (0..task.n)
            .filter(|&c| task.safe(c))
            .map(|c| {
                let mut next = task.clone();
                next.cols.push(c);
                next
            })
            .collect();
        if calls.is_empty() {
            return Step::Done(0); // dead end
        }
        Step::Spawn(Spawn {
            calls,
            join: Join::All,
            frame: (),
        })
    }

    fn resume(&self, _frame: (), results: Resumed<u64>) -> Step<Self> {
        Step::Done(results.into_all().into_iter().sum())
    }

    fn weight(&self, arg: &QueensTask) -> u32 {
        // Unfilled rows approximate remaining sub-tree depth.
        (arg.n as usize - arg.cols.len()) as u32
    }
}

/// Known solution counts for boards 0..=10.
pub const QUEENS_COUNTS: [u64; 11] = [1, 1, 0, 0, 2, 10, 4, 40, 92, 352, 724];

#[cfg(test)]
mod tests {
    use super::*;
    use hyperspace_core::{MapperSpec, StackBuilder, TopologySpec};
    use hyperspace_recursion::eval_local;

    #[test]
    fn local_counts_match_known_values() {
        for n in 0..=8u8 {
            assert_eq!(
                eval_local(&NQueensProgram, QueensTask::root(n)),
                QUEENS_COUNTS[n as usize],
                "n = {n}"
            );
        }
    }

    #[test]
    fn distributed_count_eight_queens() {
        let report = StackBuilder::new(NQueensProgram)
            .topology(TopologySpec::Torus2D { w: 6, h: 6 })
            .mapper(MapperSpec::LeastBusy {
                status_period: None,
            })
            .run(QueensTask::root(6), 0);
        assert_eq!(report.result, Some(4));
    }

    #[test]
    fn safety_predicate() {
        let t = QueensTask {
            n: 4,
            cols: vec![1],
        };
        assert!(!t.safe(1)); // same column
        assert!(!t.safe(0)); // diagonal
        assert!(!t.safe(2)); // diagonal
        assert!(t.safe(3));
    }
}
