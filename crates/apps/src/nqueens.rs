//! N-Queens solution counting: irregular combinatorial fan-out.
//!
//! Each activation extends a partial placement by one row, forking one
//! sub-call per safe column and summing the counts with an `All` join —
//! the counting complement to SAT's `Any`-joined decision search.

use hyperspace_recursion::{Calls, Join, RecProgram, Resumed, Spawn, Step};

/// The largest board a task can hold: its masks are `u32`s.
pub const QUEENS_MAX_N: u8 = 32;

/// A partial placement of `row` queens, one per row from the top, held as
/// the columns of the next row they attack: a child is a few shifts and a
/// safety test one `and`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueensTask {
    /// Board size.
    pub n: u8,
    /// The next row to fill; rows above it hold one queen each.
    pub row: u8,
    /// Attacked down the columns, the down-right and the down-left
    /// diagonals.
    cols: u32,
    diag: u32,
    anti: u32,
}

impl QueensTask {
    /// The empty board of size `n`. Panics if `n` exceeds
    /// [`QUEENS_MAX_N`].
    pub fn root(n: u8) -> QueensTask {
        assert!(n <= QUEENS_MAX_N, "board size out of range");
        QueensTask {
            n,
            row: 0,
            cols: 0,
            diag: 0,
            anti: 0,
        }
    }

    /// Whether a queen at (next row, `col`) is unattacked.
    fn safe(&self, col: u8) -> bool {
        (self.cols | self.diag | self.anti) & (1 << col) == 0
    }

    /// The placement with a queen added at (next row, `col`).
    fn place(&self, col: u8) -> QueensTask {
        let bit = 1 << col;
        QueensTask {
            row: self.row + 1,
            cols: self.cols | bit,
            diag: (self.diag | bit) << 1,
            anti: (self.anti | bit) >> 1,
            ..*self
        }
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
        if task.row == task.n {
            return Step::Done(1);
        }
        let calls: Calls<QueensTask> = (0..task.n)
            .filter(|&c| task.safe(c))
            .map(|c| task.place(c))
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
        (arg.n - arg.row) as u32
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
        let t = QueensTask::root(4).place(1);
        assert!(!t.safe(1)); // same column
        assert!(!t.safe(0)); // diagonal
        assert!(!t.safe(2)); // diagonal
        assert!(t.safe(3));
    }

    #[test]
    fn masks_agree_with_a_naive_attack_scan() {
        /// Whether a queen at (`cols.len()`, `col`) shares a column or a
        /// diagonal with a queen at (`r`, `cols[r]`).
        fn attacked(cols: &[u8], col: u8) -> bool {
            let row = cols.len() as i32;
            cols.iter().enumerate().any(|(r, &c)| {
                let (r, c, col) = (r as i32, c as i32, col as i32);
                c == col || row - r == (col - c).abs()
            })
        }
        /// Checks every column of the next row, then descends into every
        /// safe one; returns the complete placements below.
        fn walk(task: &QueensTask, cols: &mut Vec<u8>) -> u64 {
            assert_eq!(task.row as usize, cols.len());
            if task.row == task.n {
                return 1;
            }
            let mut count = 0;
            for col in 0..task.n {
                assert_eq!(task.safe(col), !attacked(cols, col), "{cols:?} + {col}");
                if task.safe(col) {
                    cols.push(col);
                    count += walk(&task.place(col), cols);
                    cols.pop();
                }
            }
            count
        }
        for n in 0..=8u8 {
            let count = walk(&QueensTask::root(n), &mut Vec::new());
            assert_eq!(count, QUEENS_COUNTS[n as usize], "n = {n}");
        }
    }
}
