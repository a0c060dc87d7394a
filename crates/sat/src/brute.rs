//! Exhaustive satisfiability oracle for property tests.

use crate::cnf::{Cnf, Model};
use crate::dpll::SatResult;

/// Maximum variable count accepted (2^24 evaluations ≈ tens of ms on a 91-
/// clause formula; beyond that the oracle is pointless anyway).
pub const MAX_VARS: u32 = 24;

/// Decides satisfiability by trying every assignment. Panics above
/// [`MAX_VARS`] variables.
pub fn solve(cnf: &Cnf) -> SatResult {
    assert!(
        cnf.num_vars() <= MAX_VARS,
        "brute force limited to {MAX_VARS} variables"
    );
    let n = cnf.num_vars();
    for bits in 0u64..(1u64 << n) {
        let model: Model = (0..n).map(|v| bits >> v & 1 == 1).collect();
        if cnf.eval(&model) {
            return SatResult::Sat(model);
        }
    }
    SatResult::Unsat
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::{Clause, Lit};

    fn cnf(clauses: &[&[i32]], vars: u32) -> Cnf {
        Cnf::new(
            vars,
            clauses
                .iter()
                .map(|c| c.iter().map(|&d| Lit::from_dimacs(d)).collect::<Clause>())
                .collect(),
        )
    }

    #[test]
    fn oracle_agrees_on_basics() {
        assert!(solve(&cnf(&[&[1]], 1)).is_sat());
        assert_eq!(solve(&cnf(&[&[1], &[-1]], 1)), SatResult::Unsat);
    }

    #[test]
    #[should_panic(expected = "brute force limited")]
    fn too_many_vars_rejected() {
        solve(&cnf(&[], MAX_VARS + 1));
    }
}
