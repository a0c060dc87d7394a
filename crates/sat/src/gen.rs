//! Seeded SAT instance generators.
//!
//! The paper benchmarks on SATLIB's `uf20-91` suite: "uniform random 3-SAT
//! problems (20 variables and 91 clauses each, all satisfiable)" (§V-C).
//! Those files are not redistributable here, so [`uf20_91`] draws from the
//! same distribution — uniform 3-SAT at the m/n ≈ 4.55 phase-transition
//! ratio — and rejection-filters to satisfiable instances exactly as the
//! SATLIB suite was constructed. See DESIGN.md, "substitutions".

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::cnf::{Clause, Cnf, Lit, Model, Var};
use crate::dpll;
use crate::heuristics::Heuristic;

/// Uniform random k-SAT: each clause samples `k` *distinct* variables and
/// independent polarities (the SATLIB `uf` model).
pub fn random_ksat(seed: u64, num_vars: u32, num_clauses: usize, k: usize) -> Cnf {
    assert!(k as u32 <= num_vars, "clause width exceeds variable count");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut clauses = Vec::with_capacity(num_clauses);
    let mut picked: Vec<u32> = Vec::with_capacity(k);
    for _ in 0..num_clauses {
        picked.clear();
        while picked.len() < k {
            let v = rng.gen_range(0..num_vars);
            if !picked.contains(&v) {
                picked.push(v);
            }
        }
        let clause: Clause = picked
            .iter()
            .map(|&v| Lit::with_polarity(Var(v), rng.gen_bool(0.5)))
            .collect();
        clauses.push(clause);
    }
    Cnf::new(num_vars, clauses)
}

/// A satisfiable instance from the `uf20-91` distribution: uniform 3-SAT
/// with 20 variables and 91 clauses, rejection-sampled until satisfiable
/// (at the phase transition roughly half of raw draws are).
///
/// Distinct seeds give independent instances; the same seed always returns
/// the same formula.
pub fn uf20_91(seed: u64) -> Cnf {
    satisfiable_ksat(seed, 20, 91, 3)
}

/// Generalised satisfiable-filtered uniform k-SAT.
pub fn satisfiable_ksat(seed: u64, num_vars: u32, num_clauses: usize, k: usize) -> Cnf {
    // Derive a fresh stream per attempt so rejection does not correlate
    // neighbouring seeds.
    for attempt in 0u64..10_000 {
        let cnf = random_ksat(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ attempt,
            num_vars,
            num_clauses,
            k,
        );
        let (result, _) = dpll::solve(&cnf, Heuristic::JeroslowWang);
        if result.is_sat() {
            return cnf;
        }
    }
    unreachable!("10k consecutive unsat draws at the phase transition");
}

/// A batch of independent satisfiable `uf20-91`-distribution instances —
/// the paper's "20 benchmark SAT problems" (§V-C / Figure 4 caption).
pub fn uf20_91_suite(base_seed: u64, count: usize) -> Vec<Cnf> {
    (0..count as u64).map(|i| uf20_91(base_seed + i)).collect()
}

/// Planted-solution k-SAT: guaranteed satisfiable instances of arbitrary
/// size (every clause contains at least one literal agreeing with a hidden
/// model). Used for scaling experiments beyond 20 variables, where
/// rejection sampling becomes impractical.
pub fn planted_ksat(seed: u64, num_vars: u32, num_clauses: usize, k: usize) -> (Cnf, Model) {
    assert!(k as u32 <= num_vars);
    let mut rng = SmallRng::seed_from_u64(seed);
    let hidden: Model = (0..num_vars).map(|_| rng.gen_bool(0.5)).collect();
    let mut clauses = Vec::with_capacity(num_clauses);
    let mut picked: Vec<u32> = Vec::with_capacity(k);
    for _ in 0..num_clauses {
        picked.clear();
        while picked.len() < k {
            let v = rng.gen_range(0..num_vars);
            if !picked.contains(&v) {
                picked.push(v);
            }
        }
        // Random polarities, then force one literal to agree with the
        // hidden model so the clause is satisfied by it.
        let mut lits: Vec<Lit> = picked
            .iter()
            .map(|&v| Lit::with_polarity(Var(v), rng.gen_bool(0.5)))
            .collect();
        let fix = rng.gen_range(0..k);
        let var = lits[fix].var();
        lits[fix] = Lit::with_polarity(var, hidden[var.0 as usize]);
        clauses.push(Clause::new(lits));
    }
    (Cnf::new(num_vars, clauses), hidden)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use crate::cnf::check_model;

    #[test]
    fn random_ksat_shape() {
        let cnf = random_ksat(1, 20, 91, 3);
        assert_eq!(cnf.num_vars(), 20);
        assert_eq!(cnf.num_clauses(), 91);
        for clause in cnf.clauses() {
            assert_eq!(clause.len(), 3);
            // Distinct variables within each clause.
            let mut vars: Vec<u32> = clause.iter().map(|l| l.var().0).collect();
            vars.sort_unstable();
            vars.dedup();
            assert_eq!(vars.len(), 3);
        }
    }

    #[test]
    fn generator_is_deterministic() {
        assert_eq!(random_ksat(7, 10, 30, 3), random_ksat(7, 10, 30, 3));
        assert_ne!(random_ksat(7, 10, 30, 3), random_ksat(8, 10, 30, 3));
    }

    #[test]
    fn uf20_91_is_satisfiable() {
        for seed in 0..3 {
            let cnf = uf20_91(seed);
            assert_eq!(cnf.num_vars(), 20);
            assert_eq!(cnf.num_clauses(), 91);
            let (r, _) = dpll::solve(&cnf, Heuristic::FirstUnassigned);
            assert!(r.is_sat(), "seed {seed} produced UNSAT");
        }
    }

    #[test]
    fn suite_instances_are_distinct() {
        let suite = uf20_91_suite(100, 5);
        assert_eq!(suite.len(), 5);
        for i in 0..suite.len() {
            for j in (i + 1)..suite.len() {
                assert_ne!(suite[i], suite[j], "instances {i} and {j} identical");
            }
        }
    }

    #[test]
    fn planted_instances_are_satisfied_by_the_plant() {
        for seed in 0..5 {
            let (cnf, hidden) = planted_ksat(seed, 40, 160, 3);
            assert!(check_model(&cnf, &hidden), "seed {seed}");
        }
    }

    #[test]
    fn small_random_instances_match_brute_force() {
        // At this density most draws are satisfiable; just verify the
        // filtered generator agrees with the oracle.
        for seed in 0..5 {
            let cnf = satisfiable_ksat(seed, 8, 20, 3);
            assert!(brute::solve(&cnf).is_sat());
        }
    }
}
