//! Clause-learning DPLL ("CDCL-lite").
//!
//! §V-B notes that "many state-of-the-art SAT solvers implement additional
//! heuristics such as conflict-driven learning and non-chronological
//! backtracking to prune the search space", which the paper deliberately
//! leaves out. This module provides a compact sequential implementation of
//! exactly those two mechanisms, as a stronger baseline to compare the
//! barebone DPLL against:
//!
//! * a trail of assignments with decision levels;
//! * unit propagation over the growing clause database;
//! * on conflict, a *decision-negation* learned clause (the disjunction of
//!   the negated decisions on the current path — always implied, one
//!   literal per level), added to the database;
//! * backjumping: pop one level; the learned clause immediately becomes
//!   unit and drives propagation down the other branch.
//!
//! Beyond the one-shot [`solve`] entry point, the solver is *resumable*
//! and *shareable* — the PaSAT-style lemma exchange the paper cites as
//! \[38\]: [`CdclSolver::run`] executes a bounded number of search
//! operations and can be called again, [`CdclSolver::export_learned`]
//! drains the clauses learned since the last export (filtered by
//! length/LBD budgets), and [`CdclSolver::import_clauses`] absorbs
//! lemmas learned by *other* solvers of the same formula. Decision-
//! negation lemmas are implied by the formula alone, so importing them
//! from any member of a portfolio is sound. This is what lets a
//! portfolio race CDCL members against mesh members at deterministic
//! sync epochs.

use crate::cnf::{check_model, Clause, Cnf, Lit, Model};
use crate::dpll::SatResult;
use crate::program::Polarity;

/// Search statistics for a CDCL-lite run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CdclStats {
    /// Branching decisions.
    pub decisions: u64,
    /// Literals assigned by unit propagation.
    pub propagations: u64,
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Clauses learned (== conflicts above level 0).
    pub learned: u64,
    /// Restarts performed (restart policies only).
    pub restarts: u64,
    /// Clauses imported from other solvers.
    pub imported: u64,
}

/// When a [`CdclSolver`] abandons its trail and restarts from decision
/// level 0 (keeping every learned clause, so progress is never lost).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RestartPolicy {
    /// Never restart (the classic baseline).
    #[default]
    Off,
    /// Restart every `n` conflicts.
    Fixed(u64),
    /// Restart after `base * luby(i)` conflicts — the reluctant-doubling
    /// schedule of Luby et al., the standard portfolio diversifier.
    Luby(u64),
}

impl std::fmt::Display for RestartPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestartPolicy::Off => f.write_str("off"),
            RestartPolicy::Fixed(n) => write!(f, "fixed:{n}"),
            RestartPolicy::Luby(n) => write!(f, "luby:{n}"),
        }
    }
}

impl std::str::FromStr for RestartPolicy {
    type Err = crate::heuristics::SatSpecParseError;

    /// Parses the [`Display`](std::fmt::Display) syntax: `off`,
    /// `fixed:N`, `luby:N`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || {
            crate::heuristics::SatSpecParseError(format!(
                "{s:?}: expected off, fixed:N or luby:N, got {s:?}"
            ))
        };
        if s == "off" {
            return Ok(RestartPolicy::Off);
        }
        let (name, n) = s.split_once(':').ok_or_else(bad)?;
        let n: u64 = n.parse().map_err(|_| bad())?;
        if n == 0 {
            return Err(bad());
        }
        match name {
            "fixed" => Ok(RestartPolicy::Fixed(n)),
            "luby" => Ok(RestartPolicy::Luby(n)),
            _ => Err(bad()),
        }
    }
}

/// The i-th term (1-based) of the Luby sequence 1,1,2,1,1,2,4,…
fn luby(mut i: u64) -> u64 {
    loop {
        let mut k = 1u64;
        while (1u64 << k) - 1 < i {
            k += 1;
        }
        if (1u64 << k) - 1 == i {
            return 1u64 << (k - 1);
        }
        i -= (1u64 << (k - 1)) - 1;
    }
}

/// Configuration of a [`CdclSolver`] — the portfolio-diversification
/// knobs. The default reproduces the classic [`solve`] behaviour exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CdclConfig {
    /// Restart schedule.
    pub restart: RestartPolicy,
    /// Which polarity of the branching literal is decided (`Negative`
    /// branches into the complementary half-space first).
    pub polarity: Polarity,
    /// Rotates the clause scan that picks branching literals, so
    /// differently seeded solvers descend different subtrees. `0` is the
    /// classic first-unsatisfied-clause scan.
    pub seed: u64,
}

/// Outcome of one bounded [`CdclSolver::run`] call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CdclStatus {
    /// The formula is decided.
    Done(SatResult),
    /// The operation budget ran out with the search still open; call
    /// [`CdclSolver::run`] again to continue.
    Budget,
}

/// One assignment on the trail.
#[derive(Clone, Copy, Debug)]
struct TrailEntry {
    lit: Lit,
    decision: bool,
}

/// A resumable clause-learning solver (see the module docs).
pub struct CdclSolver {
    clauses: Vec<Clause>,
    values: Vec<Option<bool>>,
    trail: Vec<TrailEntry>,
    /// Trail indices where each decision level starts.
    level_starts: Vec<usize>,
    stats: CdclStats,
    cfg: CdclConfig,
    /// Clauses learned since the last [`CdclSolver::export_learned`].
    fresh_learned: Vec<Clause>,
    conflicts_since_restart: u64,
    luby_index: u64,
    /// Search operations (decisions + conflicts) executed so far.
    ops: u64,
    result: Option<SatResult>,
}

/// Outcome of propagating to fixpoint.
enum Propagated {
    Ok,
    Conflict,
}

impl CdclSolver {
    /// A solver over `cnf` with the given diversification knobs.
    pub fn new(cnf: &Cnf, cfg: CdclConfig) -> CdclSolver {
        CdclSolver {
            clauses: cnf.clauses().map(|c| Clause::new(c.to_vec())).collect(),
            values: vec![None; cnf.num_vars() as usize],
            trail: Vec::with_capacity(cnf.num_vars() as usize),
            level_starts: Vec::new(),
            stats: CdclStats::default(),
            cfg,
            fresh_learned: Vec::new(),
            conflicts_since_restart: 0,
            luby_index: 1,
            ops: 0,
            result: None,
        }
    }

    /// Search statistics so far.
    pub fn stats(&self) -> CdclStats {
        self.stats
    }

    /// Search operations (decisions + conflicts) executed so far — the
    /// deterministic progress clock a portfolio epoch budget counts in.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// The verdict, once the search has decided the formula.
    pub fn result(&self) -> Option<&SatResult> {
        self.result.as_ref()
    }

    #[inline]
    fn lit_value(&self, lit: Lit) -> Option<bool> {
        self.values[lit.var().0 as usize].map(|v| v == lit.demanded_value())
    }

    fn assign(&mut self, lit: Lit, decision: bool) {
        debug_assert!(self.lit_value(lit).is_none());
        self.values[lit.var().0 as usize] = Some(lit.demanded_value());
        self.trail.push(TrailEntry { lit, decision });
    }

    /// Naive unit propagation: rescan the database until fixpoint. Fine at
    /// benchmark scale; watched literals would replace this in a
    /// production solver.
    fn propagate(&mut self) -> Propagated {
        loop {
            let mut changed = false;
            for ci in 0..self.clauses.len() {
                let mut unassigned: Option<Lit> = None;
                let mut satisfied = false;
                let mut unassigned_count = 0;
                for &lit in self.clauses[ci].lits() {
                    match self.lit_value(lit) {
                        Some(true) => {
                            satisfied = true;
                            break;
                        }
                        Some(false) => {}
                        None => {
                            unassigned_count += 1;
                            unassigned = Some(lit);
                        }
                    }
                }
                if satisfied {
                    continue;
                }
                match unassigned_count {
                    0 => {
                        self.stats.conflicts += 1;
                        return Propagated::Conflict;
                    }
                    1 => {
                        self.assign(unassigned.expect("counted"), false);
                        self.stats.propagations += 1;
                        changed = true;
                    }
                    _ => {}
                }
            }
            if !changed {
                return Propagated::Ok;
            }
        }
    }

    /// Whether every clause is satisfied under the current assignment.
    fn all_satisfied(&self) -> bool {
        self.clauses.iter().all(|c| {
            c.lits()
                .iter()
                .any(|&lit| self.lit_value(lit) == Some(true))
        })
    }

    /// First unassigned literal of the first unsatisfied clause, scanning
    /// from the seed-rotated start.
    fn pick_branch(&self) -> Option<Lit> {
        let n = self.clauses.len();
        if n == 0 {
            return None;
        }
        let rot = (self.cfg.seed % n as u64) as usize;
        for k in 0..n {
            let clause = &self.clauses[(k + rot) % n];
            let mut satisfied = false;
            let mut candidate = None;
            for &lit in clause.lits() {
                match self.lit_value(lit) {
                    Some(true) => {
                        satisfied = true;
                        break;
                    }
                    Some(false) => {}
                    None => {
                        if candidate.is_none() {
                            candidate = Some(lit);
                        }
                    }
                }
            }
            if !satisfied {
                if let Some(lit) = candidate {
                    return Some(lit);
                }
            }
        }
        None
    }

    /// Negated decisions on the current path: the learned clause. Every
    /// literal sits at its own decision level, so the clause's LBD (the
    /// number of distinct levels) equals its length.
    fn decision_negation_clause(&self) -> Clause {
        self.trail
            .iter()
            .filter(|e| e.decision)
            .map(|e| e.lit.negated())
            .collect()
    }

    /// Pops the deepest decision level entirely.
    fn backjump(&mut self) {
        let start = self.level_starts.pop().expect("level exists");
        for entry in self.trail.drain(start..) {
            self.values[entry.lit.var().0 as usize] = None;
        }
    }

    /// Pops every decision level (a restart). Learned clauses survive, so
    /// no refutation work is lost.
    fn restart(&mut self) {
        while !self.level_starts.is_empty() {
            self.backjump();
        }
        self.stats.restarts += 1;
        self.conflicts_since_restart = 0;
        self.luby_index += 1;
    }

    /// The conflict count that triggers the next restart, if any.
    fn restart_threshold(&self) -> Option<u64> {
        match self.cfg.restart {
            RestartPolicy::Off => None,
            RestartPolicy::Fixed(n) => Some(n),
            RestartPolicy::Luby(base) => Some(base.saturating_mul(luby(self.luby_index))),
        }
    }

    fn current_model(&self) -> Model {
        self.values.iter().map(|v| v.unwrap_or(false)).collect()
    }

    /// Drains the clauses learned since the last export, keeping only
    /// those within the `max_len`/`max_lbd` budgets (for decision-
    /// negation clauses LBD equals length, so the effective cap is the
    /// smaller of the two). Clauses over budget are dropped from the
    /// export buffer — they stay in this solver's own database.
    pub fn export_learned(&mut self, max_len: usize, max_lbd: usize) -> Vec<Clause> {
        let cap = max_len.min(max_lbd);
        self.fresh_learned
            .drain(..)
            .filter(|c| c.len() <= cap)
            .collect()
    }

    /// Imports lemmas learned by another solver of the *same formula*
    /// (anything implied by the formula is sound to add). Returns how
    /// many clauses were absorbed. A clause falsified under the current
    /// trail simply surfaces as a conflict at the next propagation, which
    /// the ordinary learning machinery handles.
    pub fn import_clauses<'a>(&mut self, clauses: impl IntoIterator<Item = &'a Clause>) -> u64 {
        let mut absorbed = 0;
        for clause in clauses {
            self.clauses.push(clause.clone());
            self.stats.imported += 1;
            absorbed += 1;
        }
        absorbed
    }

    /// Runs up to `budget` search operations (decisions + conflicts).
    /// Deterministic: the same solver driven through any partition of the
    /// same total budget reaches the same state.
    pub fn run(&mut self, budget: u64) -> CdclStatus {
        if let Some(result) = &self.result {
            return CdclStatus::Done(result.clone());
        }
        let target = self.ops.saturating_add(budget);
        loop {
            if self.ops >= target {
                return CdclStatus::Budget;
            }
            match self.propagate() {
                Propagated::Conflict => {
                    self.ops += 1;
                    if self.level_starts.is_empty() {
                        // Conflict with no decisions: the formula itself is
                        // contradictory.
                        self.result = Some(SatResult::Unsat);
                        return CdclStatus::Done(SatResult::Unsat);
                    }
                    let learned = self.decision_negation_clause();
                    debug_assert!(!learned.is_empty());
                    self.stats.learned += 1;
                    self.clauses.push(learned.clone());
                    self.fresh_learned.push(learned);
                    self.conflicts_since_restart += 1;
                    // Non-chronological in effect: after popping one level
                    // the learned clause is unit (all other negated
                    // decisions still hold), so propagation immediately
                    // drives the search down the untried branch — and any
                    // *future* path sharing a decision prefix is pruned.
                    match self.restart_threshold() {
                        Some(t) if self.conflicts_since_restart >= t => self.restart(),
                        _ => self.backjump(),
                    }
                }
                Propagated::Ok => {
                    if self.all_satisfied() {
                        let model = self.current_model();
                        let result = SatResult::Sat(model);
                        self.result = Some(result.clone());
                        return CdclStatus::Done(result);
                    }
                    let mut lit = self
                        .pick_branch()
                        .expect("unsatisfied clause has an unassigned literal");
                    if self.cfg.polarity == Polarity::Negative {
                        lit = lit.negated();
                    }
                    self.ops += 1;
                    self.stats.decisions += 1;
                    self.level_starts.push(self.trail.len());
                    self.assign(lit, true);
                }
            }
        }
    }
}

/// Solves `cnf` with clause learning and backjumping (classic knobs:
/// no restarts, positive polarity, unrotated scan).
///
/// The returned model (if any) is debug-verified against the input.
pub fn solve(cnf: &Cnf) -> (SatResult, CdclStats) {
    let mut solver = CdclSolver::new(cnf, CdclConfig::default());
    let result = match solver.run(u64::MAX) {
        CdclStatus::Done(result) => result,
        CdclStatus::Budget => unreachable!("unbounded budget"),
    };
    if let SatResult::Sat(model) = &result {
        debug_assert!(check_model(cnf, model), "cdcl produced invalid model");
    }
    (result, solver.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use crate::dpll;
    use crate::gen;
    use crate::heuristics::Heuristic;

    fn cnf(clauses: &[&[i32]], vars: u32) -> Cnf {
        Cnf::new(
            vars,
            clauses
                .iter()
                .map(|c| c.iter().map(|&d| Lit::from_dimacs(d)).collect())
                .collect(),
        )
    }

    #[test]
    fn trivial_cases() {
        assert!(solve(&cnf(&[], 1)).0.is_sat());
        assert_eq!(solve(&cnf(&[&[1], &[-1]], 1)).0, SatResult::Unsat);
        assert!(solve(&cnf(&[&[1]], 1)).0.is_sat());
    }

    #[test]
    fn agrees_with_oracle_on_random_population() {
        for seed in 0..40u64 {
            let f = gen::random_ksat(seed, 9, 42, 3);
            let (result, _) = solve(&f);
            let oracle = brute::solve(&f);
            assert_eq!(result.is_sat(), oracle.is_sat(), "seed {seed}");
            if let SatResult::Sat(model) = result {
                assert!(check_model(&f, &model), "seed {seed}");
            }
        }
    }

    #[test]
    fn learns_clauses_on_unsat_instances() {
        // PHP(3,2): forces conflicts.
        let mut clauses: Vec<Vec<i32>> = Vec::new();
        for i in 0..3i32 {
            clauses.push(vec![i * 2 + 1, i * 2 + 2]);
        }
        for h in 0..2i32 {
            for i in 0..3i32 {
                for j in (i + 1)..3i32 {
                    clauses.push(vec![-(i * 2 + h + 1), -(j * 2 + h + 1)]);
                }
            }
        }
        let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        let f = cnf(&refs, 6);
        let (result, stats) = solve(&f);
        assert_eq!(result, SatResult::Unsat);
        assert!(stats.conflicts > 0);
        assert!(stats.learned > 0);
    }

    #[test]
    fn solves_uf20_instances() {
        for seed in 0..3 {
            let f = gen::uf20_91(seed);
            let (result, stats) = solve(&f);
            let SatResult::Sat(model) = result else {
                panic!("uf20-91 is satisfiable (seed {seed})");
            };
            assert!(check_model(&f, &model));
            assert!(stats.decisions > 0);
        }
    }

    #[test]
    fn no_more_decisions_than_plain_dpll_on_unsat() {
        // On UNSAT instances (where the whole tree must be refuted) the
        // learned clauses prune repeated prefixes, so CDCL-lite should not
        // need more decisions than barebone DPLL explores nodes.
        for seed in 0..10u64 {
            let f = gen::random_ksat(seed, 10, 55, 3); // ratio 5.5: mostly unsat
            if brute::solve(&f).is_sat() {
                continue;
            }
            let (r1, cdcl_stats) = solve(&f);
            let (r2, dpll_stats) = dpll::solve(&f, Heuristic::FirstUnassigned);
            assert_eq!(r1, SatResult::Unsat);
            assert_eq!(r2, SatResult::Unsat);
            assert!(
                cdcl_stats.decisions <= dpll_stats.nodes,
                "seed {seed}: {} decisions vs {} nodes",
                cdcl_stats.decisions,
                dpll_stats.nodes
            );
        }
    }

    #[test]
    fn luby_sequence_is_reluctant_doubling() {
        let seq: Vec<u64> = (1..=15).map(luby).collect();
        assert_eq!(seq, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn bounded_runs_compose_to_the_unbounded_result() {
        // Driving the solver in tiny budget slices must visit exactly the
        // same search (same stats, same verdict) as one unbounded call —
        // the determinism contract portfolio epochs rely on.
        for seed in [0u64, 3, 11, 19] {
            let f = gen::random_ksat(seed, 9, 46, 3);
            let (oracle_result, oracle_stats) = solve(&f);
            let mut solver = CdclSolver::new(&f, CdclConfig::default());
            let mut slices = 0;
            let result = loop {
                match solver.run(3) {
                    CdclStatus::Done(result) => break result,
                    CdclStatus::Budget => slices += 1,
                }
                assert!(slices < 100_000, "seed {seed}: runaway");
            };
            assert_eq!(result, oracle_result, "seed {seed}");
            assert_eq!(solver.stats(), oracle_stats, "seed {seed}");
            assert_eq!(
                solver.ops(),
                oracle_stats.decisions + oracle_stats.conflicts,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn restart_policies_stay_correct() {
        for seed in 0..12u64 {
            let f = gen::random_ksat(seed, 9, 48, 3);
            let oracle = brute::solve(&f);
            for restart in [RestartPolicy::Fixed(2), RestartPolicy::Luby(1)] {
                let mut solver = CdclSolver::new(
                    &f,
                    CdclConfig {
                        restart,
                        ..CdclConfig::default()
                    },
                );
                let CdclStatus::Done(result) = solver.run(u64::MAX) else {
                    panic!("unbounded run must finish");
                };
                assert_eq!(result.is_sat(), oracle.is_sat(), "seed {seed} {restart}");
                if let SatResult::Sat(model) = result {
                    assert!(check_model(&f, &model), "seed {seed} {restart}");
                }
            }
        }
    }

    #[test]
    fn diversification_knobs_stay_correct() {
        for seed in 0..12u64 {
            let f = gen::random_ksat(seed, 9, 48, 3);
            let oracle = brute::solve(&f);
            for cfg in [
                CdclConfig {
                    polarity: Polarity::Negative,
                    ..CdclConfig::default()
                },
                CdclConfig {
                    seed: 7,
                    ..CdclConfig::default()
                },
                CdclConfig {
                    restart: RestartPolicy::Luby(2),
                    polarity: Polarity::Negative,
                    seed: 13,
                },
            ] {
                let mut solver = CdclSolver::new(&f, cfg);
                let CdclStatus::Done(result) = solver.run(u64::MAX) else {
                    panic!("unbounded run must finish");
                };
                assert_eq!(result.is_sat(), oracle.is_sat(), "seed {seed} {cfg:?}");
            }
        }
    }

    #[test]
    fn exported_lemmas_are_implied_and_bounded() {
        let f = gen::random_ksat(5, 10, 55, 3);
        let mut solver = CdclSolver::new(&f, CdclConfig::default());
        let _ = solver.run(u64::MAX);
        let mut exporter = CdclSolver::new(&f, CdclConfig::default());
        let _ = exporter.run(40);
        let lemmas = exporter.export_learned(4, 4);
        assert!(lemmas.iter().all(|c| c.len() <= 4), "budget respected");
        // A drained buffer exports nothing twice.
        assert!(exporter.export_learned(4, 4).is_empty());
        // Every decision-negation lemma is implied: adding it to a fresh
        // solver must not change the verdict.
        let (plain, _) = solve(&f);
        let mut importer = CdclSolver::new(&f, CdclConfig::default());
        let absorbed = importer.import_clauses(lemmas.iter());
        assert_eq!(absorbed, lemmas.len() as u64);
        assert_eq!(importer.stats().imported, absorbed);
        let CdclStatus::Done(result) = importer.run(u64::MAX) else {
            panic!("unbounded run must finish");
        };
        assert_eq!(result.is_sat(), plain.is_sat());
    }

    #[test]
    fn imported_lemmas_can_only_shrink_the_search() {
        // Share every short lemma from a finished refutation into a fresh
        // solver: the importer must refute with no more decisions.
        for seed in 0..10u64 {
            let f = gen::random_ksat(seed, 10, 58, 3);
            let (result, base_stats) = solve(&f);
            if result.is_sat() {
                continue;
            }
            let mut donor = CdclSolver::new(&f, CdclConfig::default());
            let _ = donor.run(u64::MAX);
            let lemmas = donor.export_learned(usize::MAX, usize::MAX);
            let mut importer = CdclSolver::new(&f, CdclConfig::default());
            importer.import_clauses(lemmas.iter());
            let CdclStatus::Done(result) = importer.run(u64::MAX) else {
                panic!("unbounded run must finish");
            };
            assert_eq!(result, SatResult::Unsat, "seed {seed}");
            assert!(
                importer.stats().decisions <= base_stats.decisions,
                "seed {seed}: {} vs {}",
                importer.stats().decisions,
                base_stats.decisions
            );
        }
    }
}
