//! Branching heuristics: which literal to split on (Listing 4 line 12,
//! "using an algorithm-independent heuristic").
//!
//! The returned literal is the *first* branch tried (assigned `true` in its
//! demanded polarity); the sibling branch negates it. All heuristics are
//! deterministic given their inputs (`Random` via an explicit seed), which
//! keeps distributed runs reproducible.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::cnf::{Cnf, Lit, Var};

/// Branching-literal selection policies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Heuristic {
    /// The first literal of the first (shortest-index) clause — the
    /// cheapest possible choice.
    FirstUnassigned,
    /// The variable with the most occurrences, tried in its more frequent
    /// polarity.
    MostFrequent,
    /// Dynamic Largest Individual Sum: the single literal with the most
    /// occurrences.
    Dlis,
    /// Jeroslow–Wang: maximise `J(l) = Σ 2^-|c|` over clauses containing
    /// `l`, weighting short clauses exponentially higher.
    JeroslowWang,
    /// Uniformly random literal from the formula (seeded).
    Random(u64),
}

impl std::fmt::Display for Heuristic {
    /// Canonical spec syntax: `first`, `most-frequent`, `dlis`,
    /// `jeroslow-wang`, `random:SEED`. The seed is part of the rendering —
    /// two differently seeded `Random` heuristics are different
    /// computations, and anything keying on this string (service result
    /// caches in particular) must see them as such.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Heuristic::FirstUnassigned => f.write_str("first"),
            Heuristic::MostFrequent => f.write_str("most-frequent"),
            Heuristic::Dlis => f.write_str("dlis"),
            Heuristic::JeroslowWang => f.write_str("jeroslow-wang"),
            Heuristic::Random(seed) => write!(f, "random:{seed}"),
        }
    }
}

/// Error parsing a [`Heuristic`] or
/// [`SimplifyMode`](crate::simplify::SimplifyMode) from its spec string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SatSpecParseError(pub(crate) String);

impl std::fmt::Display for SatSpecParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid solver spec: {}", self.0)
    }
}

impl std::error::Error for SatSpecParseError {}

impl std::str::FromStr for Heuristic {
    type Err = SatSpecParseError;

    /// Parses the [`Display`](std::fmt::Display) syntax: `first`,
    /// `most-frequent`, `dlis`, `jeroslow-wang`, `random:SEED`.
    fn from_str(s: &str) -> Result<Self, SatSpecParseError> {
        match s {
            "first" => Ok(Heuristic::FirstUnassigned),
            "most-frequent" => Ok(Heuristic::MostFrequent),
            "dlis" => Ok(Heuristic::Dlis),
            "jeroslow-wang" => Ok(Heuristic::JeroslowWang),
            other => match other.strip_prefix("random:") {
                Some(seed) => seed
                    .parse::<u64>()
                    .map(Heuristic::Random)
                    .map_err(|_| SatSpecParseError(format!("{s:?}: bad random seed {seed:?}"))),
                None => Err(SatSpecParseError(format!(
                    "{s:?}: expected first, most-frequent, dlis, jeroslow-wang or random:SEED, got {other:?}"
                ))),
            },
        }
    }
}

impl Heuristic {
    /// Selects the branching literal for a non-trivial formula.
    ///
    /// Returns `None` only for formulas with no literals (which the solver
    /// never passes: those are SAT/UNSAT leaves).
    pub fn select(&self, cnf: &Cnf) -> Option<Lit> {
        match self {
            Heuristic::FirstUnassigned => cnf.iter_lits().next(),
            Heuristic::MostFrequent => most_frequent_var(&occurrence_counts(cnf)),
            Heuristic::Dlis => most_frequent_lit(&occurrence_counts(cnf)),
            Heuristic::JeroslowWang => jeroslow_wang(cnf.num_vars(), clauses(cnf)),
            Heuristic::Random(seed) => {
                random_lit(*seed, cnf.num_vars(), cnf.num_clauses(), clauses(cnf))
            }
        }
    }
}

/// A formula's clauses, in order, each as its length and its literals:
/// the shape [`jeroslow_wang`] and [`random_lit`] read.
fn clauses(cnf: &Cnf) -> impl Iterator<Item = (usize, impl Iterator<Item = Lit> + '_)> + Clone {
    cnf.clauses()
        .map(|clause| (clause.len(), clause.iter().copied()))
}

/// Occurrences of each literal, indexed by [`Lit::index`].
pub(crate) fn occurrence_counts(cnf: &Cnf) -> Vec<i32> {
    let mut counts = vec![0; cnf.num_vars() as usize * 2];
    for lit in cnf.iter_lits() {
        counts[lit.index()] += 1;
    }
    counts
}

/// `MostFrequent` from a formula's [`occurrence_counts`], or from a
/// residual's counts, where a forced variable's sum to less than zero
/// (its true literal's 0, its false one's parked below zero).
pub(crate) fn most_frequent_var(counts: &[i32]) -> Option<Lit> {
    let mut best: Option<(i32, Var, bool)> = None;
    for (v, c) in counts.chunks_exact(2).enumerate() {
        let (pos, neg) = (c[0], c[1]);
        let total = pos + neg;
        if total <= 0 {
            continue;
        }
        if best.is_none_or(|(b, ..)| total > b) {
            best = Some((total, Var(v as u32), pos >= neg));
        }
    }
    best.map(|(_, var, positive)| Lit::with_polarity(var, positive))
}

/// `Dlis` from a formula's [`occurrence_counts`], or from a residual's
/// counts, where a false literal's is below zero: the literal with the
/// most occurrences, the lowest index on a tie.
pub(crate) fn most_frequent_lit(counts: &[i32]) -> Option<Lit> {
    let mut best: Option<(i32, usize)> = None;
    for (idx, &count) in counts.iter().enumerate() {
        if count > 0 && best.is_none_or(|(b, _)| count > b) {
            best = Some((count, idx));
        }
    }
    best.map(|(_, idx)| lit_from_index(idx))
}

/// `JeroslowWang` over a formula over `num_vars` variables given as its
/// clauses in order, each as its length and its literals: a [`Cnf`]'s,
/// or a residual read off counters without writing it. The scores sum in
/// clause order, so both read the same formula alike to the last bit.
pub(crate) fn jeroslow_wang<C: Iterator<Item = Lit>>(
    num_vars: u32,
    clauses: impl Iterator<Item = (usize, C)>,
) -> Option<Lit> {
    let mut scores = vec![0.0f64; num_vars as usize * 2];
    let mut seen = false;
    for (len, lits) in clauses {
        let w = jeroslow_wang_weight(len as i32);
        for lit in lits {
            scores[lit.index()] += w;
            seen = true;
        }
    }
    if !seen {
        return None;
    }
    let (idx, _) = scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("scores are finite"))?;
    Some(lit_from_index(idx))
}

/// A clause's Jeroslow–Wang weight, `2^-len`, written as its bits where
/// the exponent allows: exactly `2f64.powi(-len)`, without the call.
fn jeroslow_wang_weight(len: i32) -> f64 {
    match len {
        0..=1022 => f64::from_bits(((1023 - len) as u64) << 52),
        _ => 2.0f64.powi(-len),
    }
}

/// `Random` with `seed` over a formula of `num_clauses` clauses over
/// `num_vars` variables, given as in [`jeroslow_wang`]: the literal
/// occurrence a stream mixed from the formula's shape draws, so repeated
/// calls at different search depths don't repeat choices.
pub(crate) fn random_lit<C: Iterator<Item = Lit>>(
    seed: u64,
    num_vars: u32,
    num_clauses: usize,
    clauses: impl Iterator<Item = (usize, C)> + Clone,
) -> Option<Lit> {
    let mix = num_clauses as u64 ^ ((num_vars as u64) << 32);
    let mut rng = SmallRng::seed_from_u64(seed ^ mix.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let total: usize = clauses.clone().map(|(len, _)| len).sum();
    if total == 0 {
        return None;
    }
    let mut k = rng.gen_range(0..total);
    for (len, mut lits) in clauses {
        if k < len {
            return lits.nth(k);
        }
        k -= len;
    }
    unreachable!("the draw is below the occurrence count")
}

#[inline]
fn lit_from_index(idx: usize) -> Lit {
    let var = Var((idx / 2) as u32);
    Lit::with_polarity(var, idx.is_multiple_of(2))
}

/// All heuristics, for sweeps and ablations.
pub const ALL_HEURISTICS: [Heuristic; 5] = [
    Heuristic::FirstUnassigned,
    Heuristic::MostFrequent,
    Heuristic::Dlis,
    Heuristic::JeroslowWang,
    Heuristic::Random(0xB01DFACE),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::Clause;

    fn lit(d: i32) -> Lit {
        Lit::from_dimacs(d)
    }

    fn cnf(clauses: &[&[i32]], vars: u32) -> Cnf {
        Cnf::new(
            vars,
            clauses
                .iter()
                .map(|c| c.iter().map(|&d| lit(d)).collect::<Clause>())
                .collect(),
        )
    }

    #[test]
    fn first_picks_first_literal() {
        let f = cnf(&[&[2, -3], &[1]], 3);
        assert_eq!(Heuristic::FirstUnassigned.select(&f), Some(lit(2)));
    }

    #[test]
    fn most_frequent_counts_both_polarities() {
        // x2 occurs 3 times (twice negative); x1 only twice.
        let f = cnf(&[&[1, -2], &[-1, -2], &[2]], 2);
        let picked = Heuristic::MostFrequent.select(&f).unwrap();
        assert_eq!(picked.var(), Var(1));
        assert!(!picked.is_pos(), "negative polarity is more frequent");
    }

    #[test]
    fn dlis_picks_most_frequent_literal() {
        let f = cnf(&[&[1, 2], &[1, 3], &[1, -2], &[-1, 3]], 3);
        assert_eq!(Heuristic::Dlis.select(&f), Some(lit(1)));
    }

    #[test]
    fn jeroslow_wang_prefers_short_clauses() {
        // x3 appears once in a 1-weighted short clause pair; x1 twice in
        // long clauses. JW weight of x3 in two 2-clauses = 0.5; x1 in two
        // 4-clauses = 0.125. Pick x3.
        let f = cnf(&[&[3, 2], &[3, -2], &[1, -2, 4, 5], &[1, 2, -4, -5]], 5);
        assert_eq!(Heuristic::JeroslowWang.select(&f), Some(lit(3)));
    }

    #[test]
    fn jeroslow_wang_weights_are_the_powers_of_two() {
        for len in 0..1100 {
            let weight = jeroslow_wang_weight(len);
            assert_eq!(weight.to_bits(), 2.0f64.powi(-len).to_bits(), "{len}");
        }
    }

    #[test]
    fn random_is_seed_deterministic() {
        let f = cnf(&[&[1, -2], &[2, 3], &[-3, -1]], 3);
        let a = Heuristic::Random(7).select(&f);
        let b = Heuristic::Random(7).select(&f);
        assert_eq!(a, b);
        assert!(a.is_some());
    }

    #[test]
    fn empty_formula_selects_none() {
        let f = cnf(&[], 3);
        for h in ALL_HEURISTICS {
            assert_eq!(h.select(&f), None, "{h}");
        }
    }

    #[test]
    fn display_round_trips() {
        for h in [
            Heuristic::FirstUnassigned,
            Heuristic::MostFrequent,
            Heuristic::Dlis,
            Heuristic::JeroslowWang,
            Heuristic::Random(0),
            Heuristic::Random(u64::MAX),
        ] {
            let text = h.to_string();
            assert_eq!(text.parse::<Heuristic>().unwrap(), h, "{text:?}");
        }
    }

    #[test]
    fn random_display_includes_the_seed() {
        // Regression: the seed-blind rendering ("random") made two
        // differently seeded solvers look like the same computation to
        // the service cache.
        assert_ne!(
            Heuristic::Random(1).to_string(),
            Heuristic::Random(2).to_string()
        );
    }

    #[test]
    fn malformed_heuristics_are_rejected() {
        for bad in ["", "jw", "random", "random:", "random:x", "first:1"] {
            assert!(bad.parse::<Heuristic>().is_err(), "{bad:?} should fail");
        }
    }
}
