//! CNF formula representation: packed literals, the flat [`Cnf`] and the
//! owned [`Clause`] it is built from.

/// A propositional variable, 0-based.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

/// A literal: a variable or its negation, packed as `var * 2 + negated`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `var`.
    #[inline]
    pub fn pos(var: Var) -> Lit {
        Lit(var.0 << 1)
    }

    /// The negative literal of `var`.
    #[inline]
    pub fn neg(var: Var) -> Lit {
        Lit((var.0 << 1) | 1)
    }

    /// Builds a literal with the given polarity (`true` = positive).
    #[inline]
    pub fn with_polarity(var: Var, positive: bool) -> Lit {
        if positive {
            Lit::pos(var)
        } else {
            Lit::neg(var)
        }
    }

    /// The underlying variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether this is the positive literal.
    #[inline]
    pub fn is_pos(self) -> bool {
        self.0 & 1 == 0
    }

    /// The opposite literal of the same variable.
    #[inline]
    pub fn negated(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// The truth value this literal demands of its variable.
    #[inline]
    pub fn demanded_value(self) -> bool {
        self.is_pos()
    }

    /// Dense index usable for occurrence tables (`0..2 * num_vars`).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Parses a non-zero DIMACS literal (`3` ⇒ x2 positive, `-1` ⇒ x0
    /// negated).
    pub fn from_dimacs(lit: i32) -> Lit {
        assert!(lit != 0, "DIMACS literal cannot be zero");
        let var = Var(lit.unsigned_abs() - 1);
        Lit::with_polarity(var, lit > 0)
    }

    /// Serialises to DIMACS convention.
    pub fn to_dimacs(self) -> i32 {
        let v = (self.var().0 + 1) as i32;
        if self.is_pos() {
            v
        } else {
            -v
        }
    }
}

impl std::fmt::Debug for Lit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_dimacs())
    }
}

/// An owned disjunction of literals: what a [`Cnf`] is constructed from
/// and what clause learning produces. Inside a [`Cnf`] a clause is a
/// borrowed `&[Lit]` view instead.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Clause {
    lits: Vec<Lit>,
}

impl Clause {
    /// Builds a clause from literals.
    pub fn new(lits: Vec<Lit>) -> Clause {
        Clause { lits }
    }

    /// The literals.
    pub fn lits(&self) -> &[Lit] {
        &self.lits
    }

    /// Number of literals.
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// An empty clause is unsatisfiable.
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }
}

impl FromIterator<Lit> for Clause {
    fn from_iter<I: IntoIterator<Item = Lit>>(iter: I) -> Clause {
        Clause {
            lits: iter.into_iter().collect(),
        }
    }
}

/// A complete truth assignment, indexed by variable.
pub type Model = Vec<bool>;

/// A partial truth assignment.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Assignment {
    values: Vec<Option<bool>>,
}

impl Clone for Assignment {
    fn clone(&self) -> Assignment {
        Assignment {
            values: self.values.clone(),
        }
    }

    /// Overwrites this assignment in its own buffer.
    fn clone_from(&mut self, source: &Assignment) {
        self.values.clone_from(&source.values);
    }
}

impl Assignment {
    /// An empty assignment over `num_vars` variables.
    pub fn new(num_vars: u32) -> Assignment {
        Assignment {
            values: vec![None; num_vars as usize],
        }
    }

    /// Value of `var`, if assigned.
    #[inline]
    pub fn value(&self, var: Var) -> Option<bool> {
        self.values[var.0 as usize]
    }

    /// Assigns `var := value`; panics if already assigned differently.
    pub fn assign(&mut self, var: Var, value: bool) {
        let slot = &mut self.values[var.0 as usize];
        assert!(
            slot.is_none() || *slot == Some(value),
            "conflicting assignment of {var:?}"
        );
        *slot = Some(value);
    }

    /// Completes the assignment into a [`Model`], defaulting free variables
    /// to `false` (safe once the reduced formula is empty: no remaining
    /// clause constrains them).
    pub fn complete(&self) -> Model {
        self.values.iter().map(|v| v.unwrap_or(false)).collect()
    }
}

/// A CNF formula in one flat compressed-row layout: every clause's
/// literals back to back in `lits`, clause `i` ending (exclusively) at
/// `ends[i]`. The layout keeps a formula at two buffers whatever its
/// clause count. A search writes no formula after its root: every
/// sub-problem below it reads the root's clauses through counters (see
/// [`simplify`](crate::simplify)).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Cnf {
    num_vars: u32,
    lits: Vec<Lit>,
    ends: Vec<u32>,
}

impl Cnf {
    /// Builds a formula over `num_vars` variables.
    pub fn new(num_vars: u32, clauses: Vec<Clause>) -> Cnf {
        let mut lits = Vec::with_capacity(clauses.iter().map(Clause::len).sum());
        let mut ends = Vec::with_capacity(clauses.len());
        for clause in &clauses {
            lits.extend_from_slice(clause.lits());
            ends.push(u32::try_from(lits.len()).expect("formula holds over u32::MAX literals"));
        }
        debug_assert!(lits.iter().all(|l| l.var().0 < num_vars));
        Cnf {
            num_vars,
            lits,
            ends,
        }
    }

    /// Number of variables in the universe (not all need occur).
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Clause `i` as a borrowed view of its literals.
    pub fn clause(&self, i: usize) -> &[Lit] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.lits[start as usize..self.ends[i] as usize]
    }

    /// The clauses, in order, each a borrowed view of its literals.
    pub fn clauses(&self) -> impl ExactSizeIterator<Item = &[Lit]> + Clone + '_ {
        (0..self.ends.len()).map(|i| self.clause(i))
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.ends.len()
    }

    /// Number of literal occurrences, over all clauses.
    pub(crate) fn num_lits(&self) -> usize {
        self.lits.len()
    }

    /// `consistent(problem)` from Listing 4 line 2: an empty clause set is
    /// trivially satisfied.
    pub fn is_trivially_sat(&self) -> bool {
        self.ends.is_empty()
    }

    /// Clause lengths, in order.
    pub(crate) fn clause_lens(&self) -> impl Iterator<Item = u32> + '_ {
        let mut start = 0;
        self.ends
            .iter()
            .map(move |&end| end - std::mem::replace(&mut start, end))
    }

    /// `exist_empty_clause(problem)` from Listing 4 line 4.
    pub fn has_empty_clause(&self) -> bool {
        self.clause_lens().any(|len| len == 0)
    }

    /// Evaluates the formula under a complete model.
    pub fn eval(&self, model: &Model) -> bool {
        self.clauses().all(|c| {
            c.iter()
                .any(|l| model[l.var().0 as usize] == l.demanded_value())
        })
    }

    /// All literals occurring in the formula (with repetition).
    pub fn iter_lits(&self) -> impl Iterator<Item = Lit> + '_ {
        self.lits.iter().copied()
    }
}

/// Checks a model against a formula (used to validate solver output).
pub fn check_model(cnf: &Cnf, model: &Model) -> bool {
    model.len() == cnf.num_vars() as usize && cnf.eval(model)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(d: i32) -> Lit {
        Lit::from_dimacs(d)
    }

    #[test]
    fn literal_packing() {
        let x0 = Var(0);
        assert!(Lit::pos(x0).is_pos());
        assert!(!Lit::neg(x0).is_pos());
        assert_eq!(Lit::pos(x0).negated(), Lit::neg(x0));
        assert_eq!(Lit::pos(x0).var(), x0);
        assert_eq!(Lit::neg(Var(5)).index(), 11);
    }

    #[test]
    fn dimacs_roundtrip() {
        for d in [-7, -1, 1, 3, 42] {
            assert_eq!(lit(d).to_dimacs(), d);
        }
    }

    #[test]
    #[should_panic(expected = "cannot be zero")]
    fn zero_dimacs_rejected() {
        Lit::from_dimacs(0);
    }

    #[test]
    fn eval_and_check_model() {
        let cnf = Cnf::new(
            2,
            vec![
                Clause::new(vec![lit(1), lit(2)]),
                Clause::new(vec![lit(-1), lit(2)]),
            ],
        );
        assert!(cnf.eval(&vec![false, true]));
        assert!(!cnf.eval(&vec![false, false]));
        assert!(check_model(&cnf, &vec![true, true]));
        assert!(!check_model(&cnf, &vec![true])); // wrong width
    }

    #[test]
    fn assignment_bookkeeping() {
        let mut a = Assignment::new(4);
        a.assign(Var(1), true);
        a.assign(Var(3), false);
        assert_eq!(a.value(Var(1)), Some(true));
        assert_eq!(a.value(Var(0)), None);
        assert_eq!(a.complete(), vec![false, true, false, false]);
    }

    #[test]
    fn reassigning_the_same_value_is_allowed() {
        let mut a = Assignment::new(2);
        a.assign(Var(1), false);
        a.assign(Var(1), false);
        assert_eq!(a.value(Var(1)), Some(false));
    }

    #[test]
    #[should_panic(expected = "conflicting assignment")]
    fn conflicting_reassignment_panics() {
        let mut a = Assignment::new(2);
        a.assign(Var(1), false);
        a.assign(Var(1), true);
    }

    #[test]
    fn clause_views_follow_construction_order() {
        let cnf = Cnf::new(
            3,
            vec![
                Clause::new(vec![lit(1), lit(-2)]),
                Clause::new(vec![]),
                Clause::new(vec![lit(3)]),
            ],
        );
        let views: Vec<&[Lit]> = cnf.clauses().collect();
        assert_eq!(views, [&[lit(1), lit(-2)][..], &[], &[lit(3)]]);
        assert_eq!(cnf.clauses().len(), cnf.num_clauses());
        assert_eq!(cnf.clause(2), [lit(3)]);
        assert_eq!(cnf.iter_lits().count(), 3);
        assert!(cnf.has_empty_clause());
    }

    #[test]
    fn trivial_states() {
        let empty = Cnf::new(2, vec![]);
        assert!(empty.is_trivially_sat());
        assert!(!empty.has_empty_clause());
        let falsum = Cnf::new(2, vec![Clause::new(vec![])]);
        assert!(falsum.has_empty_clause());
        assert!(!falsum.is_trivially_sat());
    }
}
