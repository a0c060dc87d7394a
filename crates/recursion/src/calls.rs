//! [`Calls`]: a batch of sub-call arguments that holds one or two inline.

use std::ops::Deref;
use std::{slice, vec};

/// A batch of sub-call arguments, in issue order.
///
/// DPLL and knapsack spawn two calls, Listing 3's `sum` one, so a batch of
/// up to two lives inline and spawning it allocates nothing; a wider batch
/// (N-Queens, TSP) spills to a `Vec`. Layer 4 keeps the tickets of a call
/// record's sub-calls in the same shape, and hands an `All` join's results
/// back in it too. A batch reads as a slice in issue order.
///
/// ```
/// use hyperspace_recursion::Calls;
///
/// let calls = Calls::two(1, 2);
/// assert_eq!(calls.len(), 2);
/// assert_eq!(calls.into_iter().collect::<Vec<_>>(), [1, 2]);
/// let wide: Calls<u32> = (0..5).collect();
/// assert_eq!(wide.iter().sum::<u32>(), 10);
/// ```
#[derive(Clone, Debug)]
pub struct Calls<A>(Repr<A>);

/// Equal batches hold equal calls in the same order, however they are
/// stored (a cleared spilled batch refilled with two still spills).
impl<A: PartialEq> PartialEq for Calls<A> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<A: Eq> Eq for Calls<A> {}

#[derive(Clone, Debug)]
enum Repr<A> {
    Zero,
    One(A),
    Two([A; 2]),
    /// Any length: wider batches, and a cleared batch that had spilled,
    /// which keeps its buffer for the next one.
    Spilled(Vec<A>),
}

impl<A> Calls<A> {
    /// The empty batch (a degenerate spawn resumes at once).
    pub const fn new() -> Self {
        Calls(Repr::Zero)
    }

    /// A batch of one call.
    pub const fn one(a: A) -> Self {
        Calls(Repr::One(a))
    }

    /// A batch of two calls, `a` issued first.
    pub const fn two(a: A, b: A) -> Self {
        Calls(Repr::Two([a, b]))
    }

    /// Appends a call; the third spills the batch to a `Vec`.
    pub fn push(&mut self, c: A) {
        self.0 = match std::mem::replace(&mut self.0, Repr::Zero) {
            Repr::Zero => Repr::One(c),
            Repr::One(a) => Repr::Two([a, c]),
            Repr::Two([a, b]) => {
                // `Vec`'s own first capacity for small elements.
                let mut v = Vec::with_capacity(4);
                v.extend([a, b, c]);
                Repr::Spilled(v)
            }
            Repr::Spilled(mut v) => {
                v.push(c);
                Repr::Spilled(v)
            }
        };
    }

    /// Empties the batch. One that had spilled keeps its buffer, so a
    /// batch reused for wide spawns allocates only the first time.
    pub fn clear(&mut self) {
        match &mut self.0 {
            Repr::Spilled(v) => v.clear(),
            inline => *inline = Repr::Zero,
        }
    }
}

/// The calls in issue order.
impl<A> Deref for Calls<A> {
    type Target = [A];

    fn deref(&self) -> &[A] {
        match &self.0 {
            Repr::Zero => &[],
            Repr::One(a) => slice::from_ref(a),
            Repr::Two(pair) => pair,
            Repr::Spilled(v) => v,
        }
    }
}

impl<A> Default for Calls<A> {
    fn default() -> Self {
        Calls::new()
    }
}

/// A batch of up to two moves inline (the `Vec`'s buffer is freed).
impl<A> From<Vec<A>> for Calls<A> {
    fn from(mut v: Vec<A>) -> Self {
        Calls(match v.len() {
            0 => Repr::Zero,
            1 => Repr::One(v.pop().expect("len checked")),
            2 => {
                let b = v.pop().expect("len checked");
                Repr::Two([v.pop().expect("len checked"), b])
            }
            _ => Repr::Spilled(v),
        })
    }
}

impl<A> FromIterator<A> for Calls<A> {
    fn from_iter<I: IntoIterator<Item = A>>(iter: I) -> Self {
        let mut calls = Calls::new();
        for c in iter {
            calls.push(c);
        }
        calls
    }
}

/// Owning iterator over a [`Calls`] batch, in issue order.
pub struct IntoIter<A>(IterRepr<A>);

enum IterRepr<A> {
    Inline(Option<A>, Option<A>),
    Spilled(vec::IntoIter<A>),
}

impl<A> Iterator for IntoIter<A> {
    type Item = A;

    fn next(&mut self) -> Option<A> {
        match &mut self.0 {
            IterRepr::Inline(first, second) => first.take().or_else(|| second.take()),
            IterRepr::Spilled(rest) => rest.next(),
        }
    }
}

impl<A> IntoIterator for Calls<A> {
    type Item = A;
    type IntoIter = IntoIter<A>;

    fn into_iter(self) -> IntoIter<A> {
        IntoIter(match self.0 {
            Repr::Zero => IterRepr::Inline(None, None),
            Repr::One(a) => IterRepr::Inline(Some(a), None),
            Repr::Two([a, b]) => IterRepr::Inline(Some(a), Some(b)),
            Repr::Spilled(v) => IterRepr::Spilled(v.into_iter()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spilled<A>(calls: &Calls<A>) -> bool {
        matches!(calls.0, Repr::Spilled(_))
    }

    #[test]
    fn every_way_in_keeps_the_issue_order() {
        for n in [0, 1, 2, 5] {
            let expected: Vec<u32> = (10..10 + n).collect();
            let pushed = {
                let mut calls = Calls::new();
                for &c in &expected {
                    calls.push(c);
                }
                calls
            };
            let collected: Calls<u32> = expected.iter().copied().collect();
            let converted = Calls::from(expected.clone());
            for calls in [pushed, collected, converted] {
                assert_eq!(calls.len(), n as usize);
                assert_eq!(calls.is_empty(), n == 0);
                assert_eq!(*calls, expected);
                assert!(calls.iter().eq(&expected));
                assert_eq!(spilled(&calls), n > 2, "{n} calls");
                assert_eq!(calls.into_iter().collect::<Vec<_>>(), expected);
            }
        }
        assert_eq!(*Calls::one(7), [7]);
        assert_eq!(*Calls::two(7, 8), [7, 8]);
    }

    #[test]
    fn only_a_third_call_spills() {
        let mut calls = Calls::new();
        calls.push("a");
        calls.push("b");
        assert!(!spilled(&calls));
        calls.push("c");
        assert!(spilled(&calls));
        // A cleared spilled batch keeps its buffer for the next batch.
        let capacity = |calls: &Calls<&str>| match &calls.0 {
            Repr::Spilled(v) => v.capacity(),
            _ => 0,
        };
        let before = capacity(&calls);
        calls.clear();
        assert!(calls.is_empty() && spilled(&calls));
        calls.push("d");
        assert_eq!((&*calls, capacity(&calls)), (&["d"][..], before));
        // Equality reads the calls, not how they are held.
        assert_eq!(calls, Calls::one("d"));
        // An inline one empties outright.
        let mut two = Calls::two(1, 2);
        two.clear();
        assert!(matches!(two.0, Repr::Zero));
    }

    #[test]
    fn a_partly_consumed_batch_drops_the_rest() {
        use std::rc::Rc;
        let token = Rc::new(());
        for n in [1, 2, 5] {
            let mut rest = (0..n)
                .map(|_| Rc::clone(&token))
                .collect::<Calls<_>>()
                .into_iter();
            rest.next();
            assert_eq!(Rc::strong_count(&token), n);
            drop(rest);
            assert_eq!(Rc::strong_count(&token), 1);
        }
    }
}
