//! Cooperative run control: stop flags and wall-clock deadlines.
//!
//! The paper's runs always execute to quiescence, but a solver *service*
//! needs to bound work: jobs carry deadlines, and callers can withdraw a
//! running job. A [`StopHandle`] is a cheap cloneable token checked by
//! the step loop ([`crate::Simulation::run_to_quiescence`]), inline or
//! on the sharded driver's worker threads; when it trips, the run ends
//! with [`crate::RunOutcome::Stopped`] instead of running to completion.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A cloneable token that asks a running backend to stop cooperatively.
///
/// Trips either explicitly ([`StopHandle::stop`]) or implicitly once an
/// optional wall-clock deadline passes. All clones share the explicit
/// flag, so any holder can stop every backend polling the handle.
#[derive(Clone, Debug, Default)]
pub struct StopHandle {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl StopHandle {
    /// A handle that only trips explicitly.
    pub fn new() -> Self {
        StopHandle::default()
    }

    /// A handle that also trips once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        StopHandle {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Some(deadline),
        }
    }

    /// Tightens the deadline on this handle: the effective deadline is
    /// the *earlier* of any existing one and `deadline`, so composing
    /// budgets can only shorten a run, never quietly extend it. Only
    /// this clone and clones made from it afterwards observe the new
    /// deadline; the explicit flag remains shared.
    pub fn until(mut self, deadline: Instant) -> Self {
        self.deadline = Some(match self.deadline {
            Some(existing) => existing.min(deadline),
            None => deadline,
        });
        self
    }

    /// Trips the explicit stop flag on every clone of this handle.
    pub fn stop(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// The wall-clock deadline, if one is set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Whether the handle has tripped (flag raised or deadline passed).
    pub fn should_stop(&self) -> bool {
        if self.flag.load(Ordering::Relaxed) {
            return true;
        }
        match self.deadline {
            Some(d) => Instant::now() >= d,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn explicit_stop_is_shared_across_clones() {
        let a = StopHandle::new();
        let b = a.clone();
        assert!(!a.should_stop() && !b.should_stop());
        b.stop();
        assert!(a.should_stop() && a.flag.load(Ordering::SeqCst));
    }

    #[test]
    fn deadline_trips_without_flag() {
        let h = StopHandle::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(h.should_stop());
        assert!(!h.flag.load(Ordering::SeqCst));
        let later = StopHandle::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!later.should_stop());
    }

    #[test]
    fn until_attaches_deadline_but_keeps_shared_flag() {
        let a = StopHandle::new();
        let b = a.clone().until(Instant::now() - Duration::from_millis(1));
        assert!(b.should_stop());
        assert!(!a.should_stop());
        a.stop();
        assert!(b.flag.load(Ordering::SeqCst));
    }

    #[test]
    fn until_only_tightens_an_existing_deadline() {
        // A later `until` must not quietly extend an earlier budget.
        let tight = Instant::now() - Duration::from_millis(1);
        let loose = Instant::now() + Duration::from_secs(3600);
        let h = StopHandle::with_deadline(tight).until(loose);
        assert_eq!(h.deadline(), Some(tight));
        assert!(h.should_stop());
        // The other direction does tighten.
        let h = StopHandle::with_deadline(loose).until(tight);
        assert_eq!(h.deadline(), Some(tight));
    }
}
