//! The engine's lock-poisoning policy, stated once: recover, never propagate.
//!
//! Operators and task bodies run under `catch_unwind` and fail their query
//! through its own error path, and no engine critical section calls into
//! them: each is a few pushes, pops, inserts or flag writes of the engine's
//! own. The exceptions are the morsel driver's packs of part lists: a
//! list's first whole read holds the list's result slot, so that it packs
//! once, and a finishing morsel holds its step's fold state while it packs
//! a cell of small parts, so that cells pack in stream order. A slot's
//! pack replaces the parts only once it succeeded, and a morsel that panics
//! while folding never counts itself done, so its step never publishes the
//! half-folded list. A poisoned lock therefore marks a panic that was
//! already reported, not torn data, and the next thread takes the guard and
//! carries on.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Locks `mutex`, taking the guard even if a previous holder panicked.
pub(crate) fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Blocks on `cv` until notified, handing the re-acquired guard back.
pub(crate) fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Blocks on `cv` until notified or `timeout` elapses.
pub(crate) fn wait_for<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> MutexGuard<'a, T> {
    cv.wait_timeout(guard, timeout).unwrap_or_else(PoisonError::into_inner).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_returns_the_guard_of_a_mutex_whose_holder_panicked() {
        let m = Mutex::new(vec![1]);
        let holder = std::thread::scope(|s| {
            s.spawn(|| {
                let mut g = lock(&m);
                g.push(2);
                panic!("poison it");
            })
            .join()
        });
        assert!(holder.is_err() && m.is_poisoned());
        assert_eq!(*lock(&m), [1, 2]);
        // Condvar waits hand a poisoned guard back the same way.
        let g = wait_for(&Condvar::new(), lock(&m), Duration::from_millis(1));
        assert_eq!(g.len(), 2);
    }
}
