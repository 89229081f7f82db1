//! The runtime's synchronization shim — the **only** place `rt` code is
//! allowed to get its `Mutex`/`Condvar`/`Arc`/atomics from (enforced by
//! the `lint` binary's shim check; test modules are exempt).
//!
//! Two backends, selected at compile time:
//!
//! * **std** (default): a mutex whose `lock()` never returns a poison
//!   error (a panicking task must not wedge every later lock — the
//!   checked execution layer in [`crate::fault`] owns panic propagation),
//!   a condvar with a timed wait (the stall watchdog must wake blocked
//!   workers periodically), and straight re-exports of `std`'s `Arc`,
//!   `Once` and atomics. Zero external dependencies, zero overhead.
//! * **model** (`--cfg loom`): the in-repo loom-style checker of
//!   [`crate::model`] — every operation becomes an explorable scheduling
//!   point and every memory ordering is interpreted by the vector-clock
//!   model, so the `loom_models` suite checks the runtime's own deque,
//!   budget and trace code, not a transcription of it. `Arc` and `Once`
//!   stay `std` under the model too: the protocols never rely on the
//!   release/acquire edge of an `Arc` drop, and `Once` guards
//!   process-global state (panic hooks) that outlives any model
//!   execution.

#[cfg(not(loom))]
mod backend {
    use std::sync::PoisonError;
    use std::time::Duration;

    pub use std::sync::{Arc, Once};

    /// Re-exported atomics; identical to `std::sync::atomic`.
    pub mod atomic {
        pub use std::sync::atomic::*;
    }

    /// Re-exported guard type; identical to `std::sync::MutexGuard`.
    pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

    /// A mutex that shrugs off poisoning: if a holder panicked, the next
    /// `lock()` simply recovers the inner state. Error handling for
    /// panicking tasks is centralized in the engines' checked execution
    /// paths.
    #[derive(Debug, Default)]
    pub struct Mutex<T: ?Sized> {
        inner: std::sync::Mutex<T>,
    }

    impl<T> Mutex<T> {
        /// Wrap a value.
        pub fn new(value: T) -> Mutex<T> {
            Mutex {
                inner: std::sync::Mutex::new(value),
            }
        }

        /// Consume the mutex and return the inner value.
        pub fn into_inner(self) -> T {
            self.inner
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
        }
    }

    impl<T: ?Sized> Mutex<T> {
        /// Acquire the lock, recovering from poisoning.
        pub fn lock(&self) -> MutexGuard<'_, T> {
            self.inner.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// Condition variable companion of [`Mutex`], also poison-transparent.
    #[derive(Debug, Default)]
    pub struct Condvar {
        inner: std::sync::Condvar,
    }

    impl Condvar {
        /// New condvar.
        pub fn new() -> Condvar {
            Condvar {
                inner: std::sync::Condvar::new(),
            }
        }

        /// Block until notified.
        pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
            self.inner
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner)
        }

        /// Block until notified or `timeout` elapses; returns the
        /// reacquired guard (the caller re-checks its predicate either
        /// way).
        pub fn wait_timeout<'a, T>(
            &self,
            guard: MutexGuard<'a, T>,
            timeout: Duration,
        ) -> MutexGuard<'a, T> {
            self.inner
                .wait_timeout(guard, timeout)
                .unwrap_or_else(PoisonError::into_inner)
                .0
        }

        /// Wake one waiter.
        pub fn notify_one(&self) {
            self.inner.notify_one();
        }

        /// Wake every waiter.
        pub fn notify_all(&self) {
            self.inner.notify_all();
        }
    }
}

#[cfg(loom)]
mod backend {
    pub use crate::model::sync::{Condvar, Mutex, MutexGuard};
    pub use std::sync::{Arc, Once};

    /// Model atomics (std's `Ordering`, interpreted by the vector-clock
    /// model of [`crate::model::atomic`]).
    pub mod atomic {
        pub use crate::model::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
    }
}

pub use backend::*;

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn lock_recovers_from_poison() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison the mutex");
        })
        .join();
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn poisoned_lock_preserves_mutations_made_before_the_panic() {
        // The recovering lock must expose the state as the panicking
        // holder left it — the engines rely on queues staying coherent
        // when a task body panics mid-drain.
        let m = Arc::new(Mutex::new(vec![1, 2, 3]));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let mut g = m2.lock();
            g.push(4);
            panic!("poison after mutating");
        })
        .join();
        assert_eq!(*m.lock(), vec![1, 2, 3, 4]);
        // And the mutex stays fully usable afterwards.
        m.lock().push(5);
        assert_eq!(m.lock().len(), 5);
    }

    #[test]
    fn wait_timeout_returns() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let guard = m.lock();
        let _guard = cv.wait_timeout(guard, Duration::from_millis(5));
    }

    #[test]
    fn wait_timeout_elapses_without_notifier() {
        // With nobody notifying, the timed wait must return in bounded
        // time with the guard reacquired (predicate unchanged).
        let m = Mutex::new(0u32);
        let cv = Condvar::new();
        let start = Instant::now();
        let guard = m.lock();
        let guard = cv.wait_timeout(guard, Duration::from_millis(10));
        assert_eq!(*guard, 0);
        assert!(start.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn wait_timeout_sees_notification() {
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let s2 = Arc::clone(&shared);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*s2;
            *m.lock() = true;
            cv.notify_all();
        });
        let (m, cv) = &*shared;
        let mut guard = m.lock();
        // Timed-wait loop exactly as the dataflow central queue runs it.
        while !*guard {
            guard = cv.wait_timeout(guard, Duration::from_millis(5));
        }
        drop(guard);
        t.join().unwrap();
    }

    #[test]
    fn into_inner_recovers_from_poison() {
        let m = Arc::new(Mutex::new(11u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison");
        })
        .join();
        let m = Arc::try_unwrap(m).expect("sole owner");
        assert_eq!(m.into_inner(), 11);
    }
}
