//! Model `Mutex`/`Condvar` with the same shape as the std backend of
//! [`crate::sync`], so the whole runtime compiles unchanged under
//! `--cfg loom`.
//!
//! Lock/unlock, wait/notify and timed-wait are all visible scheduling
//! points. The mutex carries a vector clock joined on every release and
//! acquired on every acquisition (critical sections happen-before later
//! ones). Wake-ups use barging semantics: an unlock readies *all* waiters
//! and the scheduler explores every acquisition order. A timed wait
//! ([`Condvar::wait_timeout`]) parks the thread as
//! "blocked-but-may-time-out": the timeout firing is one more explorable
//! scheduling decision, which is exactly what lets the watchdog models
//! prove that a missed notify is survivable with a timed wait and a
//! deadlock with a plain one. There is no poisoning — a panicking model
//! thread aborts the whole execution and is reported by the explorer.

use super::sched::{self, WakeReason};
use core::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::Mutex as OsMutex;
use std::time::Duration;

struct MState {
    held: bool,
    clock: sched::VClock,
    waiters: Vec<usize>,
}

/// Model mutex; API-compatible with the std-backed `sync::Mutex`.
pub struct Mutex<T: ?Sized> {
    s: OsMutex<MState>,
    data: UnsafeCell<T>,
}

// SAFETY: the model scheduler enforces that `data` is only reachable
// through a held guard (`held` flag + single running thread), giving the
// same exclusion guarantee as a real mutex.
unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
// SAFETY: the same argument as for `Send`.
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

impl<T> Mutex<T> {
    /// Wrap a value.
    pub fn new(value: T) -> Mutex<T> {
        Mutex {
            s: OsMutex::new(MState {
                held: false,
                clock: sched::VClock::default(),
                // ALLOC: model-checker bookkeeping, never a production path.
                waiters: Vec::new(),
            }),
            data: UnsafeCell::new(value),
        }
    }

    /// Consume the mutex and return the inner value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock; a visible scheduling point.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        sched::yield_point();
        loop {
            let acquired = sched::with_exec(|st, me| {
                let mut s = self.s.lock().unwrap();
                if s.held {
                    s.waiters.push(me);
                    false
                } else {
                    s.held = true;
                    let published = s.clock.clone();
                    st.clocks[me].join(&published);
                    true
                }
            });
            if acquired {
                return MutexGuard { m: self };
            }
            // Being rescheduled after the park is the retry op.
            sched::block_current(false, "mutex lock");
        }
    }

    fn raw_unlock(&self) {
        let waiters = sched::with_exec(|st, me| {
            let mut s = self.s.lock().unwrap();
            debug_assert!(s.held, "unlock of an unheld model mutex");
            s.held = false;
            let mine = st.clocks[me].clone();
            s.clock.join(&mine);
            std::mem::take(&mut s.waiters)
        });
        sched::make_ready(&waiters);
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Mutex(model)")
    }
}

/// Guard for the model [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    m: &'a Mutex<T>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard exists only while `held` is true for this
        // thread; the scheduler runs one thread at a time.
        unsafe { &*self.m.data.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref` — exclusive while held.
        unsafe { &mut *self.m.data.get() }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Unlock is a visible op, except during an unwind (an aborting
        // execution must not re-enter the scheduler from a panic).
        if !std::thread::panicking() {
            sched::yield_point();
        }
        self.m.raw_unlock();
    }
}

struct CvState {
    waiters: Vec<usize>,
}

/// Model condvar; API-compatible with the std-backed `sync::Condvar`.
pub struct Condvar {
    s: OsMutex<CvState>,
}

impl Condvar {
    /// New condvar.
    pub fn new() -> Condvar {
        Condvar {
            s: OsMutex::new(CvState {
                // ALLOC: model-checker bookkeeping, never a production path.
                waiters: Vec::new(),
            }),
        }
    }

    fn wait_inner<'a, T: ?Sized>(
        &self,
        guard: MutexGuard<'a, T>,
        can_timeout: bool,
    ) -> MutexGuard<'a, T> {
        let m = guard.m;
        // The wait op: register, release the mutex, park — atomic with
        // respect to the model scheduler (no yield until the park).
        sched::yield_point();
        sched::with_exec(|_st, me| {
            self.s.lock().unwrap().waiters.push(me);
        });
        std::mem::forget(guard);
        m.raw_unlock();
        let reason = sched::block_current(can_timeout, "condvar wait");
        if reason == WakeReason::Timeout {
            // Timed out: nobody notified us, deregister.
            sched::with_exec(|_st, me| {
                self.s.lock().unwrap().waiters.retain(|&w| w != me);
            });
        }
        m.lock()
    }

    /// Block until notified.
    pub fn wait<'a, T: ?Sized>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.wait_inner(guard, false)
    }

    /// Block until notified or "the timeout elapses" — in the model, the
    /// timeout is a scheduling decision, not wall-clock time.
    pub fn wait_timeout<'a, T: ?Sized>(
        &self,
        guard: MutexGuard<'a, T>,
        _timeout: Duration,
    ) -> MutexGuard<'a, T> {
        self.wait_inner(guard, true)
    }

    /// Wake one waiter (the longest-waiting one; a lost notify — no
    /// waiter registered — is a no-op, exactly the hazard the shutdown
    /// models probe).
    pub fn notify_one(&self) {
        sched::yield_point();
        let woken = sched::with_exec(|_st, _me| {
            let mut s = self.s.lock().unwrap();
            if s.waiters.is_empty() {
                None
            } else {
                Some(s.waiters.remove(0))
            }
        });
        if let Some(w) = woken {
            sched::make_ready(&[w]);
        }
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        sched::yield_point();
        let woken = sched::with_exec(|_st, _me| std::mem::take(&mut self.s.lock().unwrap().waiters));
        sched::make_ready(&woken);
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Condvar(model)")
    }
}
