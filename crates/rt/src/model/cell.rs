//! Race-checked non-atomic storage for model tests.
//!
//! [`ModelCell`] plays the role of loom's `UnsafeCell`: the payload a
//! synchronization protocol is supposed to protect. Every access is
//! checked against the FastTrack happens-before invariant —
//!
//! * a read must happen-after the last write,
//! * a write must happen-after the last write *and* every read since it —
//!
//! using the vector clocks maintained by the scheduler. Because the check
//! compares clocks rather than observing timing, an unordered access pair
//! is reported as a data race in *every* execution that performs both
//! accesses, regardless of the order the explorer happened to run them in.
//! Cell accesses are deliberately **not** scheduling points: only the
//! synchronization ops around them branch the exploration.

use super::sched::{self, VClock};
use core::cell::UnsafeCell;
use std::sync::Mutex as OsMutex;

/// Shared non-atomic storage whose accesses are race-checked against the
/// model's happens-before relation.
pub struct ModelCell<T> {
    data: UnsafeCell<T>,
    state: OsMutex<CellState>,
}

struct CellState {
    /// Epoch of the last write: `(thread, timestamp)`.
    write: Option<(usize, u32)>,
    /// Per-thread timestamps of reads since the last write.
    reads: VClock,
}

// SAFETY: all access to `data` goes through `with`/`with_mut`, which
// assert happens-before ordering against every prior conflicting access
// (and abort the model run otherwise); the model scheduler additionally
// runs only one thread at a time, so checked accesses never overlap.
unsafe impl<T: Send> Send for ModelCell<T> {}
// SAFETY: the same argument as for `Send`.
unsafe impl<T: Send> Sync for ModelCell<T> {}

impl<T> ModelCell<T> {
    /// New cell holding `v`.
    pub fn new(v: T) -> Self {
        ModelCell {
            data: UnsafeCell::new(v),
            state: OsMutex::new(CellState {
                write: None,
                reads: VClock::default(),
            }),
        }
    }

    fn race(&self, kind: &str, against: &str) -> ! {
        sched::with_exec(|st, me| {
            st.fail(format!(
                "data race: {kind} of ModelCell on thread {me} is not ordered after {against}"
            ));
        });
        std::panic::panic_any(sched::Abort)
    }

    /// Checked shared read access.
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        let ok = sched::with_exec(|st, me| {
            let mut cs = self.state.lock().unwrap();
            if let Some((wt, wts)) = cs.write {
                if st.clocks[me].get(wt) < wts {
                    return false;
                }
            }
            let (me, ts) = st.epoch(me);
            cs.reads.set_max(me, ts);
            true
        });
        if !ok {
            self.race("read", "the last write");
        }
        // SAFETY: happens-before against the last write was just checked,
        // and the scheduler runs one thread at a time.
        f(unsafe { &*self.data.get() })
    }

    /// Checked exclusive write access.
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let ok = sched::with_exec(|st, me| {
            let mut cs = self.state.lock().unwrap();
            if let Some((wt, wts)) = cs.write {
                if st.clocks[me].get(wt) < wts {
                    return false;
                }
            }
            if !cs.reads.le(&st.clocks[me]) {
                return false;
            }
            cs.write = Some(st.epoch(me));
            cs.reads = VClock::default();
            true
        });
        if !ok {
            self.race("write", "every prior access");
        }
        // SAFETY: happens-before against every prior access was just
        // checked, and the scheduler runs one thread at a time.
        f(unsafe { &mut *self.data.get() })
    }

    /// Checked read of a `Copy` payload.
    pub fn read(&self) -> T
    where
        T: Copy,
    {
        self.with(|v| *v)
    }

    /// Checked overwrite.
    pub fn write(&self, v: T) {
        self.with_mut(|p| *p = v);
    }

    /// Consume the cell.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}
