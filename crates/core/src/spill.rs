//! Disk-backed panel store — the backing store of the demand pager.
//!
//! When the memory budget is capped and a charge does not fit, cold
//! factored panels are *spilled* here and faulted back in on the next
//! touch (usually the solve phase). One file per panel
//! under a private directory, created by the first spill — a capped run
//! that never evicts touches no disk; the format is the raw
//! little-endian `f64` component stream of the panel (8 bytes per real
//! element, 16 per complex one), so a spill → fault-in round trip is
//! bit-exact and the capped factorization produces the same factors as
//! the unconstrained one
//! (`memory_budget.rs::capped_factors_are_bitwise_equal_to_unconstrained`).
//!
//! The store cleans up after itself on drop. It is deliberately dumb —
//! no compression, no async IO — because the interesting policy (what
//! to spill, when) lives in the pager inside [`crate::coeftab::CoefTab`]
//! and the ledger in `dagfact_rt::budget`.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use dagfact_kernels::Scalar;

/// Monotonic discriminator so concurrent solvers in one process get
/// distinct spill directories.
static STORE_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A directory of spilled panels, one file per panel key.
#[derive(Debug)]
pub struct SpillStore {
    dir: PathBuf,
    /// Keys with a file on disk (for bookkeeping and cleanup).
    keys: Mutex<HashSet<usize>>,
}

// The spill store is the pager's disk: its file I/O is the point.
#[allow(clippy::disallowed_methods)]
impl SpillStore {
    /// Name a store. With `Some(dir)`, panels land in a fresh
    /// subdirectory of `dir`; with `None`, of the system temp dir. The
    /// subdirectory is created by the first [`SpillStore::write`].
    pub fn new(base: Option<&Path>) -> SpillStore {
        let base = base.map(Path::to_path_buf).unwrap_or_else(std::env::temp_dir);
        // ORDERING: process-unique sequence number; only uniqueness
        // matters, no memory is published.
        let seq = STORE_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = base.join(format!(
            "dagfact-spill-{}-{}",
            std::process::id(),
            seq
        ));
        SpillStore {
            dir,
            keys: Mutex::new(HashSet::new()),
        }
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, key: usize) -> PathBuf {
        self.dir.join(format!("panel-{key}.bin"))
    }

    /// Number of panels currently on disk.
    pub fn len(&self) -> usize {
        self.keys.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Write panel `key`, returning the bytes written. Overwrites any
    /// previous spill of the same key.
    pub fn write<T: Scalar>(&self, key: usize, data: &[T]) -> std::io::Result<usize> {
        let per = if T::IS_COMPLEX { 16 } else { 8 };
        let mut buf: Vec<u8> = Vec::with_capacity(data.len() * per);
        for &v in data {
            buf.extend_from_slice(&v.re().to_le_bytes());
            if T::IS_COMPLEX {
                buf.extend_from_slice(&v.im().to_le_bytes());
            }
        }
        std::fs::create_dir_all(&self.dir)?;
        let mut f = std::fs::File::create(self.path_for(key))?;
        f.write_all(&buf)?;
        self.keys
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key);
        Ok(buf.len())
    }

    /// Read panel `key` back (exactly `len` elements, bit-identical to
    /// what was written).
    pub fn read<T: Scalar>(&self, key: usize, len: usize) -> std::io::Result<Box<[T]>> {
        let per = if T::IS_COMPLEX { 16 } else { 8 };
        let mut buf = vec![0u8; len * per];
        let mut f = std::fs::File::open(self.path_for(key))?;
        f.read_exact(&mut buf)?;
        let mut out = Vec::with_capacity(len);
        let word = |b: &[u8]| f64::from_le_bytes(std::array::from_fn(|k| b[k]));
        for chunk in buf.chunks_exact(per) {
            let re = word(chunk);
            let im = if T::IS_COMPLEX {
                word(&chunk[8..])
            } else {
                0.0
            };
            out.push(T::from_parts(re, im));
        }
        Ok(out.into_boxed_slice())
    }

    /// Drop panel `key`'s file (after a fault-in, the disk copy is stale
    /// the moment anyone writes to the panel again).
    pub fn remove(&self, key: usize) {
        // Release the key-set lock before touching the filesystem: the
        // unlink can stall on IO and nothing below needs the set.
        let present = self
            .keys
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&key);
        if present {
            let _ = std::fs::remove_file(self.path_for(key));
        }
    }
}

#[allow(clippy::disallowed_methods)]
impl Drop for SpillStore {
    fn drop(&mut self) {
        let keys: Vec<usize> = self
            .keys
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .copied()
            .collect();
        for key in keys {
            let _ = std::fs::remove_file(self.path_for(key));
        }
        let _ = std::fs::remove_dir(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_is_bit_exact() {
        let store = SpillStore::new(None);
        let data: Vec<f64> = (0..257)
            .map(|i| (i as f64).sin() * 1e-3 + f64::EPSILON * i as f64)
            .collect();
        let bytes = store.write(3, &data).expect("write");
        assert_eq!(bytes, data.len() * 8);
        assert_eq!(store.len(), 1);
        let back = store.read::<f64>(3, data.len()).expect("read");
        for (a, b) in data.iter().zip(back.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        store.remove(3);
        assert!(store.is_empty());
        assert!(store.read::<f64>(3, 1).is_err(), "removed panel is gone");
    }

    #[test]
    fn complex_roundtrip_preserves_both_parts() {
        use dagfact_kernels::C64;
        let store = SpillStore::new(None);
        let data: Vec<C64> = (0..64)
            .map(|i| C64::new(i as f64 * 0.25, -(i as f64) * 0.5))
            .collect();
        store.write(0, &data).expect("write");
        let back = store.read::<C64>(0, data.len()).expect("read");
        for (a, b) in data.iter().zip(back.iter()) {
            assert_eq!(a.re().to_bits(), b.re().to_bits());
            assert_eq!(a.im().to_bits(), b.im().to_bits());
        }
    }

    #[test]
    fn store_cleans_directory_on_drop() {
        let store = SpillStore::new(None);
        let dir = store.dir().to_path_buf();
        assert!(!dir.exists(), "no directory before the first spill");
        store.write(1, &[1.0f64, 2.0]).expect("write");
        assert!(dir.exists());
        drop(store);
        assert!(!dir.exists(), "spill dir should be removed on drop");
    }
}
