//! Generation-tracked, budget-charged cache for analyses and factors.
//!
//! The integrity contract of the service's caches (DESIGN.md §12): every
//! entry is in one of three states — **Filling** (one job is computing
//! it, others wait), **Ready** (safe to serve) or **Poisoned** (the
//! filling job panicked or was cancelled mid-fill). A poisoned entry is
//! *never* served; the next job that wants the key refills it under a
//! **bumped generation**, so a response's generation number proves which
//! fill produced its answer. Resident bytes are charged to the service's
//! [`MemoryBudget`] ledger at [`site::CACHE`]; when a charge is refused,
//! least-recently-used Ready entries are evicted first, and the admission
//! controller may shed the whole cache under pressure.
//!
//! A Ready entry may also carry [`Alias`]es: second keys, cheap to compute
//! from a job's source as sent, under which the entry is *found*. Finding
//! is not serving: an alias hit is decided by an exact check of the source
//! against the entry's own value ([`GenCache::get_aliased`]). Aliases are
//! charged to the ledger with their entry and leave with it, on eviction
//! and on shed. They live under the cache's one lock, so there is no
//! second lock to order against it.

use crate::job::JobError;
use dagfact_rt::budget::{site, MemoryBudget};
use dagfact_rt::fault::panic_message;
use dagfact_rt::sync::{Condvar, Mutex};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cache observability counters (monotone; snapshot via
/// [`GenCache::stats`]).
#[derive(Debug, Clone, Default)]
pub struct CacheStats {
    /// Lookups answered from a Ready entry.
    pub hits: u64,
    /// Lookups that had to fill.
    pub misses: u64,
    /// Lookups that waited for a concurrent fill and got its result.
    pub shared_fills: u64,
    /// Entries evicted to make room (LRU) or shed under pressure.
    pub evictions: u64,
    /// Fills that poisoned their entry (panic or error mid-fill).
    pub poisonings: u64,
    /// Entries currently resident.
    pub resident: usize,
    /// Bytes currently charged to the ledger.
    pub resident_bytes: usize,
}

enum Slot<V> {
    /// A job is computing the value; waiters sleep on the condvar.
    Filling,
    /// Safe to serve.
    Ready {
        value: Arc<V>,
        bytes: usize,
        gen: u64,
        last_used: u64,
    },
    /// The fill died; never served, refilled under `gen + 1`.
    Poisoned { gen: u64 },
}

/// How the triplets of one inline source, in the order sent, map onto
/// the CSC matrix a Ready entry was built from. Found under a cheap key
/// of the source; only ever a candidate, never proof of identity.
#[derive(Debug)]
pub struct Alias {
    /// Pattern hash of the entry's matrix (the pattern-cache key's base),
    /// so a write of new values on the same positions skips hashing it.
    pub pattern_hash: u64,
    /// Fingerprint of the source's sampled values: turns most
    /// value-changed resends away before the exact check.
    pub values_sample: u64,
    /// `slots[k]`: the position of triplet `k` in the entry's CSC arrays.
    pub slots: Box<[u32]>,
}

/// An alias in its bucket, with the entry it points to.
struct AliasRef<K> {
    target: K,
    alias: Arc<Alias>,
    /// Charged to the ledger at [`site::CACHE`].
    bytes: usize,
}

struct Inner<K, V> {
    map: HashMap<K, Slot<V>>,
    /// Source key → aliases of Ready entries. An alias is only ever
    /// present while its target is Ready.
    aliases: HashMap<u64, Vec<AliasRef<K>>>,
    stats: CacheStats,
}

impl<K: std::hash::Hash + Eq, V> Inner<K, V> {
    /// Remove the Ready entry `key` and every alias pointing to it,
    /// releasing their charges; returns the bytes released (0 when `key`
    /// is not Ready).
    fn evict(&mut self, key: &K, budget: &MemoryBudget) -> usize {
        let Some(Slot::Ready { bytes, .. }) = self.map.remove(key) else {
            return 0;
        };
        let mut freed = bytes;
        self.aliases.retain(|_, bucket| {
            bucket.retain(|r| {
                let keep = r.target != *key;
                if !keep {
                    freed += r.bytes;
                }
                keep
            });
            !bucket.is_empty()
        });
        budget.release(freed);
        self.stats.resident_bytes -= freed;
        self.stats.evictions += 1;
        freed
    }
}

/// See the module docs. `K` is a content hash (pattern hash, or
/// pattern+values hash), `V` the cached artifact (`Analysis`,
/// `SharedFactors`).
pub struct GenCache<K, V> {
    inner: Mutex<Inner<K, V>>,
    cond: Condvar,
    /// LRU clock: bumped on every touch.
    clock: AtomicU64,
    budget: Arc<MemoryBudget>,
}

/// A successful lookup: the value plus the generation that produced it.
#[derive(Debug)]
pub struct CacheHit<V> {
    /// The cached artifact.
    pub value: Arc<V>,
    /// Generation of the fill that produced it (≥ 1; poisoned fills
    /// never yield a hit, so a response can cite this as integrity
    /// proof).
    pub generation: u64,
    /// `false` when this call performed the fill itself.
    pub was_hit: bool,
}

impl<K: std::hash::Hash + Eq + Clone, V> GenCache<K, V> {
    /// A cache charging to `budget` (use
    /// [`MemoryBudget::unbounded`] for accounting without caps).
    pub fn new(budget: Arc<MemoryBudget>) -> Self {
        GenCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                aliases: HashMap::new(),
                stats: CacheStats::default(),
            }),
            cond: Condvar::new(),
            clock: AtomicU64::new(1),
            budget,
        }
    }

    fn tick(&self) -> u64 {
        // ORDERING: pure LRU clock; only monotonicity matters.
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Look up `key`, filling it with `fill` on miss. Concurrent
    /// requests for the same key deduplicate: one computes, the rest
    /// wait. A `fill` that panics (or errors) poisons the entry for
    /// itself only — waiters get a typed error, the *next* request
    /// refills under a bumped generation, and no later request can ever
    /// observe the poisoned artifact.
    pub fn get_or_fill<F>(&self, key: &K, fill: F) -> Result<CacheHit<V>, JobError>
    where
        F: FnOnce() -> Result<(V, usize), JobError>,
    {
        enum Action<V> {
            Hit(Arc<V>, u64),
            Wait,
            Fill(u64),
        }
        let gen = {
            let mut inner = self.inner.lock();
            loop {
                let action = match inner.map.get_mut(key) {
                    Some(Slot::Ready {
                        value,
                        gen,
                        last_used,
                        ..
                    }) => {
                        *last_used = self.tick();
                        Action::Hit(value.clone(), *gen)
                    }
                    Some(Slot::Filling) => Action::Wait,
                    // Take over a poisoned slot's refill under a fresh
                    // generation.
                    Some(Slot::Poisoned { gen }) => Action::Fill(*gen + 1),
                    None => Action::Fill(1),
                };
                match action {
                    Action::Hit(value, generation) => {
                        inner.stats.hits += 1;
                        return Ok(CacheHit {
                            value,
                            generation,
                            was_hit: true,
                        });
                    }
                    Action::Wait => {
                        // The fill may succeed (Ready), die (Poisoned —
                        // taken over next iteration) or be evicted (None).
                        inner.stats.shared_fills += 1;
                        inner = self.cond.wait(inner);
                    }
                    Action::Fill(next) => {
                        inner.map.insert(key.clone(), Slot::Filling);
                        inner.stats.misses += 1;
                        break next;
                    }
                }
            }
        };
        // Fill outside the lock; a panic must poison only this entry.
        let outcome = catch_unwind(AssertUnwindSafe(fill));
        let mut inner = self.inner.lock();
        match outcome {
            Ok(Ok((value, bytes))) => {
                let bytes = self.make_room(&mut inner, bytes, key);
                match bytes {
                    Some(bytes) => {
                        let value = Arc::new(value);
                        inner.map.insert(
                            key.clone(),
                            Slot::Ready {
                                value: value.clone(),
                                bytes,
                                gen,
                                last_used: self.tick(),
                            },
                        );
                        inner.stats.resident = inner.map.len();
                        inner.stats.resident_bytes += bytes;
                        self.cond.notify_all();
                        Ok(CacheHit {
                            value,
                            generation: gen,
                            was_hit: false,
                        })
                    }
                    None => {
                        // Could not charge even after evicting everything:
                        // hand the value to this caller uncached.
                        inner.map.remove(key);
                        inner.stats.resident = inner.map.len();
                        self.cond.notify_all();
                        Ok(CacheHit {
                            value: Arc::new(value),
                            generation: gen,
                            was_hit: false,
                        })
                    }
                }
            }
            Ok(Err(e)) => {
                inner.map.insert(key.clone(), Slot::Poisoned { gen });
                inner.stats.poisonings += 1;
                inner.stats.resident = inner.map.len();
                self.cond.notify_all();
                Err(e)
            }
            Err(panic) => {
                inner.map.insert(key.clone(), Slot::Poisoned { gen });
                inner.stats.poisonings += 1;
                inner.stats.resident = inner.map.len();
                self.cond.notify_all();
                // Waiters are already unblocked; format the panic payload
                // (which allocates) outside the critical section.
                drop(inner);
                Err(JobError::Panicked(panic_message(&*panic)))
            }
        }
    }

    /// Charge `bytes` for `key`, evicting LRU Ready entries until the
    /// ledger accepts. `None` when the charge cannot fit even with the
    /// cache empty (the value is then returned uncached).
    fn make_room(&self, inner: &mut Inner<K, V>, bytes: usize, key: &K) -> Option<usize> {
        loop {
            match self.budget.try_charge(bytes, site::CACHE) {
                Ok(()) => return Some(bytes),
                Err(_) => {
                    let victim = inner
                        .map
                        .iter()
                        .filter_map(|(k, slot)| match slot {
                            Slot::Ready { last_used, .. } if k != key => {
                                Some((last_used, k))
                            }
                            _ => None,
                        })
                        .min_by_key(|(lu, _)| **lu)
                        .map(|(_, k)| k.clone());
                    match victim {
                        Some(k) => {
                            inner.evict(&k, &self.budget);
                        }
                        None => return None,
                    }
                }
            }
        }
    }

    /// Shed every Ready entry (admission controller under pressure).
    /// In-flight fills and poison markers stay; returns bytes released.
    pub fn shed(&self) -> usize {
        let mut inner = self.inner.lock();
        let keys: Vec<K> = inner
            .map
            .iter()
            .filter_map(|(k, slot)| match slot {
                Slot::Ready { .. } => Some(k.clone()),
                _ => None,
            })
            .collect();
        let freed: usize = keys.iter().map(|k| inner.evict(k, &self.budget)).sum();
        inner.stats.resident = inner.map.len();
        freed
    }

    /// Record `alias` under the source key `akey` for the Ready entry
    /// `target`, charging it to the ledger at [`site::CACHE`]; an alias
    /// the bucket already holds for `target` is replaced. Nothing is
    /// recorded when `target` is not Ready (evicted meanwhile, or served
    /// uncached) or the ledger refuses: an alias never evicts an entry.
    pub fn add_alias(&self, akey: u64, target: &K, alias: Alias) -> bool {
        let bytes = std::mem::size_of::<Alias>() + std::mem::size_of_val(&*alias.slots);
        let mut inner = self.inner.lock();
        if !matches!(inner.map.get(target), Some(Slot::Ready { .. }))
            || self.budget.try_charge(bytes, site::CACHE).is_err()
        {
            return false;
        }
        let Inner { aliases, stats, .. } = &mut *inner;
        let bucket = aliases.entry(akey).or_default();
        if let Some(old) = bucket.iter().position(|r| r.target == *target) {
            let old = bucket.swap_remove(old);
            self.budget.release(old.bytes);
            stats.resident_bytes -= old.bytes;
        }
        bucket.push(AliasRef {
            target: target.clone(),
            alias: Arc::new(alias),
            bytes,
        });
        stats.resident_bytes += bytes;
        true
    }

    /// The first alias under `akey` that `accept` takes, with its Ready
    /// entry's value and generation. Moves no counter: whatever the
    /// caller does with the value, it checks it first.
    pub fn peek_alias(
        &self,
        akey: u64,
        accept: impl Fn(&K, &Alias) -> bool,
    ) -> Option<(Arc<Alias>, Arc<V>, u64)> {
        // LOCK: one short critical section per aliased lookup — a hash
        // probe and a scan of one bucket; the check runs after it.
        let inner = self.inner.lock();
        let r = inner.aliases.get(&akey)?.iter().find(|r| accept(&r.target, &r.alias))?;
        match inner.map.get(&r.target) {
            Some(Slot::Ready { value, gen, .. }) => {
                Some((Arc::clone(&r.alias), Arc::clone(value), *gen))
            }
            // Aliases leave with their entry, so their target is Ready.
            _ => None,
        }
    }

    /// A hit through an alias: the entry [`GenCache::peek_alias`] finds
    /// under `akey`, served only when `verify` holds of it — the exact
    /// check, run outside the lock, decides the hit. A verified hit counts
    /// as a hit and refreshes the entry's LRU stamp; a failed one moves
    /// nothing and is the caller's miss.
    pub fn get_aliased(
        &self,
        akey: u64,
        accept: impl Fn(&K, &Alias) -> bool,
        verify: impl FnOnce(&Alias, &V) -> bool,
    ) -> Option<CacheHit<V>> {
        let (alias, value, generation) = self.peek_alias(akey, accept)?;
        if !verify(&alias, &value) {
            return None;
        }
        // ORDERING: pure LRU clock; only monotonicity matters.
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        // LOCK: a second short critical section, only on a verified hit.
        let mut inner = self.inner.lock();
        let Inner {
            map,
            aliases,
            stats,
        } = &mut *inner;
        stats.hits += 1;
        let target = aliases
            .get(&akey)
            .and_then(|bucket| bucket.iter().find(|r| Arc::ptr_eq(&r.alias, &alias)));
        // An entry evicted since the lookup is still served: the check
        // held against its value.
        if let Some(Slot::Ready { last_used, .. }) = target.and_then(|r| map.get_mut(&r.target)) {
            *last_used = now;
        }
        Some(CacheHit {
            value,
            generation,
            was_hit: true,
        })
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().stats.clone()
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests sleep to shape schedules
mod tests {
    use super::*;

    fn cache() -> GenCache<u64, String> {
        GenCache::new(MemoryBudget::unbounded())
    }

    #[test]
    fn fill_then_hit_with_same_generation() {
        let c = cache();
        let a = c.get_or_fill(&7, || Ok(("seven".to_string(), 100))).unwrap();
        assert!(!a.was_hit);
        assert_eq!(a.generation, 1);
        let b = c.get_or_fill(&7, || panic!("must not refill")).unwrap();
        assert!(b.was_hit);
        assert_eq!(b.generation, 1);
        assert_eq!(*b.value, "seven");
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn panicked_fill_poisons_only_its_generation() {
        let c = cache();
        // A fill that panics, and one that returns an error (a
        // factorization that broke down), each poison their own entry.
        let failed = JobError::Failed("non-finite pivot at column 3".into());
        for (key, panics) in [(1, true), (2, false)] {
            let err = c
                .get_or_fill(&key, || -> Result<(String, usize), JobError> {
                    if panics {
                        panic!("boom in fill")
                    }
                    Err(failed.clone())
                })
                .unwrap_err();
            // The payload, not the box it was caught in, reaches the error.
            let expected = if panics { JobError::Panicked("boom in fill".into()) } else { failed.clone() };
            assert_eq!(err, expected);
            // The refill must run (not serve the poisoned slot) and must
            // carry a bumped generation.
            let again = c
                .get_or_fill(&key, || Ok(("recovered".to_string(), 10)))
                .unwrap();
            assert!(!again.was_hit);
            assert_eq!(again.generation, 2, "refill must bump the generation");
            assert_eq!(*again.value, "recovered");
        }
        assert_eq!(c.stats().poisonings, 2);
    }

    #[test]
    fn lru_eviction_respects_budget_cap() {
        let budget = MemoryBudget::with_cap(250);
        let c: GenCache<u64, String> = GenCache::new(budget.clone());
        c.get_or_fill(&1, || Ok(("a".into(), 100))).unwrap();
        c.get_or_fill(&2, || Ok(("b".into(), 100))).unwrap();
        // Touch 1 so 2 is the LRU victim.
        c.get_or_fill(&1, || unreachable!()).unwrap();
        c.get_or_fill(&3, || Ok(("c".into(), 100))).unwrap();
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        // 2 was evicted; 1 survived.
        assert!(c.get_or_fill(&1, || unreachable!()).unwrap().was_hit);
        let refilled = c.get_or_fill(&2, || Ok(("b2".into(), 100))).unwrap();
        assert!(!refilled.was_hit, "evicted entry must refill");
        assert!(budget.used() <= 250);
    }

    #[test]
    fn oversized_value_is_served_uncached() {
        let budget = MemoryBudget::with_cap(50);
        let c: GenCache<u64, String> = GenCache::new(budget.clone());
        let hit = c.get_or_fill(&1, || Ok(("big".into(), 1000))).unwrap();
        assert_eq!(*hit.value, "big");
        assert_eq!(budget.used(), 0, "uncachable value must not leak charge");
        // Next lookup refills (nothing was cached).
        let again = c.get_or_fill(&1, || Ok(("big2".into(), 1000))).unwrap();
        assert!(!again.was_hit);
    }

    #[test]
    fn concurrent_fills_deduplicate() {
        let c = Arc::new(cache());
        let fills = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = c.clone();
            let fills = fills.clone();
            handles.push(std::thread::spawn(move || {
                let hit = c
                    .get_or_fill(&42, || {
                        fills.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        Ok(("shared".to_string(), 10))
                    })
                    .unwrap();
                assert_eq!(*hit.value, "shared");
                assert_eq!(hit.generation, 1);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(fills.load(Ordering::SeqCst), 1, "exactly one fill");
    }

    fn alias(len: u32) -> Alias {
        Alias {
            pattern_hash: 0,
            values_sample: 0,
            slots: (0..len).collect(),
        }
    }

    #[test]
    fn alias_is_charged_and_leaves_with_its_entry() {
        let budget = MemoryBudget::with_cap(100_000);
        let c: GenCache<u64, String> = GenCache::new(budget.clone());
        c.get_or_fill(&1, || Ok(("a".into(), 100))).unwrap();
        c.get_or_fill(&2, || Ok(("b".into(), 100))).unwrap();
        assert!(!c.add_alias(9, &3, alias(8)), "no alias for an entry that is not Ready");
        assert!(c.add_alias(9, &1, alias(1000)));
        assert!(c.add_alias(9, &1, alias(1000)), "same target: replaced, not stacked");
        assert!(c.add_alias(7, &2, alias(10)));
        let with_aliases = c.stats().resident_bytes;
        assert!(with_aliases >= 200 + 4000 + 40, "{with_aliases}");
        assert_eq!(budget.used(), with_aliases);
        // A failed check is a miss that moves no counter.
        assert!(c.get_aliased(9, |_, _| true, |_, _| false).is_none());
        assert_eq!(c.stats().hits, 0);
        let hit = c.get_aliased(9, |k, _| *k == 1, |a, v| a.slots.len() == 1000 && v == "a");
        assert_eq!(hit.map(|h| (h.was_hit, h.generation)), Some((true, 1)));
        assert_eq!(c.stats().hits, 1);
        assert!(c.peek_alias(9, |k, _| *k == 2).is_none(), "accept filters the bucket");
        // Shedding drops the entries and their aliases, charges and all.
        let freed = c.shed();
        assert_eq!(freed, with_aliases);
        assert_eq!((c.stats().resident_bytes, budget.used()), (0, 0));
        assert!(c.peek_alias(9, |_, _| true).is_none());
    }

    #[test]
    fn lru_eviction_drops_the_victims_aliases() {
        let budget = MemoryBudget::with_cap(2_000);
        let c: GenCache<u64, String> = GenCache::new(budget.clone());
        c.get_or_fill(&1, || Ok(("a".into(), 800))).unwrap();
        assert!(c.add_alias(5, &1, alias(10)));
        c.get_or_fill(&2, || Ok(("b".into(), 800))).unwrap();
        // Entry 1 is the LRU victim; its alias must go with it.
        c.get_or_fill(&3, || Ok(("c".into(), 800))).unwrap();
        assert_eq!(c.stats().evictions, 1);
        assert!(c.peek_alias(5, |_, _| true).is_none());
        assert_eq!(budget.used(), 1600);
        assert_eq!(c.stats().resident_bytes, 1600);
    }

    #[test]
    fn shed_empties_ready_entries_and_releases_budget() {
        let budget = MemoryBudget::with_cap(1000);
        let c: GenCache<u64, String> = GenCache::new(budget.clone());
        c.get_or_fill(&1, || Ok(("a".into(), 100))).unwrap();
        c.get_or_fill(&2, || Ok(("b".into(), 200))).unwrap();
        assert_eq!(c.shed(), 300);
        assert_eq!(budget.used(), 0);
        assert!(!c.get_or_fill(&1, || Ok(("a2".into(), 100))).unwrap().was_hit);
    }
}
