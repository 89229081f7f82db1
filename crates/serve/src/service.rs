//! The persistent solve service: bounded queue, isolated workers,
//! deadline enforcement, admission control, graceful degradation.
//!
//! Lifecycle of a job (DESIGN.md §12):
//!
//! 1. **admission** — [`Service::submit`] rejects typed-and-fast when the
//!    service is draining, the queue is full, or memory pressure stays
//!    critical after shedding the factor cache;
//! 2. **execution** — a worker thread runs the job under `catch_unwind`
//!    with a per-job [`CancelToken`] wired into the engine's
//!    [`RunConfig`]; the deadline monitor fires the token when the job's
//!    deadline passes, and the engines abandon remaining tasks at the
//!    next task boundary — a cancelled job answers
//!    [`JobError::Deadline`], never a partial solution;
//! 3. **caching** — the ordering+symbolic analysis is keyed by a content
//!    hash of the sparsity pattern, numeric factors by pattern+values;
//!    both live in [`GenCache`]s whose entries carry a generation and an
//!    integrity state, so a fill that panics poisons only itself. A key
//!    only picks an entry: factors are served only when the job's matrix
//!    is exactly the one they were built from. An inline source that
//!    was seen before finds its entry through an [`Alias`] without
//!    building its matrix at all;
//! 4. **response** — a typed [`JobResponse`] (with cache provenance) or
//!    a typed [`JobError`]; the daemon survives either.

use crate::cache::{Alias, CacheStats, GenCache};
use crate::job::{JobError, JobResponse, JobSpec, MatrixSource, ReusePolicy, RhsSource};
use dagfact_core::{Analysis, ExecOptions, SharedFactors, SolverError, SolverOptions};
use dagfact_rt::budget::MemoryBudget;
use dagfact_rt::fault::panic_message;
use dagfact_rt::sync::{Condvar, Mutex};
use dagfact_rt::{CancelToken, FaultPlan, Json, RunConfig};
use dagfact_sparse::mm::read_matrix_market_file;
use dagfact_sparse::{CscMatrix, TripletBuilder};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Ledger pressure (share of the cap in use) at which `submit` sheds
/// both caches, and past which it rejects a job.
const SHED_PRESSURE: f64 = 0.97;

/// Service configuration.
#[derive(Clone)]
pub struct ServeConfig {
    /// Worker threads draining the job queue (each job may itself run a
    /// multi-threaded factorization).
    pub workers: usize,
    /// Bounded queue depth; submissions beyond it answer
    /// [`JobError::Overloaded`].
    pub queue_cap: usize,
    /// Shared memory ledger: factorizations charge it while running and
    /// both caches charge resident entries to it.
    pub budget: Arc<MemoryBudget>,
    /// Deadline applied to jobs that do not carry their own.
    pub default_deadline_ms: Option<u64>,
    /// Stall watchdog handed to every job's engine run.
    pub watchdog: Option<Duration>,
    /// Fault-injection plan (chaos testing) applied to every job.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_cap: 32,
            budget: MemoryBudget::unbounded(),
            default_deadline_ms: None,
            watchdog: Some(Duration::from_secs(10)),
            fault_plan: None,
        }
    }
}

/// Monotone service counters (snapshot via [`Service::stats`]).
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Jobs accepted by admission control.
    pub submitted: u64,
    /// Jobs answered with a solution.
    pub completed: u64,
    /// Jobs answered `Deadline`.
    pub deadlines: u64,
    /// Jobs rejected `Overloaded` (queue or pressure).
    pub rejected: u64,
    /// Jobs answered `Panicked`.
    pub panics: u64,
    /// Jobs answered with any other typed error.
    pub failed: u64,
    /// Jobs answered out of a coalesced blocked solve (batch size ≥ 2).
    pub batched: u64,
    /// Coalesced blocked solves executed (each covers ≥ 2 jobs).
    pub batches: u64,
    /// Factor-cache shed events triggered by admission control.
    pub sheds: u64,
    /// Current queue depth.
    pub queue_depth: usize,
    /// Pattern-cache counters.
    pub pattern_cache: CacheStats,
    /// Factor-cache counters.
    pub factor_cache: CacheStats,
}

impl ServiceStats {
    /// Compact JSON rendering for the HTTP `/stats` endpoint.
    pub fn to_json(&self) -> String {
        let cache = |c: &CacheStats| {
            Json::obj()
                .field("hits", c.hits)
                .field("misses", c.misses)
                .field("evictions", c.evictions)
                .field("poisonings", c.poisonings)
                .field("resident", c.resident)
                .field("resident_bytes", c.resident_bytes)
        };
        Json::obj()
            .field("submitted", self.submitted)
            .field("completed", self.completed)
            .field("deadlines", self.deadlines)
            .field("rejected", self.rejected)
            .field("panics", self.panics)
            .field("failed", self.failed)
            .field("batched", self.batched)
            .field("batches", self.batches)
            .field("sheds", self.sheds)
            .field("queue_depth", self.queue_depth)
            .field("pattern_cache", cache(&self.pattern_cache))
            .field("factor_cache", cache(&self.factor_cache))
            .to_string()
    }
}

/// Handle to a submitted job; [`JobTicket::wait`] blocks for the typed
/// outcome.
pub struct JobTicket {
    state: Arc<TicketState>,
}

struct TicketState {
    done: Mutex<Option<Result<JobResponse, JobError>>>,
    cond: Condvar,
}

impl JobTicket {
    /// Block until the job finishes (or is rejected post-queue).
    pub fn wait(self) -> Result<JobResponse, JobError> {
        let mut guard = self.state.done.lock();
        loop {
            if let Some(outcome) = guard.take() {
                return outcome;
            }
            guard = self.state.cond.wait(guard);
        }
    }
}

struct QueuedJob {
    spec: JobSpec,
    submitted: Instant,
    ticket: Arc<TicketState>,
}

struct ServiceInner {
    config: ServeConfig,
    queue: Mutex<VecDeque<QueuedJob>>,
    queue_cond: Condvar,
    shutting_down: AtomicBool,
    pattern_cache: GenCache<u64, Analysis>,
    factor_cache: GenCache<(u64, u64, u8), SharedFactors<f64>>,
    deadlines: Mutex<Vec<(Instant, Arc<CancelToken>)>>,
    deadline_cond: Condvar,
    counters: Mutex<ServiceStats>,
    shed_events: AtomicU64,
}

impl ServiceInner {
    /// Latch the drain flag. Lives here — next to the Acquire loads in
    /// `worker_loop` / `deadline_loop` — so both sides of the protocol
    /// share one owner.
    fn begin_shutdown(&self) {
        // ORDERING: Release pairs with submit's (and the loops') Acquire
        // — a submitter that reads `false` enqueues before the workers
        // see the latch.
        self.shutting_down.store(true, Ordering::Release);
    }
}

/// The running daemon. Dropping it drains in-flight jobs and joins the
/// workers.
pub struct Service {
    inner: Arc<ServiceInner>,
    workers: Vec<JoinHandle<()>>,
    monitor: Option<JoinHandle<()>>,
}

impl Service {
    /// Start the worker pool and the deadline monitor.
    #[allow(clippy::expect_used)] // a daemon that cannot spawn its threads cannot start
    pub fn start(config: ServeConfig) -> Service {
        let inner = Arc::new(ServiceInner {
            pattern_cache: GenCache::new(config.budget.clone()),
            factor_cache: GenCache::new(config.budget.clone()),
            config,
            queue: Mutex::new(VecDeque::new()),
            queue_cond: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            deadlines: Mutex::new(Vec::new()),
            deadline_cond: Condvar::new(),
            counters: Mutex::new(ServiceStats::default()),
            shed_events: AtomicU64::new(0),
        });
        let workers = (0..inner.config.workers.max(1))
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        let monitor = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("serve-deadline".into())
                .spawn(move || deadline_loop(&inner))
                .expect("spawn deadline monitor")
        };
        Service {
            inner,
            workers,
            monitor: Some(monitor),
        }
    }

    /// Admission control + enqueue. Fast typed rejections; never blocks
    /// on solver work.
    pub fn submit(&self, spec: JobSpec) -> Result<JobTicket, JobError> {
        let inner = &self.inner;
        // ORDERING: the flag is a monotone drain latch; Acquire pairs
        // with the Release in `shutdown`.
        if inner.shutting_down.load(Ordering::Acquire) {
            return Err(JobError::ShuttingDown);
        }
        // Shed rung: at critical memory pressure drop both caches whole
        // (the largest reclaimable residents) before giving up; only
        // reject when even that leaves the ledger at the shed line.
        if inner.config.budget.pressure() >= SHED_PRESSURE {
            let freed = inner.factor_cache.shed() + inner.pattern_cache.shed();
            inner.shed_events.fetch_add(1, Ordering::Relaxed);
            if inner.config.budget.pressure() >= SHED_PRESSURE {
                let mut c = inner.counters.lock();
                c.rejected += 1;
                return Err(JobError::Overloaded(format!(
                    "memory pressure {:.0}% after shedding {freed} cached bytes",
                    inner.config.budget.pressure() * 100.0
                )));
            }
        }
        let ticket = Arc::new(TicketState {
            done: Mutex::new(None),
            cond: Condvar::new(),
        });
        {
            let mut q = inner.queue.lock();
            if q.len() >= inner.config.queue_cap {
                let mut c = inner.counters.lock();
                c.rejected += 1;
                return Err(JobError::Overloaded(format!(
                    "queue full ({} jobs)",
                    q.len()
                )));
            }
            q.push_back(QueuedJob {
                spec,
                submitted: Instant::now(),
                ticket: ticket.clone(),
            });
            let mut c = inner.counters.lock();
            c.submitted += 1;
            c.queue_depth = q.len();
        }
        inner.queue_cond.notify_one();
        Ok(JobTicket { state: ticket })
    }

    /// Submit and wait — the one-call client path.
    pub fn solve_blocking(&self, spec: JobSpec) -> Result<JobResponse, JobError> {
        self.submit(spec)?.wait()
    }

    /// Counter snapshot (queue depth and cache stats included).
    pub fn stats(&self) -> ServiceStats {
        let mut s = self.inner.counters.lock().clone();
        s.queue_depth = self.inner.queue.lock().len();
        // ORDERING: shed counter snapshot; staleness only skews stats.
        s.sheds = self.inner.shed_events.load(Ordering::Relaxed);
        s.pattern_cache = self.inner.pattern_cache.stats();
        s.factor_cache = self.inner.factor_cache.stats();
        s
    }

    /// Stop accepting jobs, drain the queue, join the workers.
    pub fn shutdown(mut self) -> ServiceStats {
        self.drain();
        self.stats()
    }

    fn drain(&mut self) {
        self.inner.begin_shutdown();
        // A worker checks the latch and waits under the queue lock: taking
        // it here waits out one between the two, which would miss the
        // notification and sleep through the join.
        drop(self.inner.queue.lock());
        self.inner.queue_cond.notify_all();
        self.inner.deadline_cond.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(m) = self.monitor.take() {
            let _ = m.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.drain();
        }
    }
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

fn worker_loop(inner: &Arc<ServiceInner>) {
    loop {
        let batch = {
            let mut q = inner.queue.lock();
            loop {
                if let Some(job) = q.pop_front() {
                    let mut batch = vec![job];
                    // Coalesce: a batchable lead adopts every queued
                    // follower that resolves to the same factors, so the
                    // whole group is answered by one blocked solve_many
                    // instead of one triangular sweep per job. The queue
                    // cap bounds the batch width.
                    if batchable(inner, &batch[0].spec) {
                        let mut i = 0;
                        while i < q.len() {
                            if batchable(inner, &q[i].spec)
                                && coalescable(&batch[0].spec, &q[i].spec)
                            {
                                // i < q.len(): `remove` returns the job.
                                batch.extend(q.remove(i));
                            } else {
                                i += 1;
                            }
                        }
                    }
                    inner.counters.lock().queue_depth = q.len();
                    break Some(batch);
                }
                if inner.shutting_down.load(Ordering::Acquire) {
                    break None;
                }
                q = inner.queue_cond.wait(q);
            }
        };
        let Some(batch) = batch else { return };
        let started = Instant::now();
        // The whole job body is isolated: a panic that escapes the cache
        // fills (solve phase, RHS assembly, response building) downgrades
        // to a typed error and the worker lives on.
        let outcomes: Vec<Result<JobResponse, JobError>> = if batch.len() == 1 {
            vec![catch_unwind(AssertUnwindSafe(|| run_job(inner, &batch[0])))
                .unwrap_or_else(|p| Err(JobError::Panicked(panic_message(&*p))))]
        } else {
            catch_unwind(AssertUnwindSafe(|| run_batch(inner, &batch))).unwrap_or_else(|p| {
                let e = JobError::Panicked(panic_message(&*p));
                batch.iter().map(|_| Err(e.clone())).collect()
            })
        };
        let elapsed_us = started.elapsed().as_micros() as u64;
        {
            let mut c = inner.counters.lock();
            if batch.len() > 1 {
                c.batches += 1;
            }
            for outcome in &outcomes {
                match outcome {
                    Ok(_) => {
                        c.completed += 1;
                        if batch.len() > 1 {
                            c.batched += 1;
                        }
                    }
                    Err(JobError::Deadline { .. }) => c.deadlines += 1,
                    Err(JobError::Panicked(_)) => c.panics += 1,
                    Err(JobError::Overloaded(_)) => c.rejected += 1,
                    Err(_) => c.failed += 1,
                }
            }
        }
        debug_assert_eq!(outcomes.len(), batch.len());
        for (job, outcome) in batch.iter().zip(outcomes) {
            let outcome = outcome.map(|mut r| {
                r.elapsed_us = elapsed_us;
                r
            });
            let mut done = job.ticket.done.lock();
            *done = Some(outcome);
            job.ticket.cond.notify_all();
        }
    }
}

/// Whether a job may ride in a coalesced blocked solve: nothing about it
/// may be per-job beyond the RHS — cached factors, no iterative
/// refinement (its convergence loop is per-column), and no deadline that
/// would need per-member cancellation inside the shared solve.
fn batchable(inner: &ServiceInner, spec: &JobSpec) -> bool {
    spec.reuse == ReusePolicy::Factors
        && spec.refine == 0
        && spec.deadline_ms.is_none()
        && inner.config.default_deadline_ms.is_none()
}

/// Whether a queued follower resolves to the same factors as the batch
/// lead: same matrix, factorization kind and engine configuration. The
/// RHS (and its width) is exactly what is allowed to differ.
fn coalescable(lead: &JobSpec, follower: &JobSpec) -> bool {
    follower.matrix == lead.matrix
        && follower.facto == lead.facto
        && follower.engine == lead.engine
        && follower.threads == lead.threads
}

/// Run a coalesced batch: one analysis, one (cached) factorization, and
/// one blocked `solve_many` over the concatenated RHS columns, split
/// back per ticket afterwards. Results cannot mix across members
/// because each job's columns occupy a disjoint `n × nrhs` slab of the
/// block, and the solve treats columns independently. Whole-batch
/// failures (matrix load, factorization) replicate to every member; a
/// malformed per-job RHS fails only the offending job.
fn run_batch(inner: &Arc<ServiceInner>, batch: &[QueuedJob]) -> Vec<Result<JobResponse, JobError>> {
    let lead = &batch[0].spec;
    let whole = |e: JobError| batch.iter().map(|_| Err(e.clone())).collect::<Vec<_>>();
    let source = match resolve(inner, lead) {
        Ok(source) => source,
        Err(e) => return whole(e),
    };
    let n = source.matrix().nrows();
    let rhs: Vec<Result<Vec<f64>, JobError>> =
        batch.iter().map(|j| build_rhs(&j.spec, source.matrix())).collect();
    let mut b = Vec::new();
    let mut total = 0usize;
    for (job, r) in batch.iter().zip(&rhs) {
        if let Ok(col) = r {
            b.extend_from_slice(col);
            total += job.spec.nrhs;
        }
    }
    if total == 0 {
        return rhs
            .into_iter()
            .map(|r| r.map(|_| unreachable!("total == 0 means every rhs failed")))
            .collect();
    }

    // Batch members all have reuse == Factors, so both caches are keyed,
    // and no deadline by construction.
    let f = match source {
        JobMatrix::Served(f) => f,
        JobMatrix::Built(a, phash) => {
            match job_factors(inner, lead, &a, phash, None, batch[0].submitted, || Ok(())) {
                Ok(f) => f,
                Err(e) => return whole(e),
            }
        }
    };
    let x = f.factors.solve_many(&b, total);
    let mut off = 0usize;
    batch
        .iter()
        .zip(rhs)
        .map(|(job, r)| {
            r.map(|_| {
                let w = job.spec.nrhs;
                let cols = x[off * n..(off + w) * n].to_vec();
                off += w;
                JobResponse {
                    x: cols,
                    n,
                    nrhs: w,
                    iterations: 0,
                    berr: None,
                    pattern_hit: f.pattern_hit,
                    factor_hit: f.factor_hit,
                    generation: f.generation,
                    attempts: f.attempts,
                    batched: batch.len(),
                    elapsed_us: 0, // stamped by the worker loop
                    tag: job.spec.tag.clone(),
                }
            })
        })
        .collect()
}

/// Register `token` to fire at `at`; the monitor wakes for the earliest
/// pending deadline.
fn arm_deadline(inner: &ServiceInner, at: Instant, token: Arc<CancelToken>) {
    inner.deadlines.lock().push((at, token));
    inner.deadline_cond.notify_all();
}

fn deadline_loop(inner: &Arc<ServiceInner>) {
    let mut armed = inner.deadlines.lock();
    loop {
        let now = Instant::now();
        armed.retain(|(at, token)| {
            if *at <= now {
                token.cancel("deadline exceeded");
                false
            } else {
                !token.is_cancelled()
            }
        });
        if inner.shutting_down.load(Ordering::Acquire) && armed.is_empty() {
            return;
        }
        let next = armed.iter().map(|(at, _)| *at).min();
        let wait = match next {
            Some(at) => at.saturating_duration_since(now).min(Duration::from_millis(50)),
            None => Duration::from_millis(50),
        };
        armed = inner.deadline_cond.wait_timeout(armed, wait);
    }
}

/// Stable content hash (FNV-1a over words) for patterns and value
/// arrays.
fn hash_words(seed: u64, words: impl Iterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for w in words {
        h ^= w;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

fn pattern_hash(a: &CscMatrix<f64>) -> u64 {
    let p = a.pattern();
    let h = hash_words(p.nrows() as u64, p.colptr().iter().map(|&v| v as u64));
    hash_words(h, p.rowind().iter().map(|&v| v as u64))
}

fn values_hash(a: &CscMatrix<f64>) -> u64 {
    hash_words(0x5eed, a.values().iter().map(|v| v.to_bits()))
}

/// Whether `a` and `b` are the same matrix: equal patterns, and values
/// equal bit for bit.
fn same_matrix(a: &CscMatrix<f64>, b: &CscMatrix<f64>) -> bool {
    a.pattern() == b.pattern()
        && a.values().iter().zip(b.values()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Evenly spaced triplets an inline source's cheap keys read.
const ALIAS_SAMPLES: usize = 64;

/// The triplets the cheap keys read: [`ALIAS_SAMPLES`] evenly spaced ones
/// from the first, and the last.
fn sampled(triplets: &[(usize, usize, f64)]) -> impl Iterator<Item = &(usize, usize, f64)> {
    let step = (triplets.len() / ALIAS_SAMPLES).max(1);
    triplets
        .iter()
        .step_by(step)
        .take(ALIAS_SAMPLES)
        .chain(triplets.last())
}

/// The bucket an inline source's aliases live in: its order, its
/// triplet count and the positions of its sampled triplets, as sent. It
/// reads ≤ 65 triplets and sorts nothing; it only picks a bucket.
fn source_key(n: usize, triplets: &[(usize, usize, f64)]) -> u64 {
    let h = hash_words(n as u64, std::iter::once(triplets.len() as u64));
    hash_words(h, sampled(triplets).flat_map(|&(i, j, _)| [i as u64, j as u64]))
}

/// Fingerprint of an inline source's sampled values ([`Alias::values_sample`]).
fn values_sample(triplets: &[(usize, usize, f64)]) -> u64 {
    hash_words(0x5eed, sampled(triplets).map(|t| t.2.to_bits()))
}

/// The alias of an inline source whose CSC is exactly `a` (built from
/// it, or checked equal to what was): where each triplet sits in `a`.
/// `None` when the source has duplicate positions — `TripletBuilder`
/// sums them, so `a` has fewer entries than the source has triplets — or
/// when `a` is too large for 32-bit slots. Otherwise the positions are
/// distinct, so the slots are a permutation of `0..nnz`.
fn alias_of(triplets: &[(usize, usize, f64)], a: &CscMatrix<f64>, pattern_hash: u64) -> Option<Alias> {
    if triplets.len() != a.nnz() || u32::try_from(a.nnz()).is_err() {
        return None;
    }
    let p = a.pattern();
    let slots = triplets
        .iter()
        .map(|&(i, j, _)| {
            let (&lo, &hi) = (p.colptr().get(j)?, p.colptr().get(j + 1)?);
            let k = p.rowind().get(lo..hi)?.binary_search(&i).ok()?;
            u32::try_from(lo + k).ok()
        })
        .collect::<Option<Box<[u32]>>>()?;
    Some(Alias {
        pattern_hash,
        values_sample: values_sample(triplets),
        slots,
    })
}

/// The exact check behind every alias hit: for every `k`, triplet `k` is
/// entry `slots[k]` of the `n × n` matrix `a` — the same row and column
/// and, with `values`, the same value bit for bit. There are as many
/// triplets as entries and the slots are a permutation ([`alias_of`]),
/// so a match means the source builds exactly `a` (exactly its pattern,
/// without `values`).
fn source_matches(
    n: usize,
    triplets: &[(usize, usize, f64)],
    slots: &[u32],
    a: &CscMatrix<f64>,
    values: bool,
) -> bool {
    let (colptr, rowind, vals) = (a.pattern().colptr(), a.pattern().rowind(), a.values());
    a.nrows() == n
        && a.ncols() == n
        && triplets.len() == slots.len()
        && slots.len() == rowind.len()
        && triplets.iter().zip(slots).all(|(&(i, j, v), &s)| {
            let s = s as usize;
            let in_col = matches!(
                (colptr.get(j), colptr.get(j + 1)),
                (Some(&lo), Some(&hi)) if lo <= s && s < hi
            );
            in_col
                && rowind.get(s) == Some(&i)
                && (!values || vals.get(s).map(|x| x.to_bits()) == Some(v.to_bits()))
        })
}

/// The factor-cache hit of an inline `reuse=factors` source through its
/// alias: the cached factors — whose matrix is then the job's `A` — when
/// the triplets as sent match the entry exactly. `None` is a plain miss,
/// decided without building the matrix, hashing it or asking the
/// pattern cache. The whole hit is this lookup plus one pass over the
/// triplets.
fn alias_factors(inner: &ServiceInner, spec: &JobSpec) -> Option<JobFactors> {
    let MatrixSource::Inline { n, triplets } = &spec.matrix else {
        return None;
    };
    if spec.reuse != ReusePolicy::Factors {
        return None;
    }
    let (akey, sample) = (source_key(*n, triplets), values_sample(triplets));
    factors_by_alias(inner, akey, sample, *n, triplets, spec.facto as u8)
}

/// [`alias_factors`] under given keys (a test forges them).
fn factors_by_alias(
    inner: &ServiceInner,
    akey: u64,
    sample: u64,
    n: usize,
    triplets: &[(usize, usize, f64)],
    facto: u8,
) -> Option<JobFactors> {
    let hit = inner.factor_cache.get_aliased(
        akey,
        |key, alias| key.2 == facto && alias.values_sample == sample,
        |alias, f| source_matches(n, triplets, &alias.slots, f.matrix(), true),
    )?;
    Some(JobFactors {
        factors: hit.value,
        pattern_hit: true,
        factor_hit: true,
        generation: hit.generation,
        attempts: 0,
    })
}

/// The matrix of an inline `reuse=pattern` source whose positions match
/// an alias exactly: its values gathered onto the cached pattern through
/// the slot map, with the pattern hash the alias recorded — no sort and
/// no hash. `None` sends the job to [`load_matrix`].
fn matrix_by_alias(inner: &ServiceInner, spec: &JobSpec) -> Option<(CscMatrix<f64>, u64)> {
    let MatrixSource::Inline { n, triplets } = &spec.matrix else {
        return None;
    };
    let (alias, f, _) = inner.factor_cache.peek_alias(source_key(*n, triplets), |_, _| true)?;
    let a = f.matrix();
    if !source_matches(*n, triplets, &alias.slots, a, false) {
        return None;
    }
    let mut values = vec![0.0; triplets.len()];
    for (&(_, _, v), &s) in triplets.iter().zip(alias.slots.iter()) {
        values[s as usize] = v;
    }
    Some((CscMatrix::new(a.pattern().clone(), values), alias.pattern_hash))
}

/// A job's `A`: the matrix of the factors an alias served, or one built
/// for the canonical path, with its pattern hash.
enum JobMatrix {
    Served(JobFactors),
    Built(CscMatrix<f64>, u64),
}

impl JobMatrix {
    fn matrix(&self) -> &CscMatrix<f64> {
        match self {
            JobMatrix::Served(f) => f.factors.matrix(),
            JobMatrix::Built(a, _) => a,
        }
    }
}

/// Resolve a job's matrix: through an alias when its source allows, by
/// building it from the source otherwise.
fn resolve(inner: &ServiceInner, spec: &JobSpec) -> Result<JobMatrix, JobError> {
    if let Some(f) = alias_factors(inner, spec) {
        return Ok(JobMatrix::Served(f));
    }
    if spec.reuse == ReusePolicy::Pattern {
        if let Some((a, phash)) = matrix_by_alias(inner, spec) {
            return Ok(JobMatrix::Built(a, phash));
        }
    }
    let a = load_matrix(spec)?;
    let phash = pattern_hash(&a);
    Ok(JobMatrix::Built(a, phash))
}

fn load_matrix(spec: &JobSpec) -> Result<CscMatrix<f64>, JobError> {
    let a = match &spec.matrix {
        MatrixSource::Path(path) => read_matrix_market_file::<f64>(path)
            .map_err(|e| JobError::BadRequest(format!("read {path}: {e}")))?,
        MatrixSource::Inline { n, triplets } => {
            let mut coo = TripletBuilder::new(*n, *n);
            for &(i, j, v) in triplets {
                coo.try_push(i, j, v)
                    .map_err(|e| JobError::BadRequest(format!("triplet ({i},{j}): {e}")))?;
            }
            coo.try_build()
                .map_err(|e| JobError::BadRequest(format!("inline matrix: {e}")))?
        }
    };
    if a.nrows() != a.ncols() {
        return Err(JobError::BadRequest(format!(
            "matrix is {}x{}, need square",
            a.nrows(),
            a.ncols()
        )));
    }
    Ok(a)
}

fn build_rhs(spec: &JobSpec, a: &CscMatrix<f64>) -> Result<Vec<f64>, JobError> {
    let n = a.nrows();
    match &spec.rhs {
        RhsSource::Ones => Ok(vec![1.0; n * spec.nrhs]),
        RhsSource::AOnes => {
            let mut col = vec![0.0; n];
            a.spmv(&vec![1.0; n], &mut col);
            let mut b = Vec::with_capacity(n * spec.nrhs);
            for _ in 0..spec.nrhs {
                b.extend_from_slice(&col);
            }
            Ok(b)
        }
        RhsSource::Inline(vals) => {
            if vals.len() != n * spec.nrhs {
                return Err(JobError::BadRequest(format!(
                    "rhs has {} values, need n*nrhs = {}",
                    vals.len(),
                    n * spec.nrhs
                )));
            }
            Ok(vals.clone())
        }
    }
}

fn map_solver_error(e: &SolverError, started: Instant) -> JobError {
    if e.is_cancelled() {
        JobError::Deadline {
            elapsed_ms: started.elapsed().as_millis() as u64,
        }
    } else if matches!(e, SolverError::BudgetExceeded { .. }) {
        JobError::BudgetExceeded(e.to_string())
    } else {
        JobError::Failed(e.to_string())
    }
}

/// A job's numeric factors with their cache provenance.
struct JobFactors {
    factors: Arc<SharedFactors<f64>>,
    pattern_hit: bool,
    factor_hit: bool,
    generation: u64,
    /// Factorization attempts (0 on a factor-cache hit).
    attempts: u32,
}

/// The factor-cache entry under `fkey` when it holds exactly `a`, filled
/// by `factorize` on a miss: `(factors, hit, generation)`. A Ready entry
/// built from another matrix — two matrices whose 64-bit hashes collide —
/// is never served; `a` is factorized uncached instead (generation 0), as
/// a fill that cannot make room is. The refused entry still counts as a
/// hit in the cache's stats.
fn cached_factors(
    inner: &ServiceInner,
    fkey: (u64, u64, u8),
    a: &CscMatrix<f64>,
    factorize: impl Fn() -> Result<SharedFactors<f64>, JobError>,
) -> Result<(Arc<SharedFactors<f64>>, bool, u64), JobError> {
    let hit = inner.factor_cache.get_or_fill(&fkey, || {
        let sf = factorize()?;
        let bytes = sf.resident_bytes();
        Ok((sf, bytes))
    })?;
    if hit.was_hit && !same_matrix(hit.value.matrix(), a) {
        return Ok((Arc::new(factorize()?), false, 0));
    }
    Ok((hit.value, hit.was_hit, hit.generation))
}

/// The analysis and numeric factors of `a` (pattern hash `phash`) for
/// `spec`, through the pattern and factor caches as far as `spec.reuse`
/// allows — the canonical path of [`run_job`] and of a coalesced batch's
/// lead. An inline source served from the factor cache leaves an alias
/// behind. `cancel` is the job's deadline token and `checkpoint` its
/// deadline check between the phases.
fn job_factors(
    inner: &ServiceInner,
    spec: &JobSpec,
    a: &CscMatrix<f64>,
    phash: u64,
    cancel: Option<Arc<CancelToken>>,
    started: Instant,
    checkpoint: impl Fn() -> Result<(), JobError>,
) -> Result<JobFactors, JobError> {
    let exec = ExecOptions {
        run: RunConfig {
            fault_plan: inner.config.fault_plan.clone(),
            watchdog: inner.config.watchdog,
            budget: Some(inner.config.budget.clone()),
            cancel,
            ..RunConfig::default()
        },
        epsilon_override: None,
        spill_dir: None,
    };
    let mut pattern_hit = false;
    let analysis: Arc<Analysis> = if spec.reuse == ReusePolicy::None {
        Arc::new(Analysis::new(a.pattern(), spec.facto, &SolverOptions::default()))
    } else {
        // Facto kind changes the cost model but not the symbolic
        // structure the caches key on panels for; key it anyway so LDLᵀ
        // and Cholesky analyses never mix.
        let key = hash_words(phash, std::iter::once(spec.facto as u64));
        let hit = inner.pattern_cache.get_or_fill(&key, || {
            let an = Analysis::new(a.pattern(), spec.facto, &SolverOptions::default());
            let bytes = an.resident_bytes();
            Ok((an, bytes))
        })?;
        pattern_hit = hit.was_hit;
        hit.value
    };
    checkpoint()?;

    let factorize = || {
        SharedFactors::factorize(analysis.clone(), a, spec.engine, spec.threads, &exec)
            .map_err(|e| map_solver_error(&e, started))
    };
    let (factors, factor_hit, generation) = if spec.reuse == ReusePolicy::Factors {
        let fkey = (phash, values_hash(a), spec.facto as u8);
        let cached = cached_factors(inner, fkey, a, factorize)?;
        // Generation 0 is an uncached answer: there is no entry to alias.
        if let (MatrixSource::Inline { n, triplets }, 1..) = (&spec.matrix, cached.2) {
            if let Some(alias) = alias_of(triplets, a, phash) {
                inner.factor_cache.add_alias(source_key(*n, triplets), &fkey, alias);
            }
        }
        cached
    } else {
        (Arc::new(factorize()?), false, 0)
    };
    let attempts = if factor_hit { 0 } else { factors.stats().attempts };
    Ok(JobFactors {
        factors,
        pattern_hit,
        factor_hit,
        generation,
        attempts,
    })
}

fn run_job(inner: &Arc<ServiceInner>, job: &QueuedJob) -> Result<JobResponse, JobError> {
    let spec = &job.spec;
    let started = job.submitted;
    let token = CancelToken::new();
    let deadline_ms = spec.deadline_ms.or(inner.config.default_deadline_ms);
    if let Some(ms) = deadline_ms {
        let at = started + Duration::from_millis(ms);
        if at <= Instant::now() {
            // Spent its whole deadline queueing.
            return Err(JobError::Deadline {
                elapsed_ms: started.elapsed().as_millis() as u64,
            });
        }
        arm_deadline(inner, at, token.clone());
    }
    let deadline_check = || -> Result<(), JobError> {
        if token.is_cancelled() {
            Err(JobError::Deadline {
                elapsed_ms: started.elapsed().as_millis() as u64,
            })
        } else {
            Ok(())
        }
    };

    let source = resolve(inner, spec)?;
    let b = build_rhs(spec, source.matrix())?;
    deadline_check()?;

    let f = match source {
        JobMatrix::Served(f) => f,
        JobMatrix::Built(a, phash) => {
            job_factors(inner, spec, &a, phash, Some(token.clone()), started, deadline_check)?
        }
    };
    deadline_check()?;

    // --- solve ---------------------------------------------------------
    let n = f.factors.matrix().nrows();
    let (x, iterations, berr) = if spec.refine > 0 {
        let mut x = Vec::with_capacity(n * spec.nrhs);
        let mut iters = 0usize;
        let mut worst_berr = 0.0f64;
        for r in 0..spec.nrhs {
            let col = &b[r * n..(r + 1) * n];
            let refined = f
                .factors
                .solve_refined_checked(col, spec.refine, spec.tol)
                .map_err(|e| map_solver_error(&e, started))?;
            iters = iters.max(refined.iterations);
            if let Some(&last) = refined.residuals.last() {
                worst_berr = worst_berr.max(last);
            }
            x.extend_from_slice(&refined.x);
        }
        (x, iters, Some(worst_berr))
    } else {
        (f.factors.solve_many(&b, spec.nrhs), 0, None)
    };
    deadline_check()?;

    Ok(JobResponse {
        x,
        n,
        nrhs: spec.nrhs,
        iterations,
        berr,
        pattern_hit: f.pattern_hit,
        factor_hit: f.factor_hit,
        generation: f.generation,
        attempts: f.attempts,
        batched: 1,
        elapsed_us: 0, // stamped by the worker loop
        tag: spec.tag.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `/stats` byte for byte as the hand-rolled emitter this replaced
    /// produced it (`shared_fills` was never rendered).
    #[test]
    fn stats_json_is_pinned() {
        let cache = |base: u64, resident_bytes: usize| CacheStats {
            hits: base + 2,
            misses: base + 3,
            shared_fills: base + 4,
            evictions: base + 5,
            poisonings: base + 6,
            resident: base as usize + 7,
            resident_bytes,
        };
        let stats = ServiceStats {
            submitted: 11,
            completed: 9,
            deadlines: 1,
            rejected: 2,
            panics: 3,
            failed: 4,
            batched: 5,
            batches: 6,
            sheds: 7,
            queue_depth: 8,
            pattern_cache: cache(10, 18),
            factor_cache: cache(20, 123_456_789_012),
        };
        assert_eq!(
            stats.to_json(),
            "{\"submitted\":11,\"completed\":9,\"deadlines\":1,\"rejected\":2,\"panics\":3,\
             \"failed\":4,\"batched\":5,\"batches\":6,\"sheds\":7,\"queue_depth\":8,\
             \"pattern_cache\":{\"hits\":12,\"misses\":13,\"evictions\":15,\"poisonings\":16,\
             \"resident\":17,\"resident_bytes\":18},\
             \"factor_cache\":{\"hits\":22,\"misses\":23,\"evictions\":25,\"poisonings\":26,\
             \"resident\":27,\"resident_bytes\":123456789012}}"
        );
    }

    fn triplets_of(a: &CscMatrix<f64>) -> Vec<(usize, usize, f64)> {
        (0..a.ncols())
            .flat_map(|j| a.col_rows(j).iter().zip(a.col_values(j)).map(move |(&i, &v)| (i, j, v)))
            .collect()
    }

    /// Two matrices under one forged factor-cache key: no lookup serves
    /// either the other's factors — not the canonical path, not an alias.
    #[test]
    fn a_forged_key_never_serves_another_matrix() {
        use dagfact_core::RuntimeKind;
        use dagfact_sparse::gen::grid_laplacian_2d;
        use dagfact_symbolic::FactoKind;

        let service = Service::start(ServeConfig::default());
        let inner = &service.inner;
        let a = grid_laplacian_2d(6, 6);
        let b = CscMatrix::new(a.pattern().clone(), a.values().iter().map(|v| 2.0 * v).collect());
        let factorize = |m: &CscMatrix<f64>| {
            let an = Arc::new(Analysis::new(m.pattern(), FactoKind::Cholesky, &SolverOptions::default()));
            let m = m.clone();
            move || {
                SharedFactors::factorize(an.clone(), &m, RuntimeKind::Native, 1, &ExecOptions::default())
                    .map_err(|e| JobError::Failed(e.to_string()))
            }
        };
        let key = (1, 2, FactoKind::Cholesky as u8);
        let solves_ones = |f: &SharedFactors<f64>, m: &CscMatrix<f64>| {
            let mut rhs = vec![0.0; m.nrows()];
            m.spmv(&vec![1.0; m.nrows()], &mut rhs);
            f.solve(&rhs).iter().all(|x| (x - 1.0).abs() < 1e-10)
        };

        let (fa, hit, generation) = cached_factors(inner, key, &a, factorize(&a)).unwrap();
        assert_eq!((hit, generation), (false, 1));
        let (fb, hit, generation) = cached_factors(inner, key, &b, factorize(&b)).unwrap();
        assert_eq!((hit, generation), (false, 0), "a colliding key served another matrix");
        assert!(same_matrix(fb.matrix(), &b) && solves_ones(&fb, &b));
        let (again, hit, _) =
            cached_factors(inner, key, &a, || -> Result<SharedFactors<f64>, JobError> {
                panic!("the entry holds exactly `a`")
            })
            .unwrap();
        assert!(hit && Arc::ptr_eq(&fa, &again));

        // Through an alias: `a`'s keys with `b`'s triplets.
        let (ta, tb) = (triplets_of(&a), triplets_of(&b));
        let alias = alias_of(&ta, &a, pattern_hash(&a)).expect("no duplicates");
        assert!(inner.factor_cache.add_alias(7, &key, alias));
        let sample = values_sample(&ta);
        assert!(factors_by_alias(inner, 7, sample, a.nrows(), &tb, key.2).is_none());
        let served = factors_by_alias(inner, 7, sample, a.nrows(), &ta, key.2).expect("alias hit");
        assert!(Arc::ptr_eq(&served.factors, &fa) && solves_ones(&served.factors, &a));
        service.shutdown();
    }

    /// Idle workers re-take the queue lock to see the drain latch, so
    /// `drain` must hold no queue guard across its joins.
    #[test]
    fn shutdown_joins_idle_workers_promptly() {
        // Many cycles: a worker caught between its latch check and its
        // wait when the drain notifies is a narrow window.
        for cycle in 0..1000 {
            let service = Service::start(ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            });
            let (tx, rx) = std::sync::mpsc::channel();
            let closer = std::thread::spawn(move || {
                let _ = tx.send(service.shutdown());
            });
            let stats = rx
                .recv_timeout(Duration::from_secs(20))
                .unwrap_or_else(|_| panic!("shutdown hung in its joins (cycle {cycle})"));
            closer.join().expect("shutdown thread");
            assert_eq!(stats.submitted, 0);
        }
    }
}
