//! The served workload: `dagfact-serve` in-process, a closed loop of two
//! clients, each sending its next job only after the previous one
//! answered — callers that wait for a reply, not independent arrivals.
//!
//! The job stream is drawn by the seeded generator over two problems:
//! 90% *reads* (the base matrix: pattern hit, factor hit, refined solve)
//! and 10% *writes* (the base matrix with a freshly perturbed diagonal,
//! `reuse=pattern`: cached analysis, new numeric factorization, factors
//! not kept). Every job asks for `rhs = A·1`, so the client can check the
//! answer without knowing the matrix: the solution is the all-ones vector.
//!
//! Writes do not fill the factor cache, and the ledger has no cap, on
//! purpose. At the parent commit a capped ledger never settles into LRU
//! eviction: the cache fills until the ledger passes 97%, and admission
//! control then sheds *both* caches whole (measured: 5-9 such sheds per
//! 800 jobs, each followed by two cold fills), which makes the closed
//! loop's rate bimodal from one stretch to the next. Uncapped, caching writes pin
//! 2 GB in one run. `benchmark/README.md` records the numbers.

use crate::stats::XorShift;
use dagfact_kernels::Scalar;
use dagfact_rt::MemoryBudget;
use dagfact_serve::{JobSpec, MatrixSource, ReusePolicy, RhsSource, ServeConfig, Service};
use dagfact_sparse::{gen, CscMatrix};
use dagfact_symbolic::FactoKind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Clients of the closed loop, and daemon workers serving them.
pub const CLIENTS: usize = 2;
pub const WORKERS: usize = 2;
/// Refinement steps every job asks for.
pub const JOB_REFINE: usize = 2;
/// A served answer is wrong when `max|x_i − 1|` exceeds this.
pub const ONES_LIMIT: f64 = 1e-8;

/// The `(row, col, value)` entries of `a`, column by column: the inline
/// form a job carries its matrix in.
pub fn triplets_of<T: Scalar>(a: &CscMatrix<T>) -> Vec<(usize, usize, T)> {
    let mut triplets = Vec::with_capacity(a.nnz());
    for j in 0..a.ncols() {
        for (&i, &v) in a.col_rows(j).iter().zip(a.col_values(j)) {
            triplets.push((i, j, v));
        }
    }
    triplets
}

/// One of the two served problems.
pub struct Served {
    pub name: &'static str,
    pub a: CscMatrix<f64>,
    pub facto: FactoKind,
    triplets: Vec<(usize, usize, f64)>,
}

impl Served {
    fn new(name: &'static str, a: CscMatrix<f64>, facto: FactoKind) -> Served {
        let triplets = triplets_of(&a);
        Served {
            name,
            a,
            facto,
            triplets,
        }
    }

    /// The job for this problem: a read of the base matrix, or write
    /// number `w` (diagonal scaled by a factor unique to `w`: new values
    /// on the cached pattern).
    pub fn spec(&self, write: Option<u32>) -> JobSpec {
        let mut triplets = self.triplets.clone();
        if let Some(w) = write {
            let scale = 1.0 + 1e-4 * f64::from(w + 1);
            for t in triplets.iter_mut().filter(|t| t.0 == t.1) {
                t.2 *= scale;
            }
        }
        JobSpec {
            matrix: MatrixSource::Inline {
                n: self.a.nrows(),
                triplets,
            },
            rhs: RhsSource::AOnes,
            facto: self.facto,
            threads: 1,
            refine: JOB_REFINE,
            reuse: if write.is_some() {
                ReusePolicy::Pattern
            } else {
                ReusePolicy::Factors
            },
            ..JobSpec::default()
        }
    }
}

/// The two problems: an SPD 27-point Laplacian (Cholesky) and an
/// indefinite shifted Laplacian (LDLt).
pub fn problems(quick: bool) -> [Served; 2] {
    let (s0, s1) = if quick { (8, 10) } else { (20, 28) };
    [
        Served::new(
            "lap_llt",
            gen::grid_laplacian_3d_box(s0, s0, s0),
            FactoKind::Cholesky,
        ),
        Served::new(
            "shifted_ldlt",
            gen::shifted_laplacian_3d(s1, s1, s1, 1.0),
            FactoKind::Ldlt,
        ),
    ]
}

/// Index of the problem the direct-call rounds run on.
pub const DIRECT_PROBLEM: usize = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    pub problem: usize,
    /// `Some(k)`: the k-th write of the stream.
    pub write: Option<u32>,
}

/// Jobs of one block of the stream: 9 reads and 1 write per problem, so
/// every block (and every phase, a whole number of blocks) has exactly the
/// 90/10 mix and phases can be compared with each other.
pub const BLOCK: usize = 20;

/// The seeded job sequence: block after block, each shuffled by the
/// generator. Same seed, same sequence.
pub struct JobStream {
    rng: XorShift,
    writes: u32,
}

impl JobStream {
    pub fn new(seed: u64) -> JobStream {
        JobStream {
            rng: XorShift::new(seed ^ 0x5e21_7e00),
            writes: 0,
        }
    }

    /// The next `blocks` blocks of the stream.
    pub fn take(&mut self, blocks: usize) -> Vec<Job> {
        let mut jobs = Vec::with_capacity(blocks * BLOCK);
        for _ in 0..blocks {
            let start = jobs.len();
            for problem in 0..2 {
                jobs.extend((0..BLOCK / 2 - 1).map(|_| Job {
                    problem,
                    write: None,
                }));
                jobs.push(Job {
                    problem,
                    write: Some(self.writes),
                });
                self.writes += 1;
            }
            // Fisher-Yates over the block.
            for i in (1..BLOCK).rev() {
                let j = (self.rng.next_u64() % (i as u64 + 1)) as usize;
                jobs.swap(start + i, start + j);
            }
        }
        jobs
    }
}

/// What the client saw of one job.
#[derive(Debug, Clone, Copy)]
pub struct JobRecord {
    pub write: bool,
    pub ok: bool,
    pub latency_ms: f64,
    /// `JobResponse.elapsed_us`: worker time, excludes queueing.
    pub service_ms: f64,
    pub factor_hit: bool,
    pub pattern_hit: bool,
}

/// Start the daemon (uncapped ledger: accounting without degradation).
pub fn start() -> Service {
    Service::start(ServeConfig {
        workers: WORKERS,
        budget: MemoryBudget::unbounded(),
        ..ServeConfig::default()
    })
}

/// Submit one job, wait for it, check the answer.
pub fn run_job(service: &Service, problems: &[Served; 2], job: Job) -> JobRecord {
    // Building the spec is the client's own work, not the daemon's.
    let spec = problems[job.problem].spec(job.write);
    let t = Instant::now();
    let outcome = service.solve_blocking(spec);
    let latency_ms = t.elapsed().as_secs_f64() * 1e3;
    match outcome {
        Ok(resp) => {
            let err = resp.x.iter().map(|v| (v - 1.0).abs()).fold(0.0, f64::max);
            let ok = resp.x.len() == problems[job.problem].a.nrows() && err <= ONES_LIMIT;
            if !ok {
                eprintln!("served job wrong: {job:?} max|x-1| = {err:.3e}");
            }
            JobRecord {
                write: job.write.is_some(),
                ok,
                latency_ms,
                service_ms: resp.elapsed_us as f64 / 1e3,
                factor_hit: resp.factor_hit,
                pattern_hit: resp.pattern_hit,
            }
        }
        Err(e) => {
            eprintln!("served job failed: {job:?}: {e:?}");
            JobRecord {
                write: job.write.is_some(),
                ok: false,
                latency_ms,
                service_ms: 0.0,
                factor_hit: false,
                pattern_hit: false,
            }
        }
    }
}

/// Run `jobs` through the closed loop: [`CLIENTS`] threads pull the next
/// job as soon as their previous one answered. Returns the records and the
/// wall time of the phase.
pub fn phase(service: &Service, problems: &[Served; 2], jobs: &[Job]) -> (Vec<JobRecord>, f64) {
    let next = AtomicUsize::new(0);
    let records = Mutex::new(Vec::with_capacity(jobs.len()));
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                // ORDERING: a work counter; the records travel through
                // the mutex, not through this atomic.
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&job) = jobs.get(i) else { break };
                let rec = run_job(service, problems, job);
                records.lock().expect("a client thread panicked").push(rec);
            });
        }
    });
    let wall = t.elapsed().as_secs_f64();
    (
        records.into_inner().expect("a client thread panicked"),
        wall,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_job_sequence() {
        let a = JobStream::new(42).take(25);
        let b = JobStream::new(42).take(25);
        let c = JobStream::new(43).take(25);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Bursts continue one stream: 10 + 15 blocks are the same 25.
        let mut s = JobStream::new(42);
        let mut d = s.take(10);
        d.extend(s.take(15));
        assert_eq!(a, d);
        // Every block has the exact mix: one write and nine reads per problem.
        for block in a.chunks(BLOCK) {
            for problem in 0..2 {
                let of = |w: bool| {
                    block
                        .iter()
                        .filter(|j| j.problem == problem && j.write.is_some() == w)
                        .count()
                };
                assert_eq!((of(true), of(false)), (1, BLOCK / 2 - 1));
            }
        }
        // Every write is a perturbation of its own.
        let mut ids: Vec<u32> = a.iter().filter_map(|j| j.write).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn a_write_changes_values_not_pattern() {
        let [p, _] = problems(true);
        let (read, write) = (p.spec(None), p.spec(Some(0)));
        let (MatrixSource::Inline { triplets: r, .. }, MatrixSource::Inline { triplets: w, .. }) =
            (&read.matrix, &write.matrix)
        else {
            panic!("inline specs")
        };
        assert_eq!(r.len(), w.len());
        assert!(r.iter().zip(w).all(|(a, b)| (a.0, a.1) == (b.0, b.1)));
        assert!(r.iter().zip(w).all(|(a, b)| (a.0 == a.1) == (a.2 != b.2)));
        assert_ne!(p.spec(Some(0)).matrix, p.spec(Some(1)).matrix);
    }
}
