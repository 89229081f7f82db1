//! The direct-call round: the library surface a batch user drives
//! (`Analysis::new`, `factorize` under each engine, `solve`, `solve_many`,
//! `solve_refined`), timed call by call and checked answer by answer.
//!
//! A *round* runs every operation once, in a fixed order. Interleaving
//! inside a round is what makes a noise burst on a shared host hit every
//! metric for a few rounds instead of one metric for all of its samples.
//! The reported value is the best over rounds: contention only ever adds
//! time, so the minimum is what the code costs on this host undisturbed.

use crate::report::Report;
use crate::stats::XorShift;
use dagfact_core::{Analysis, Factors, RuntimeKind, SolverOptions};
use dagfact_kernels::Scalar;
use dagfact_sparse::CscMatrix;
use dagfact_symbolic::FactoKind;
use std::hint::black_box;
use std::time::Instant;

/// Threads of every timed factorization (`nproc` is 2 on the reference
/// host; no workload may keep more than 2 threads busy).
pub const THREADS: usize = 2;
/// Right-hand sides of the blocked solve.
pub const NRHS: usize = 16;
/// A timed operation fails when its backward error exceeds this.
pub const BERR_LIMIT: f64 = 1e-10;
/// Refinement settings of `refine_s` / `tts_s`.
pub const REFINE_ITERS: usize = 3;
pub const REFINE_TOL: f64 = 1e-12;

pub const ENGINES: [(RuntimeKind, &str); 3] = [
    (RuntimeKind::Native, "native"),
    (RuntimeKind::Dataflow, "dataflow"),
    (RuntimeKind::Ptg, "ptg"),
];

/// One batch problem with its seeded right-hand sides.
pub struct Problem<T> {
    pub a: CscMatrix<T>,
    pub facto: FactoKind,
    pub b: Vec<T>,
    /// `NRHS` columns, column-major.
    pub b_many: Vec<T>,
    norm_a: f64,
}

impl<T: Scalar> Problem<T> {
    /// Matrices are deterministic; the seed drives the RHS values only.
    pub fn new(a: CscMatrix<T>, facto: FactoKind, seed: u64) -> Problem<T> {
        let n = a.nrows();
        let mut rng = XorShift::new(seed);
        let mut draw = |len: usize| -> Vec<T> {
            (0..len)
                .map(|_| {
                    let re = rng.symmetric();
                    let im = if T::IS_COMPLEX { rng.symmetric() } else { 0.0 };
                    T::from_parts(re, im)
                })
                .collect()
        };
        let b = draw(n);
        let b_many = draw(n * NRHS);
        let norm_a = a.norm_inf();
        Problem {
            a,
            facto,
            b,
            b_many,
            norm_a,
        }
    }

    /// ‖b − A·x‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞), the solver's own backward error.
    pub fn berr(&self, x: &[T], b: &[T]) -> f64 {
        let mut r = vec![T::zero(); b.len()];
        self.a.spmv(x, &mut r);
        let inf = |v: &mut dyn Iterator<Item = f64>| v.fold(0.0f64, f64::max);
        let nr = inf(&mut r.iter().zip(b).map(|(ri, bi)| (*bi - *ri).modulus()));
        let nx = inf(&mut x.iter().map(|v| v.modulus()));
        let nb = inf(&mut b.iter().map(|v| v.modulus()));
        let berr = nr / (self.norm_a * nx + nb).max(f64::MIN_POSITIVE);
        if berr.is_finite() {
            berr
        } else {
            f64::INFINITY
        }
    }

    /// Worst backward error over the columns of a [`NRHS`]-column solve of
    /// `b_many`.
    pub fn berr_many(&self, xs: &[T]) -> f64 {
        let n = self.a.nrows();
        (0..NRHS)
            .map(|r| self.berr(&xs[r * n..(r + 1) * n], &self.b_many[r * n..(r + 1) * n]))
            .fold(0.0, f64::max)
    }

    pub fn analyze(&self) -> Analysis {
        Analysis::new(self.a.pattern(), self.facto, &SolverOptions::default())
    }

    /// The untimed warm-up every set-up ends with: one pass over analyze,
    /// factorize and solve so lazy initialisation (ISA detection, first
    /// heap growth, thread start-up paths) is not billed to round 1.
    pub fn warm_up(&self) -> Result<(), String> {
        let an = self.analyze();
        let f = an
            .factorize(&self.a, RuntimeKind::Ptg, THREADS)
            .map_err(|e| format!("warm-up factorization: {e}"))?;
        let x = f.solve(&self.b);
        let berr = self.berr(&x, &self.b);
        if berr > BERR_LIMIT {
            return Err(format!("warm-up solve: backward error {berr:.3e}"));
        }
        Ok(())
    }
}

/// Per-operation samples of every round so far.
#[derive(Default)]
pub struct Rounds {
    pub analyze: Vec<f64>,
    pub factor: [Vec<f64>; 3],
    pub solve: Vec<f64>,
    pub solve_many: Vec<f64>,
    pub refine: Vec<f64>,
    pub tts: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Engines' backward errors disagreed by more than 10x in some round.
    pub engines_disagree: bool,
    /// Wall time of each round, checks included.
    pub walls: Vec<f64>,
}

/// Run `f`, returning how long it took in seconds beside its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

impl Rounds {
    /// Count one timed operation; keep its sample only when it succeeded.
    fn account(&mut self, ok: bool, what: &str, detail: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("operation failed: {what}: {}", detail());
        }
        ok
    }

    /// Run one round on `p`.
    pub fn run<T: Scalar>(&mut self, p: &Problem<T>) {
        let round_start = Instant::now();
        let (t_an, an) = timed(|| p.analyze());
        // The analysis is checked through the factorizations built on it.
        self.account(true, "analyze", String::new);
        self.analyze.push(t_an);

        let mut engine_berr = [f64::NAN; 3];
        let mut t_ptg = None;
        let mut last: Option<Factors<'_, T>> = None;
        for (e, &(kind, name)) in ENGINES.iter().enumerate() {
            // One factor resident at a time: peak RSS is then analysis +
            // one factor + workspace, as for a library user.
            drop(last.take());
            let (t_f, res) = timed(|| an.factorize(&p.a, kind, THREADS));
            let f = match res {
                Ok(f) => f,
                Err(err) => {
                    self.account(false, name, || err.to_string());
                    continue;
                }
            };
            // Each engine's factors answer one timed single-RHS solve:
            // that checks the factorization and gives solve_s its three
            // calls per round.
            let (t_s, x) = timed(|| f.solve(black_box(&p.b)));
            let berr = p.berr(&x, &p.b);
            engine_berr[e] = berr;
            let ok = berr <= BERR_LIMIT;
            if self.account(ok, name, || format!("backward error {berr:.3e}")) {
                self.factor[e].push(t_f);
                if kind == RuntimeKind::Ptg {
                    t_ptg = Some(t_f);
                }
            }
            if self.account(ok, "solve", || {
                format!("backward error {berr:.3e} ({name} factors)")
            }) {
                self.solve.push(t_s);
            }
            last = Some(f);
        }
        // NaN marks an engine whose factorization failed: already counted.
        if engine_berr.iter().all(|b| b.is_finite()) {
            let lo = engine_berr.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = engine_berr.iter().copied().fold(0.0, f64::max);
            if hi > 10.0 * lo.max(f64::EPSILON) {
                eprintln!("engines disagree: backward errors {engine_berr:?}");
                self.engines_disagree = true;
            }
        }

        // The ptg factors (the default engine's) serve the remaining calls.
        let Some(f) = last else { return };
        let (t_m, xs) = timed(|| f.solve_many(black_box(&p.b_many), NRHS));
        let worst = p.berr_many(&xs);
        if self.account(worst <= BERR_LIMIT, "solve_many", || {
            format!("backward error {worst:.3e}")
        }) {
            self.solve_many.push(t_m);
        }
        // Three refined solves per round, like the three plain ones: a
        // call of tens of milliseconds needs the samples.
        let mut first_refine = None;
        for _ in 0..3 {
            let (t_r, refined) =
                timed(|| f.solve_refined(&p.a, black_box(&p.b), REFINE_ITERS, REFINE_TOL));
            // Checked independently of the solver's own residual history.
            let berr = p.berr(&refined.x, &p.b);
            if self.account(
                berr <= BERR_LIMIT && !refined.stalled,
                "solve_refined",
                || format!("backward error {berr:.3e}, stalled {}", refined.stalled),
            ) {
                self.refine.push(t_r);
                first_refine.get_or_insert(t_r);
            }
        }
        if let (Some(t_ptg), Some(t_r)) = (t_ptg, first_refine) {
            self.tts.push(t_an + t_ptg + t_r);
        }
        self.walls.push(round_start.elapsed().as_secs_f64());
    }

    /// The six direct-call end-to-end metrics: the best over rounds.
    pub fn report(&self, report: &mut Report) {
        report.put_best("tts_s", &self.tts);
        report.put_best("analyze_s", &self.analyze);
        for (e, (_, name)) in ENGINES.iter().enumerate() {
            report.put_best(&format!("factor_{name}_s"), &self.factor[e]);
        }
        report.put_best("solve16_s", &self.solve_many);
        // Timed and checked every round, reported per layer (core.solve_s,
        // core.refine_s): their run-to-run spread is cache-state noise.
        report.note(
            "solve_s_median",
            format!("{:.6}", crate::stats::median(&self.solve)),
        );
        report.note(
            "refine_s_median",
            format!("{:.6}", crate::stats::median(&self.refine)),
        );
        report.attempted += self.attempted;
        report.failed += self.failed;
        report.note("rounds", self.walls.len());
        report.note("round_walls_s", format!("{:.3?}", self.walls));

        if self.engines_disagree {
            report.wrong("the three engines' factors gave backward errors more than 10x apart");
        }
    }
}

/// Set up `reps` times (generate inputs, warm up) and return the last
/// problem with the set-up durations. Repeating it is what lets a
/// run report a *median* set-up time.
pub fn set_up<T: Scalar>(
    gen: &dyn Fn() -> CscMatrix<T>,
    facto: FactoKind,
    seed: u64,
    reps: usize,
) -> Result<(Problem<T>, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut problem = None;
    for _ in 0..reps.max(1) {
        drop(problem.take());
        let t = Instant::now();
        let p = Problem::new(gen(), facto, seed);
        p.warm_up()?;
        times.push(t.elapsed().as_secs_f64());
        problem = Some(p);
    }
    Ok((problem.expect("at least one set-up"), times))
}
