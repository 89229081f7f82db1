//! The four workloads: what each generates, sets up, times and checks.

use crate::batch::{self, Problem, Rounds};
use crate::report::Report;
use crate::serve::{self, JobRecord, JobStream, Served};
use crate::stats::{median, tail_percentile};
use crate::{host, layers};
use dagfact_core::{Analysis, RuntimeKind, SolverOptions};
use dagfact_kernels::{Scalar, C64};
use dagfact_serve::Service;
use dagfact_sparse::{gen, CscMatrix};
use dagfact_symbolic::FactoKind;
use std::time::Instant;

/// What one run was asked to do.
pub struct Cfg {
    pub seed: u64,
    /// Length of the timed section.
    pub seconds: f64,
    /// Per-layer run (`true`) or end-to-end run (`false`).
    pub traced: bool,
    /// Smoke mode: tiny grids, one round, 40 served jobs.
    pub quick: bool,
}

impl Cfg {
    fn setup_reps(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }
}

/// Timed calls of one direct-call round: analyze, 3 x (factorize + solve),
/// solve_many, 3 x solve_refined.
const OPS_PER_ROUND: f64 = 11.0;
/// The served timed section alternates closed-loop phases of 10 blocks
/// (200 jobs; 2 blocks in quick mode) with 2 direct-call rounds.
const PHASE_BLOCKS: usize = 10;
const QUICK_BLOCKS: usize = 2;
const ROUNDS_PER_PHASE: usize = 2;

pub fn run(name: &str, cfg: &Cfg) -> Option<Report> {
    let q = cfg.quick;
    let report = match name {
        // Table-I "audi" proxy: dense coupling, wide supernodes.
        "audi_llt" => {
            let s = if q { 10 } else { 28 };
            run_batch::<f64>(
                "audi_llt",
                &|| gen::grid_laplacian_3d_box(s, s, s),
                FactoKind::Cholesky,
                cfg,
            )
        }
        // Table-I "afshell10" proxy: three grid layers, tiny fronts.
        "shell_lu" => {
            let s = if q { 40 } else { 150 };
            run_batch::<f64>(
                "shell_lu",
                &|| gen::convection_diffusion_3d(s, s, 3, 0.3),
                FactoKind::Lu,
                cfg,
            )
        }
        // Table-I "pmlDF" proxy: complex symmetric, not Hermitian.
        "pml_zldlt" => {
            let s = if q { 10 } else { 28 };
            run_batch::<C64>(
                "pml_zldlt",
                &|| gen::helmholtz_3d(s, s, s, 2.0, 0.5),
                FactoKind::Ldlt,
                cfg,
            )
        }
        "serve_mix" => run_serve(cfg),
        _ => return None,
    };
    Some(report)
}

fn finish_common(report: &mut Report, setup: &[f64]) {
    if !report.traced {
        report.put_samples("setup_s", setup);
        match host::peak_rss_bytes() {
            Some(b) => report.put("peak_rss_bytes", b as f64),
            None => report.wrong("VmHWM is not readable on this host"),
        }
    }
}

fn run_batch<T: Scalar>(
    name: &'static str,
    gen: &dyn Fn() -> CscMatrix<T>,
    facto: FactoKind,
    cfg: &Cfg,
) -> Report {
    let mut report = Report::new(name, cfg.traced);
    let (problem, setup) = match batch::set_up(gen, facto, cfg.seed, cfg.setup_reps()) {
        Ok(x) => x,
        Err(e) => {
            report.wrong(&format!("set-up failed: {e}"));
            return report;
        }
    };
    report.note("n", problem.a.nrows());
    report.note("nnz_a", problem.a.nnz());
    report.note("facto", facto.label());
    if cfg.traced {
        layers::measure(&problem, cfg, &mut report);
    } else {
        let mut rounds = Rounds::default();
        let start = Instant::now();
        loop {
            rounds.run(&problem);
            if cfg.quick || start.elapsed().as_secs_f64() >= cfg.seconds {
                break;
            }
        }
        let wall = start.elapsed().as_secs_f64();
        report.note("timed_section_s", format!("{wall:.3}"));
        rounds.report(&mut report);
        let per_round: Vec<f64> = rounds.walls.iter().map(|w| OPS_PER_ROUND / w).collect();
        report.put_best("ops_per_s", &per_round);
    }
    finish_common(&mut report, &setup);
    report
}

/// What a set-up of the served workload leaves behind.
struct ServeSetup {
    problems: [Served; 2],
    service: Service,
    direct: Problem<f64>,
}

/// Set up as often as a batch workload does. Returns the last set-up, the
/// set-up durations and the client-side latency of every cold fill.
fn set_up_serve(cfg: &Cfg) -> Result<(ServeSetup, Vec<f64>, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut cold_ms = Vec::new();
    let mut last = None;
    for _ in 0..cfg.setup_reps() {
        // Shut the previous daemon down (joins its threads) before the
        // next set-up starts: never more than one pool alive.
        if let Some(ServeSetup { service, .. }) = last.take() {
            service.shutdown();
        }
        let t = Instant::now();
        let problems = serve::problems(cfg.quick);
        let service = serve::start();
        // The two cold fills: analysis + factorization + solve each.
        for (i, _) in problems.iter().enumerate() {
            let rec = serve::run_job(
                &service,
                &problems,
                serve::Job {
                    problem: i,
                    write: None,
                },
            );
            if !rec.ok || rec.factor_hit {
                return Err(format!(
                    "cold fill of {} failed or was not cold",
                    problems[i].name
                ));
            }
            cold_ms.push(rec.latency_ms);
        }
        let d = &problems[serve::DIRECT_PROBLEM];
        let direct = Problem::new(d.a.clone(), d.facto, cfg.seed);
        direct.warm_up()?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(ServeSetup {
            problems,
            service,
            direct,
        });
    }
    Ok((last.expect("at least one set-up"), times, cold_ms))
}

fn run_serve(cfg: &Cfg) -> Report {
    let mut report = Report::new("serve_mix", cfg.traced);
    let (s, setup, cold_ms) = match set_up_serve(cfg) {
        Ok(x) => x,
        Err(e) => {
            report.wrong(&format!("set-up failed: {e}"));
            return report;
        }
    };
    report.note("clients", serve::CLIENTS);
    report.note("daemon_workers", serve::WORKERS);
    report.note("write_share", 2.0 / serve::BLOCK as f64);
    for p in &s.problems {
        report.note(
            p.name,
            format!("n {} nnz {} {}", p.a.nrows(), p.a.nnz(), p.facto.label()),
        );
    }
    let mut stream = JobStream::new(cfg.seed);
    let mut records: Vec<JobRecord> = Vec::new();
    let mut loop_wall = 0.0;
    let mut rates = Vec::new();
    let mut rounds = Rounds::default();
    let start = Instant::now();
    // In the traced run the closed loop gets 40% of the time; the direct
    // per-layer measurements on the LDLt problem get the rest.
    let loop_seconds = if cfg.traced {
        0.4 * cfg.seconds
    } else {
        cfg.seconds
    };
    loop {
        let jobs = stream.take(if cfg.quick {
            QUICK_BLOCKS
        } else {
            PHASE_BLOCKS
        });
        let (recs, wall) = serve::phase(&s.service, &s.problems, &jobs);
        if recs.iter().all(|r| r.ok) {
            rates.push(recs.len() as f64 / wall);
        }
        records.extend(recs);
        loop_wall += wall;
        if !cfg.traced {
            // Daemon idle: the direct-call rounds have both cores.
            for _ in 0..if cfg.quick { 1 } else { ROUNDS_PER_PHASE } {
                rounds.run(&s.direct);
            }
        }
        if cfg.quick || start.elapsed().as_secs_f64() >= loop_seconds {
            break;
        }
    }
    let stats = s.service.shutdown();
    let ok_jobs = records.iter().filter(|r| r.ok).count();
    report.attempted += records.len() as u64;
    report.failed += (records.len() - ok_jobs) as u64;
    report.note("jobs", records.len());
    report.note("writes", records.iter().filter(|r| r.write).count());
    report.note("closed_loop_s", format!("{loop_wall:.3}"));
    report.note("factor_evictions", stats.factor_cache.evictions);
    report.note("cache_sheds", stats.sheds);
    report.note("rejected", stats.rejected);
    if stats.rejected > 0 {
        report.wrong("the daemon rejected jobs");
    }

    let of = |f: &dyn Fn(&JobRecord) -> bool, v: &dyn Fn(&JobRecord) -> f64| -> Vec<f64> {
        records.iter().filter(|r| r.ok && f(r)).map(v).collect()
    };
    let hits = of(&|r| r.factor_hit, &|r| r.latency_ms);
    // A write refactorizes on the cached analysis.
    let is_refactor = |r: &JobRecord| r.write && r.pattern_hit && !r.factor_hit;
    let refactors = of(&is_refactor, &|r| r.latency_ms);
    report.note("hits", hits.len());
    if cfg.traced {
        let p = |v: &[f64], q: f64| tail_percentile(v, q).unwrap_or(0.0);
        report.put("serve.hit_p50_ms", median(&hits));
        report.put("serve.hit_p95_ms", p(&hits, 0.95));
        report.put("serve.hit_p99_ms", p(&hits, 0.99));
        report.put("serve.refactor_p50_ms", median(&refactors));
        let hit_service = of(&|r| r.factor_hit, &|r| r.service_ms);
        let hit_wait = of(&|r| r.factor_hit, &|r| {
            (r.latency_ms - r.service_ms).max(0.0)
        });
        report.put("serve.hit_service_p50_ms", median(&hit_service));
        report.put("serve.queue_wait_p50_ms", median(&hit_wait));
        report.put("serve.queue_wait_p95_ms", p(&hit_wait, 0.95));
        report.put(
            "serve.refactor_service_p50_ms",
            median(&of(&is_refactor, &|r| r.service_ms)),
        );
        report.put("serve.cold_ms", median(&cold_ms));
        let ratio =
            |c: &dagfact_serve::CacheStats| c.hits as f64 / (c.hits + c.misses).max(1) as f64;
        report.put("serve.factor_hit_ratio", ratio(&stats.factor_cache));
        report.put("serve.pattern_hit_ratio", ratio(&stats.pattern_cache));
        report.put(
            "serve.factor_evictions",
            stats.factor_cache.evictions as f64,
        );
        report.put("serve.batched_jobs", stats.batched as f64);
        report.put("serve.rejected", stats.rejected as f64);
        // What a hit and a write cost without the daemon around them.
        let (refine_ms, factor_ms) = direct_costs(&s.problems, &mut report);
        report.put("serve.direct_refine_ms", refine_ms);
        report.put("serve.direct_factor_ms", factor_ms);
        report.put("serve.hit_overhead_ms", median(&hit_service) - refine_ms);
        let left = Cfg {
            seconds: (cfg.seconds - start.elapsed().as_secs_f64()).max(1.0),
            ..*cfg
        };
        layers::measure(&s.direct, &left, &mut report);
    } else {
        rounds.report(&mut report);
        report.put_best("ops_per_s", &rates);
        report.note("phase_jobs_per_s", format!("{rates:.2?}"));
        report.note(
            "mean_jobs_per_s",
            format!("{:.3}", ok_jobs as f64 / loop_wall),
        );
        report.note("hit_p50_ms", format!("{:.3}", median(&hits)));
        report.note(
            "hit_p95_ms",
            format!("{:.3}", tail_percentile(&hits, 0.95).unwrap_or(f64::NAN)),
        );
        report.note("refactor_p50_ms", format!("{:.3}", median(&refactors)));
    }
    finish_common(&mut report, &setup);
    report
}

/// The refined solve of a hit and the factorization of a write, called on
/// `core` directly with the job's own settings (native engine, 1 thread,
/// `refine = 2`), pooled over both problems like the job mix is.
fn direct_costs(problems: &[Served; 2], report: &mut Report) -> (f64, f64) {
    const REPS: usize = 5;
    let (mut refine_ms, mut factor_ms) = (Vec::new(), Vec::new());
    for p in problems {
        let n = p.a.nrows();
        let mut b = vec![0.0; n];
        p.a.spmv(&vec![1.0; n], &mut b);
        let an = Analysis::new(p.a.pattern(), p.facto, &SolverOptions::default());
        for _ in 0..REPS {
            let t = Instant::now();
            let f = match an.factorize(&p.a, RuntimeKind::Native, 1) {
                Ok(f) => f,
                Err(e) => {
                    report.wrong(&format!("direct factorization of {}: {e}", p.name));
                    return (f64::NAN, f64::NAN);
                }
            };
            factor_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            let r = f.solve_refined(&p.a, &b, serve::JOB_REFINE, 1e-10);
            refine_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if r.x.iter().any(|v| (v - 1.0).abs() > serve::ONES_LIMIT) {
                report.wrong(&format!(
                    "direct refined solve of {} is not all ones",
                    p.name
                ));
            }
        }
    }
    (median(&refine_ms), median(&factor_ms))
}
