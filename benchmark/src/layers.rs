//! The per-layer (traced) run: where a batch problem's time goes, layer
//! by layer (layer = crate name).
//!
//! Nothing here edits the program under test. Stage times come from
//! calling each crate's public functions from this file, in the order
//! `Analysis::new` calls them; scheduler shares come from the existing
//! public `TraceRecorder` attached through `ExecOptions.run`; the kernel
//! floor comes from replaying the factorization's own dense call list
//! (enumerated from the `SymbolMatrix`) on scratch buffers.
//!
//! A *pass* measures everything once. Passes repeat (up to 3) while the
//! run's time allows, and each metric is the median over passes.

use crate::batch::{timed, Problem, BERR_LIMIT, ENGINES, NRHS, REFINE_ITERS, REFINE_TOL, THREADS};
use crate::host;
use crate::metrics::unit_of;
use crate::report::Report;
use crate::serve::triplets_of;
use crate::stats::median;
use crate::workloads::Cfg;
use dagfact_core::coeftab::CoefTab;
use dagfact_core::{Analysis, ExecOptions, Factors, RuntimeKind, SolverOptions};
use dagfact_kernels::gemm::{gemm, Trans};
use dagfact_kernels::trsm::{trsm, Diag, Side, Uplo};
use dagfact_kernels::{getrf, ldlt, ldlt_apply_diag, potrf, Scalar};
use dagfact_order::{compute_ordering, Permutation};
use dagfact_rt::{MemoryBudget, RunConfig, SpanKind, Trace, TraceRecorder};
use dagfact_sparse::TripletBuilder;
use dagfact_symbolic::cost::{critical_path_priorities, static_schedule, CostModel, TaskCosts};
use dagfact_symbolic::counts::column_counts;
use dagfact_symbolic::etree::{elimination_tree, postorder, relabel_parent};
use dagfact_symbolic::structure::SymbolMatrix;
use dagfact_symbolic::supernode::{amalgamate, build_partition, detect_supernodes};
use dagfact_symbolic::FactoKind;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

const MAX_PASSES: usize = 3;

/// Samples per metric name, one per pass (or per call where a pass makes
/// several).
#[derive(Default)]
struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &str, v: f64) {
        self.0.entry(name.to_string()).or_default().push(v);
    }
    fn med(&self, name: &str) -> f64 {
        self.0.get(name).map_or(f64::NAN, |v| median(v))
    }
}

/// Value at which the running weight passes half the total.
fn weighted_median(mut items: Vec<(usize, f64)>) -> f64 {
    items.sort_by_key(|&(v, _)| v);
    let half = items.iter().map(|&(_, w)| w).sum::<f64>() / 2.0;
    let mut acc = 0.0;
    for (v, w) in items {
        acc += w;
        if acc >= half {
            return v as f64;
        }
    }
    0.0
}

pub fn measure<T: Scalar>(p: &Problem<T>, cfg: &Cfg, report: &mut Report) {
    let start = Instant::now();
    let mut s = Samples::default();
    let an = p.analyze();
    let model = if T::IS_COMPLEX {
        CostModel::complex(p.facto)
    } else {
        CostModel::real(p.facto)
    };
    let costs = TaskCosts::compute(&an.symbol, &model);
    let shape = counts(&an, &model, &costs, report);

    let mut passes = 0;
    while passes < if cfg.quick { 1 } else { MAX_PASSES } {
        // Another pass only when it fits in the time the run was given
        // (the host calibration after the passes takes a share too).
        let elapsed = start.elapsed().as_secs_f64();
        if passes > 0 && elapsed + elapsed / passes as f64 > 0.7 * cfg.seconds {
            break;
        }
        passes += 1;
        analysis_stages(p, &an, &mut s, report);
        let (panel, trsm, gemm) = replay::<T>(&an.symbol, p.facto);
        s.push("kernels.replay_panel_s", panel);
        s.push("kernels.replay_trsm_s", trsm);
        s.push("kernels.replay_gemm_s", gemm);
        engines(p, &an, &mut s, report);
        solves(p, &an, &mut s, report);
    }
    report.note("passes", passes);
    // Names outside the table ("analyze", "solve16") only feed
    // the derived figures below.
    for (name, v) in s.0.iter().filter(|(name, _)| unit_of(name).is_some()) {
        report.put_samples(name, v);
    }

    // Host calibration, in the same run as the numbers it is compared to.
    // (Quick mode runs unoptimized under `cargo test`: one small batch.)
    let side = if cfg.quick { 128 } else { 512 };
    let batches = if cfg.quick { 1 } else { 5 };
    let peak = gemm_rate::<T>(side, side, side, batches);
    let at_median = gemm_rate::<T>(shape.0, shape.1, shape.2, batches);
    report.put("kernels.gemm_peak_gflops", peak);
    report.put("kernels.gemm_at_median_gflops", at_median);
    let llc = host::llc_bytes().unwrap_or(32 << 20);
    let (gbs, array_bytes) = stream_triad(llc, cfg.quick);
    report.put("kernels.stream_gbs", gbs);
    report.put("kernels.stream_array_bytes", array_bytes as f64);
    report.put("kernels.llc_bytes", llc as f64);
    if array_bytes < 4 * llc {
        report.note(
            "stream",
            "arrays below 4 x LLC (quick mode or low memory): the figure includes cache hits",
        );
    }

    // Derived figures, from the reported medians so the sums hold exactly.
    let replay_s = s.med("kernels.replay_panel_s")
        + s.med("kernels.replay_trsm_s")
        + s.med("kernels.replay_gemm_s");
    let factor_1t = s.med("rt.factor_1t_ptg_s");
    report.put("kernels.replay_s", replay_s);
    report.put("kernels.replay_gflops", costs.total / replay_s / 1e9);
    report.put(
        "kernels.roofline_frac",
        costs.total / factor_1t / 1e9 / at_median,
    );
    report.put(
        "core.nonkernel_1t_s",
        factor_1t - s.med("core.assemble_s") - replay_s,
    );
    let stages = [
        "sparse.symmetrize_s",
        "order.nd_s",
        "sparse.permute_s",
        "symbolic.etree_s",
        "symbolic.colcount_s",
        "symbolic.supernode_s",
        "symbolic.structure_s",
    ];
    let analyze = s.med("analyze");
    let attributed: f64 = stages.iter().map(|n| s.med(n)).sum();
    report.put("symbolic.unattributed_s", analyze - attributed);
    report.note("analyze_s", format!("{analyze:.6}"));
    report.note(
        "unattributed_share_of_analyze",
        format!("{:.4}", (analyze - attributed) / analyze),
    );
    let elt = std::mem::size_of::<T>() as f64;
    let nnz_l = an.symbol.nnz_factor() as f64;
    report.put(
        "core.solve_gbs",
        2.0 * nnz_l * elt / s.med("core.solve_s") / 1e9,
    );
    report.put(
        "core.solve16_gflops",
        NRHS as f64 * 2.0 * nnz_l * (T::FLOPS_MUL + T::FLOPS_ADD) / s.med("solve16") / 1e9,
    );
}

/// The counts: they repeat exactly from run to run. Returns the
/// flop-weighted median update shape `(m, n, k)`.
fn counts(
    an: &Analysis,
    model: &CostModel,
    costs: &TaskCosts,
    report: &mut Report,
) -> (usize, usize, usize) {
    let symbol = &an.symbol;
    report.put("order.nnz_l", symbol.nnz_factor() as f64);
    report.put("order.factor_flops", costs.total);
    report.put("symbolic.ncblk", symbol.ncblk() as f64);
    report.put("symbolic.nblocks", symbol.blocks.len() as f64);
    report.put("symbolic.update_tasks", symbol.n_update_tasks() as f64);
    report.put(
        "rt.tasks",
        (symbol.ncblk() + symbol.n_update_tasks()) as f64,
    );
    let widths: Vec<f64> = symbol.cblks.iter().map(|cb| cb.width() as f64).collect();
    report.put("symbolic.panel_width_median", median(&widths));
    let (mut ms, mut ns, mut ks) = (Vec::new(), Vec::new(), Vec::new());
    let (mut panel_flops, mut trsm_flops, mut gemm_flops) = (0.0, 0.0, 0.0);
    for (c, cb) in symbol.cblks.iter().enumerate() {
        let w = cb.width();
        let pf = model.facto_flops(w);
        panel_flops += pf;
        // A panel task's cost is its block factorization plus its TRSM.
        trsm_flops += costs.panel[c] - pf;
        for bi in (cb.block_begin + 1)..cb.block_end {
            let b = &symbol.blocks[bi];
            let flops = costs.update[bi];
            gemm_flops += flops;
            ms.push((cb.stride - b.local_offset, flops));
            ns.push((b.nrows(), flops));
            ks.push((w, flops));
        }
    }
    report.put("kernels.panel_flops", panel_flops);
    report.put("kernels.trsm_flops", trsm_flops);
    report.put("kernels.gemm_flops", gemm_flops);
    let shape = (
        weighted_median(ms) as usize,
        weighted_median(ns) as usize,
        weighted_median(ks) as usize,
    );
    report.put("symbolic.update_m_median", shape.0 as f64);
    report.put("symbolic.update_n_median", shape.1 as f64);
    report.put("symbolic.update_k_median", shape.2 as f64);
    (shape.0.max(1), shape.1.max(1), shape.2.max(1))
}

/// One pass over `Analysis::new`'s stages through the public functions it
/// is built from, plus the whole call for the unattributed remainder.
fn analysis_stages<T: Scalar>(p: &Problem<T>, an: &Analysis, s: &mut Samples, report: &mut Report) {
    let opts = SolverOptions::default();
    let (t, sym) = timed(|| p.a.pattern().symmetrize());
    s.push("sparse.symmetrize_s", t);
    let (t, fill_perm) = timed(|| compute_ordering(&sym, opts.ordering));
    s.push("order.nd_s", t);
    let (t_perm1, permuted) = timed(|| sym.permute_symmetric(fill_perm.perm()));
    let (t_etree1, (parent, post, post_perm)) = timed(|| {
        let parent = elimination_tree(&permuted);
        let post = postorder(&parent);
        let post_perm = Permutation::from_iperm(post.clone());
        (parent, post, post_perm)
    });
    let (t_perm2, permuted) = timed(|| permuted.permute_symmetric(post_perm.perm()));
    s.push("sparse.permute_s", t_perm1 + t_perm2);
    let (t_etree2, (parent, perm)) =
        timed(|| (relabel_parent(&parent, &post), fill_perm.then(&post_perm)));
    s.push("symbolic.etree_s", t_etree1 + t_etree2);
    let (t, (cc, _)) = timed(|| column_counts(&permuted, &parent));
    s.push("symbolic.colcount_s", t);
    let (t_detect, partition) = timed(|| {
        let first = detect_supernodes(&parent, &cc);
        build_partition(&permuted, &parent, first)
    });
    let nnz_exact = partition.nnz_factor();
    let (t_amalg, partition) = timed(|| amalgamate(partition, &opts.amalgamation));
    s.push("symbolic.supernode_s", t_detect + t_amalg);
    s.push(
        "symbolic.amalg_extra_fill_frac",
        partition.nnz_factor() as f64 / nnz_exact as f64 - 1.0,
    );
    let (t, symbol) = timed(|| SymbolMatrix::from_partition(&partition, &opts.split));
    s.push("symbolic.structure_s", t);
    // The staged pipeline must be the one `Analysis::new` runs.
    if symbol.ncblk() != an.symbol.ncblk()
        || symbol.blocks.len() != an.symbol.blocks.len()
        || perm.perm() != an.perm.perm()
    {
        report.wrong("the staged analysis pipeline diverged from Analysis::new");
    }
    // Computed inside every factorize call, not inside Analysis::new.
    let (t, _) = timed(|| {
        let costs = an.costs(T::IS_COMPLEX);
        let prio = critical_path_priorities(&an.symbol, &costs);
        black_box((static_schedule(&an.symbol, &costs, THREADS), prio))
    });
    s.push("symbolic.cost_s", t);
    let (t, whole) = timed(|| p.analyze());
    black_box(whole);
    s.push("analyze", t);
}

/// Dense replay of the factorization's own kernel calls, in panel order,
/// sequentially, on scratch buffers and with no scatter: per panel the
/// diagonal-block factorization (`potrf`/`ldlt`/`getrf`), the panel
/// triangular solve(s), and one GEMM per off-diagonal block with the
/// shapes `update_task` uses (`m` = rows at and below the block, `n` =
/// rows of the block, `k` = panel width; LU adds the U-side product).
/// Returns seconds spent in (panel, trsm, gemm) calls.
fn replay<T: Scalar>(symbol: &SymbolMatrix, facto: FactoKind) -> (f64, f64, f64) {
    let max_panel = symbol
        .cblks
        .iter()
        .map(|cb| cb.stride * cb.width())
        .max()
        .unwrap_or(0);
    let max_w = symbol.cblks.iter().map(|cb| cb.width()).max().unwrap_or(0);
    let max_out = symbol
        .cblks
        .iter()
        .flat_map(|cb| {
            symbol.blocks[cb.block_begin + 1..cb.block_end]
                .iter()
                .map(|b| (cb.stride - b.local_offset) * b.nrows())
        })
        .max()
        .unwrap_or(0);
    let max_b = symbol
        .cblks
        .iter()
        .flat_map(|cb| {
            symbol.blocks[cb.block_begin + 1..cb.block_end]
                .iter()
                .map(|b| cb.width() * b.nrows())
        })
        .max()
        .unwrap_or(0);
    let lu = facto == FactoKind::Lu;
    let mut l = vec![T::zero(); max_panel];
    let mut u = vec![T::zero(); if lu { max_panel } else { 0 }];
    let mut diag = vec![T::zero(); max_w * max_w];
    let mut d = vec![T::one(); max_w];
    let mut out = vec![T::zero(); max_out];
    // LDLt's B operand is the staged D·Lᵀ block (k × n); its values do
    // not matter to the GEMM's cost.
    let staged = vec![T::from_f64(0.01); if facto == FactoKind::Ldlt { max_b } else { 0 }];
    let (mut t_panel, mut t_trsm, mut t_gemm) = (0.0, 0.0, 0.0);
    for cb in &symbol.cblks {
        let (w, stride) = (cb.width(), cb.stride);
        let below = stride - w;
        // A diagonally dominant block: every kernel succeeds on it and no
        // value drifts to a denormal or an infinity.
        for j in 0..w {
            let col = &mut l[j * stride..(j + 1) * stride];
            col.fill(T::from_f64(0.01));
            col[j] = T::from_f64(w as f64 + 1.0);
        }
        if lu {
            u[..stride * w].fill(T::from_f64(0.01));
        }
        let t = Instant::now();
        match facto {
            FactoKind::Cholesky => potrf(w, &mut l, stride).expect("replay block is SPD"),
            FactoKind::Ldlt => {
                ldlt(w, &mut l, stride, &mut d, 0.0).expect("replay block has no zero pivot");
            }
            FactoKind::Lu => {
                getrf(w, &mut l, stride, 0.0).expect("replay block has no zero pivot");
            }
        }
        t_panel += t.elapsed().as_secs_f64();
        if below > 0 {
            // Aliasing-free copy of the factored triangle, as in core.
            for j in 0..w {
                diag[j * w..(j + 1) * w].copy_from_slice(&l[j * stride..j * stride + w]);
            }
            let t = Instant::now();
            match facto {
                FactoKind::Cholesky => {
                    trsm(
                        Side::Right,
                        Uplo::Lower,
                        Trans::Trans,
                        Diag::NonUnit,
                        below,
                        w,
                        &diag,
                        w,
                        &mut l[w..],
                        stride,
                    );
                }
                FactoKind::Ldlt => {
                    trsm(
                        Side::Right,
                        Uplo::Lower,
                        Trans::Trans,
                        Diag::Unit,
                        below,
                        w,
                        &diag,
                        w,
                        &mut l[w..],
                        stride,
                    );
                    ldlt_apply_diag(below, w, &d, &mut l[w..], stride);
                }
                FactoKind::Lu => {
                    trsm(
                        Side::Right,
                        Uplo::Upper,
                        Trans::NoTrans,
                        Diag::NonUnit,
                        below,
                        w,
                        &diag,
                        w,
                        &mut l[w..],
                        stride,
                    );
                    trsm(
                        Side::Right,
                        Uplo::Lower,
                        Trans::Trans,
                        Diag::Unit,
                        below,
                        w,
                        &diag,
                        w,
                        &mut u[w..],
                        stride,
                    );
                }
            }
            t_trsm += t.elapsed().as_secs_f64();
        }
        for b in &symbol.blocks[cb.block_begin + 1..cb.block_end] {
            let (m, n, k) = (stride - b.local_offset, b.nrows(), w);
            let a1 = &l[b.local_offset..];
            let t = Instant::now();
            match facto {
                FactoKind::Cholesky => {
                    gemm(
                        Trans::NoTrans,
                        Trans::Trans,
                        m,
                        n,
                        k,
                        T::one(),
                        a1,
                        stride,
                        a1,
                        stride,
                        T::zero(),
                        &mut out,
                        m,
                    );
                }
                FactoKind::Ldlt => {
                    gemm(
                        Trans::NoTrans,
                        Trans::NoTrans,
                        m,
                        n,
                        k,
                        T::one(),
                        a1,
                        stride,
                        &staged,
                        k,
                        T::zero(),
                        &mut out,
                        m,
                    );
                }
                FactoKind::Lu => {
                    let ut = &u[b.local_offset..];
                    gemm(
                        Trans::NoTrans,
                        Trans::Trans,
                        m,
                        n,
                        k,
                        T::one(),
                        a1,
                        stride,
                        ut,
                        stride,
                        T::zero(),
                        &mut out,
                        m,
                    );
                    if m > n {
                        gemm(
                            Trans::NoTrans,
                            Trans::Trans,
                            m - n,
                            n,
                            k,
                            T::one(),
                            &u[b.local_offset + n..],
                            stride,
                            a1,
                            stride,
                            T::zero(),
                            &mut out,
                            m - n,
                        );
                    }
                }
            }
            t_gemm += t.elapsed().as_secs_f64();
        }
    }
    black_box((&l, &u, &out));
    (t_panel, t_trsm, t_gemm)
}

/// Check a factorization through one solve; count it as an operation.
fn check<T: Scalar>(p: &Problem<T>, f: &Factors<'_, T>, what: &str, report: &mut Report) -> bool {
    report.attempted += 1;
    let berr = p.berr(&f.solve(&p.b), &p.b);
    if berr > BERR_LIMIT {
        report.failed += 1;
        eprintln!("operation failed: {what}: backward error {berr:.3e}");
        return false;
    }
    true
}

fn traced_exec() -> (std::sync::Arc<TraceRecorder>, ExecOptions) {
    let rec = TraceRecorder::shared();
    let exec = ExecOptions {
        run: RunConfig {
            trace: Some(rec.clone()),
            ..RunConfig::default()
        },
        ..ExecOptions::default()
    };
    (rec, exec)
}

/// Duration of the last phase span called `label`, in seconds.
fn phase_s(trace: &Trace, label: &str) -> f64 {
    trace
        .spans
        .iter()
        .rev()
        .find(|sp| sp.kind == SpanKind::Phase && sp.label == label)
        .map_or(f64::NAN, |sp| sp.dur_ns() as f64 / 1e9)
}

/// Per engine: the plain 1-thread baseline, parallel efficiency at 2
/// threads, the recorder's busy/wait/steal shares at 2 threads and the
/// per-task scheduling overhead at 1 thread.
fn engines<T: Scalar>(p: &Problem<T>, an: &Analysis, s: &mut Samples, report: &mut Report) {
    for &(kind, e) in &ENGINES {
        let mut run = |threads: usize, exec: &ExecOptions, what: &str| -> Option<f64> {
            let (t, res) = timed(|| an.factorize_with(&p.a, kind, threads, exec));
            match res {
                Ok(f) => check(p, &f, what, report).then_some(t),
                Err(err) => {
                    report.attempted += 1;
                    report.failed += 1;
                    eprintln!("operation failed: {what}: {err}");
                    None
                }
            }
        };
        let plain = ExecOptions::default();
        let Some(t1) = run(1, &plain, e) else {
            continue;
        };
        let Some(t2) = run(THREADS, &plain, e) else {
            continue;
        };
        s.push(&format!("rt.factor_1t_{e}_s"), t1);
        s.push(&format!("rt.par_eff_{e}"), t1 / (THREADS as f64 * t2));

        // 2 threads, recorder attached: where the workers' time went.
        let (rec, exec) = traced_exec();
        let Some(t2_traced) = run(THREADS, &exec, e) else {
            continue;
        };
        let trace = rec.snapshot();
        let denom = (trace.wall_ns() as f64 * trace.nworkers() as f64).max(1.0);
        let ws = trace.worker_stats();
        let share = |f: &dyn Fn(&dagfact_rt::trace::WorkerStats) -> u64| {
            ws.iter().map(f).sum::<u64>() as f64 / denom
        };
        s.push(&format!("rt.busy_frac_{e}"), share(&|w| w.busy_ns));
        s.push(&format!("rt.wait_frac_{e}"), share(&|w| w.wait_ns));
        s.push(&format!("rt.steal_frac_{e}"), share(&|w| w.steal_ns));
        if kind == RuntimeKind::Ptg {
            s.push("rt.trace_overhead_frac", t2_traced / t2 - 1.0);
            s.push(
                "rt.critical_path_s",
                trace.critical_path().length_ns as f64 / 1e9,
            );
            s.push("core.numeric_s", phase_s(&trace, "numeric"));
        }

        // 1 thread, recorder and an unbounded ledger attached: what the
        // numeric phase spends outside task bodies, per task.
        let (rec, mut exec) = traced_exec();
        let ledger = MemoryBudget::unbounded();
        exec.run.budget = Some(ledger.clone());
        if run(1, &exec, e).is_none() {
            continue;
        }
        let trace = rec.snapshot();
        let tasks = trace.task_durations().len().max(1);
        let outside = phase_s(&trace, "numeric") * 1e9 - trace.total_busy_ns() as f64;
        s.push(
            &format!("rt.overhead_ns_per_task_{e}"),
            outside / tasks as f64,
        );
        if kind == RuntimeKind::Ptg {
            s.push("core.peak_factor_bytes", ledger.peak() as f64);
        }
    }
}

/// Assembly, the solve family on one set of ptg factors, and the sparse
/// kernels the solve path leans on.
fn solves<T: Scalar>(p: &Problem<T>, an: &Analysis, s: &mut Samples, report: &mut Report) {
    let (t, tab) = timed(|| CoefTab::assemble(an, &p.a));
    drop(tab);
    s.push("core.assemble_s", t);
    let f = match an.factorize(&p.a, RuntimeKind::Ptg, THREADS) {
        Ok(f) => f,
        Err(e) => {
            report.wrong(&format!("factorization for the solve measurements: {e}"));
            return;
        }
    };
    s.push("core.pivots_repaired", f.pivots_repaired as f64);
    for _ in 0..3 {
        let (t, x) = timed(|| f.solve(black_box(&p.b)));
        black_box(x);
        s.push("core.solve_s", t);
    }
    let (t, x) = timed(|| f.solve_many(black_box(&p.b_many), NRHS));
    black_box(x);
    s.push("solve16", t);
    let n = p.a.nrows();
    let (t, xs) = timed(|| f.solve_parallel_many(black_box(&p.b_many), NRHS, THREADS));
    report.attempted += 1;
    let worst = p.berr_many(&xs);
    if worst <= BERR_LIMIT {
        s.push("core.psolve16_2t_s", t);
    } else {
        report.failed += 1;
        eprintln!("operation failed: solve_parallel_many: backward error {worst:.3e}");
    }
    for _ in 0..3 {
        let (t, refined) =
            timed(|| f.solve_refined(&p.a, black_box(&p.b), REFINE_ITERS, REFINE_TOL));
        s.push("core.refine_s", t);
        s.push("core.refine_iterations", refined.iterations as f64);
        s.push("core.berr", p.berr(&refined.x, &p.b));
    }

    let mut y = vec![T::zero(); n];
    for _ in 0..5 {
        let (t, ()) = timed(|| p.a.spmv(black_box(&p.b), &mut y));
        s.push("sparse.spmv_s", t);
    }
    black_box(&y);
    // COO -> CSC the way the daemon loads a job's inline matrix.
    let triplets = triplets_of(&p.a);
    let (t, built) = timed(|| {
        let mut coo = TripletBuilder::new(n, n);
        for &(i, j, v) in &triplets {
            coo.try_push(i, j, v).expect("triplet inside the matrix");
        }
        coo.try_build().expect("triplets of a valid matrix")
    });
    if built.nnz() != p.a.nnz() {
        report.wrong("COO -> CSC round trip changed the matrix");
    }
    s.push("sparse.triplets_to_csc_s", t);
}

/// Best GFlop/s over `batches` of the update's GEMM form (`A·Bᵀ`) at one
/// shape.
fn gemm_rate<T: Scalar>(m: usize, n: usize, k: usize, batches: usize) -> f64 {
    let a = vec![T::from_f64(0.5); m * k];
    let b = vec![T::from_f64(0.25); n * k];
    let mut c = vec![T::zero(); m * n];
    let flops = (m * n * k) as f64 * (T::FLOPS_MUL + T::FLOPS_ADD);
    // Enough calls per batch that the clock's resolution does not matter.
    let batch_flops = if batches == 1 { 1e7 } else { 2e8 };
    let calls = ((batch_flops / flops).ceil() as usize).clamp(1, 100_000);
    let mut best = 0.0f64;
    for _ in 0..batches {
        let t = Instant::now();
        for _ in 0..calls {
            gemm(
                Trans::NoTrans,
                Trans::Trans,
                m,
                n,
                k,
                T::one(),
                black_box(&a),
                m,
                &b,
                n,
                T::zero(),
                &mut c,
                m,
            );
        }
        black_box(&c);
        best = best.max(calls as f64 * flops / t.elapsed().as_secs_f64() / 1e9);
    }
    best
}

/// Single-thread triad `a = b + s·c` over three f64 arrays, each at least
/// four times the last-level cache so no pass is served from it. Returns
/// the best GB/s of two passes (computed bytes: 24 per element) and the
/// size of each array.
fn stream_triad(llc: usize, quick: bool) -> (f64, usize) {
    let mut bytes = if quick { 8 << 20 } else { 4 * llc };
    // Three arrays must fit comfortably in what the host has free.
    if let Some(avail) = host::mem_available_bytes() {
        bytes = bytes.min(avail / 8);
    }
    let n = (bytes / 8).max(1);
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let mut best = 0.0f64;
    for pass in 0..3 {
        let scale = 0.5 + pass as f64;
        let t = Instant::now();
        for ((ai, &bi), &ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + scale * ci;
        }
        black_box(&a);
        let gbs = 24.0 * n as f64 / t.elapsed().as_secs_f64() / 1e9;
        // Pass 0 pays the first touch of `a`.
        if pass > 0 {
            best = best.max(gbs);
        }
    }
    (best, n * 8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagfact_sparse::gen;

    #[test]
    fn weighted_median_follows_the_weight() {
        assert_eq!(
            weighted_median(vec![(1, 1.0), (2, 1.0), (100, 10.0)]),
            100.0
        );
        assert_eq!(weighted_median(vec![(3, 1.0), (1, 1.0), (2, 1.0)]), 2.0);
        assert_eq!(weighted_median(Vec::new()), 0.0);
    }

    #[test]
    fn replay_runs_every_kind() {
        for (facto, lu) in [
            (FactoKind::Cholesky, false),
            (FactoKind::Ldlt, false),
            (FactoKind::Lu, true),
        ] {
            let a = gen::grid_laplacian_3d(6, 6, 6);
            let an = Analysis::new(a.pattern(), facto, &SolverOptions::default());
            let (p, t, g) = replay::<f64>(&an.symbol, facto);
            assert!(p > 0.0 && t > 0.0 && g > 0.0, "{facto:?} lu={lu}");
        }
    }
}
