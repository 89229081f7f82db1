//! The benchmark's vocabulary: every workload and metric name, with its
//! unit, direction and (for end-to-end metrics) regression bound.
//!
//! `BENCHMARK.json` at the repository root repeats these tables for the
//! driver; `tests/contract.rs` asserts the two agree, so a name can only
//! be added or changed in both places at once. Later issues refer to
//! metrics by these names.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A workload: one set of inputs the benchmark runs.
pub struct WorkloadDef {
    pub name: &'static str,
    /// One line: which layer dominates, and which changes it should and
    /// should not show.
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "audi_llt",
        why: "3D 27-point Laplacian, f64 Cholesky: wide supernodes, update GEMM dominates; kernels/rt changes show, order/symbolic speed-ups barely move it",
    },
    WorkloadDef {
        name: "shell_lu",
        why: "quasi-2D convection-diffusion, f64 LU, 78k tiny tasks: analysis and per-task overhead dominate; bypass for GEMM work, target for order/symbolic/rt, only getrf path",
    },
    WorkloadDef {
        name: "pml_zldlt",
        why: "3D complex Helmholtz, C64 LDLt: portable (non-AVX2) kernel tier and diagonal scaling; shows f64-SIMD or Cholesky-only gains bought at the generic path's cost",
    },
    WorkloadDef {
        name: "serve_mix",
        why: "in-process daemon, closed loop of 2 clients, 90% factor-hit reads and 10% refactorizing writes over two problems: warmed solve path, cache fill/eviction, queueing",
    },
];

/// A metric a user of the system sees, with the share of the parent's
/// median by which it may worsen before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub what: &'static str,
}

use Better::{Higher, Lower};

/// Every workload emits every one of these (the driver's contract): the
/// batch workloads measure their own problem, `serve_mix` measures the
/// direct-call metrics on its LDLt problem between closed-loop phases and reports
/// the closed loop's job rate as `ops_per_s`.
///
/// A time is the *best* (minimum) over the run's rounds, a rate the best
/// (maximum): on a shared host contention only ever slows a round down,
/// and run to run the medians of identical runs differed by up to 23%
/// where the minima differed by 7% (README, "Why best-of-rounds").
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25,
        what: "input generation + one warm-up (analyze, factorize ptg, solve; serve: daemon start + two cold fills too); median of 3 set-ups" },
    EndToEnd { name: "tts_s", unit: "s", better: Lower, bound: 0.25,
        what: "time to a solution at backward error <= 1e-10: analyze + factorize(ptg, 2 threads) + solve_refined of one round; best round" },
    EndToEnd { name: "analyze_s", unit: "s", better: Lower, bound: 0.25,
        what: "Analysis::new(pattern, facto, SolverOptions::default()); best of rounds" },
    EndToEnd { name: "factor_ptg_s", unit: "s", better: Lower, bound: 0.25,
        what: "Analysis::factorize(a, Ptg, 2): assembly + numeric + finite sweep (CLI / Solver default engine); best of rounds" },
    EndToEnd { name: "factor_native_s", unit: "s", better: Lower, bound: 0.25,
        what: "same, RuntimeKind::Native (the daemon's default engine)" },
    EndToEnd { name: "factor_dataflow_s", unit: "s", better: Lower, bound: 0.25,
        what: "same, RuntimeKind::Dataflow" },
    EndToEnd { name: "solve16_s", unit: "s", better: Lower, bound: 0.25,
        what: "Factors::solve_many, 16 RHS; best of rounds" },
    EndToEnd { name: "ops_per_s", unit: "1/s", better: Higher, bound: 0.25,
        what: "correct timed operations per second (batch: the 11 calls of the best round / its wall time; serve_mix: jobs / wall time of the best 200-job phase of the closed loop)" },
    EndToEnd { name: "peak_rss_bytes", unit: "B", better: Lower, bound: 0.15,
        what: "VmHWM of the workload's process at exit" },
];

/// A metric of a single layer (layer = crate name). `moves` names the
/// end-to-end metric it is expected to move, and on which workload.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // --- sparse ---------------------------------------------------------
    pl("sparse.symmetrize_s", "s", Lower, "analyze_s on shell_lu"),
    pl("sparse.permute_s", "s", Lower, "analyze_s on shell_lu (the two permute_symmetric calls)"),
    pl("sparse.spmv_s", "s", Lower, "core.refine_s and so tts_s on batch workloads"),
    pl("sparse.triplets_to_csc_s", "s", Lower, "serve.hit_p50_ms on serve_mix (COO -> CSC of a job's inline matrix)"),
    // --- order ----------------------------------------------------------
    pl("order.nd_s", "s", Lower, "analyze_s/tts_s on shell_lu; small share on audi_llt"),
    pl("order.nnz_l", "count", Lower, "every factor_*_s, solve16_s, peak_rss_bytes on batch workloads"),
    pl("order.factor_flops", "count", Lower, "every factor_*_s on batch workloads"),
    // --- symbolic -------------------------------------------------------
    pl("symbolic.etree_s", "s", Lower, "analyze_s on shell_lu"),
    pl("symbolic.colcount_s", "s", Lower, "analyze_s on shell_lu"),
    pl("symbolic.supernode_s", "s", Lower, "analyze_s on shell_lu"),
    pl("symbolic.structure_s", "s", Lower, "analyze_s on shell_lu"),
    pl("symbolic.cost_s", "s", Lower, "factor_*_s on shell_lu (computed inside every factorize call)"),
    pl("symbolic.unattributed_s", "s", Lower, "analyze_s minus the sparse/order/symbolic stage times"),
    pl("symbolic.ncblk", "count", Lower, "rt.tasks and so factor_*_s on shell_lu"),
    pl("symbolic.nblocks", "count", Lower, "rt.tasks and so factor_*_s on shell_lu"),
    pl("symbolic.update_tasks", "count", Lower, "rt.overhead_ns_per_task x rt.tasks on shell_lu"),
    pl("symbolic.panel_width_median", "count", Higher, "kernels.replay_gflops on audi_llt/pml_zldlt"),
    pl("symbolic.update_m_median", "count", Higher, "kernels.replay_gflops (flop-weighted median update shape)"),
    pl("symbolic.update_n_median", "count", Higher, "kernels.replay_gflops"),
    pl("symbolic.update_k_median", "count", Higher, "kernels.replay_gflops"),
    pl("symbolic.amalg_extra_fill_frac", "ratio", Lower, "order.nnz_l against block size"),
    // --- kernels --------------------------------------------------------
    pl("kernels.replay_panel_s", "s", Lower, "factor_*_s on audi_llt/pml_zldlt"),
    pl("kernels.replay_trsm_s", "s", Lower, "factor_*_s on audi_llt/pml_zldlt"),
    pl("kernels.replay_gemm_s", "s", Lower, "factor_*_s on audi_llt/pml_zldlt; no change on shell_lu"),
    pl("kernels.replay_s", "s", Lower, "factor_*_s; vs rt.factor_1t_ptg_s it is the kernel-to-factorization gap"),
    pl("kernels.replay_gflops", "GFlop/s", Higher, "factor_*_s on audi_llt/pml_zldlt"),
    pl("kernels.panel_flops", "count", Lower, "kernels.replay_panel_s"),
    pl("kernels.trsm_flops", "count", Lower, "kernels.replay_trsm_s"),
    pl("kernels.gemm_flops", "count", Lower, "kernels.replay_gemm_s"),
    pl("kernels.gemm_peak_gflops", "GFlop/s", Higher, "host calibration: 512^3 GEMM in the workload's scalar type"),
    pl("kernels.gemm_at_median_gflops", "GFlop/s", Higher, "host calibration at the flop-weighted median update shape"),
    pl("kernels.stream_gbs", "GB/s", Higher, "host calibration: triad over arrays >= 4 x LLC"),
    pl("kernels.stream_array_bytes", "B", Higher, "size of each triad array (stated beside kernels.llc_bytes)"),
    pl("kernels.llc_bytes", "B", Higher, "last-level cache size the triad arrays are sized against"),
    pl("kernels.roofline_frac", "ratio", Higher, "factor_ptg_s: achieved 1-thread rate / GEMM rate at the median shape"),
    // --- rt ---------------------------------------------------------------
    pl("rt.factor_1t_native_s", "s", Lower, "plain single-thread baseline of factor_native_s"),
    pl("rt.factor_1t_dataflow_s", "s", Lower, "plain single-thread baseline of factor_dataflow_s"),
    pl("rt.factor_1t_ptg_s", "s", Lower, "plain single-thread baseline of factor_ptg_s"),
    pl("rt.par_eff_native", "ratio", Higher, "factor_native_s at 2 threads on audi_llt"),
    pl("rt.par_eff_dataflow", "ratio", Higher, "factor_dataflow_s at 2 threads on audi_llt"),
    pl("rt.par_eff_ptg", "ratio", Higher, "factor_ptg_s at 2 threads on audi_llt"),
    pl("rt.busy_frac_native", "ratio", Higher, "factor_native_s at 2 threads"),
    pl("rt.busy_frac_dataflow", "ratio", Higher, "factor_dataflow_s at 2 threads"),
    pl("rt.busy_frac_ptg", "ratio", Higher, "factor_ptg_s at 2 threads"),
    pl("rt.wait_frac_native", "ratio", Lower, "factor_native_s at 2 threads on audi_llt"),
    pl("rt.wait_frac_dataflow", "ratio", Lower, "factor_dataflow_s at 2 threads"),
    pl("rt.wait_frac_ptg", "ratio", Lower, "factor_ptg_s at 2 threads"),
    pl("rt.steal_frac_native", "ratio", Lower, "factor_native_s at 2 threads"),
    pl("rt.steal_frac_dataflow", "ratio", Lower, "factor_dataflow_s at 2 threads"),
    pl("rt.steal_frac_ptg", "ratio", Lower, "factor_ptg_s at 2 threads"),
    pl("rt.overhead_ns_per_task_native", "ns", Lower, "factor_native_s on shell_lu; nothing on audi_llt"),
    pl("rt.overhead_ns_per_task_dataflow", "ns", Lower, "factor_dataflow_s on shell_lu"),
    pl("rt.overhead_ns_per_task_ptg", "ns", Lower, "factor_ptg_s on shell_lu"),
    pl("rt.critical_path_s", "s", Lower, "lower limit of factor_ptg_s as threads are added"),
    pl("rt.tasks", "count", Lower, "factor_ptg_s on shell_lu through per-task overhead"),
    pl("rt.trace_overhead_frac", "ratio", Lower, "traced / untraced ptg factorization - 1: the cost of leaving the recorder attached"),
    // --- core -------------------------------------------------------------
    pl("core.assemble_s", "s", Lower, "factor_*_s on shell_lu"),
    pl("core.numeric_s", "s", Lower, "factor_ptg_s (recorder's numeric phase, 2 threads)"),
    pl("core.nonkernel_1t_s", "s", Lower, "factor_*_s everywhere: scatter, row maps, locks, scheduling"),
    pl("core.peak_factor_bytes", "B", Lower, "peak_rss_bytes"),
    pl("core.solve_s", "s", Lower, "tts_s, ops_per_s on serve_mix (Factors::solve, 1 RHS; demoted from end-to-end: cache-state noise)"),
    pl("core.refine_s", "s", Lower, "tts_s, ops_per_s on serve_mix (Factors::solve_refined; demoted from end-to-end: cache-state noise)"),
    pl("core.solve_gbs", "GB/s", Higher, "core.solve_s, core.refine_s (computed bytes: factor storage x 2 sweeps / core.solve_s)"),
    pl("core.solve16_gflops", "GFlop/s", Higher, "solve16_s"),
    pl("core.psolve16_2t_s", "s", Lower, "solve16_s once the parallel solve is on the served path"),
    pl("core.refine_iterations", "count", Lower, "core.refine_s"),
    pl("core.pivots_repaired", "count", Lower, "core.refine_iterations"),
    pl("core.berr", "ratio", Lower, "correctness: backward error of the refined solve"),
    // --- serve ------------------------------------------------------------
    pl("serve.hit_p50_ms", "ms", Lower, "ops_per_s on serve_mix: client-side latency of factor-hit jobs"),
    pl("serve.hit_p95_ms", "ms", Lower, "ops_per_s on serve_mix: hits queue behind refactorizations"),
    pl("serve.hit_p99_ms", "ms", Lower, "tail of the above; 0 when fewer than 10 hits lie beyond it"),
    pl("serve.refactor_p50_ms", "ms", Lower, "ops_per_s on serve_mix: client-side latency of write jobs"),
    pl("serve.hit_service_p50_ms", "ms", Lower, "serve.hit_p50_ms (JobResponse.elapsed_us, excludes queueing)"),
    pl("serve.queue_wait_p50_ms", "ms", Lower, "serve.hit_p50_ms"),
    pl("serve.queue_wait_p95_ms", "ms", Lower, "serve.hit_p95_ms"),
    pl("serve.direct_refine_ms", "ms", Lower, "the hit's refined solve called on core directly"),
    pl("serve.hit_overhead_ms", "ms", Lower, "serve.hit_p50_ms: service p50 - direct refined solve"),
    pl("serve.refactor_service_p50_ms", "ms", Lower, "serve.refactor_p50_ms and, through queueing, serve.hit_p95_ms"),
    pl("serve.direct_factor_ms", "ms", Lower, "the write's factorization (native, 1 thread) called on core directly"),
    pl("serve.cold_ms", "ms", Lower, "setup_s on serve_mix: a cold fill (analysis + factorization + solve)"),
    pl("serve.factor_hit_ratio", "ratio", Higher, "ops_per_s on serve_mix"),
    pl("serve.pattern_hit_ratio", "ratio", Higher, "ops_per_s on serve_mix"),
    pl("serve.factor_evictions", "count", Lower, "peak_rss_bytes against refill cost"),
    pl("serve.batched_jobs", "count", Higher, "ops_per_s on serve_mix once refine-free hits are coalesced"),
    pl("serve.rejected", "count", Lower, "failed operations on serve_mix"),
];

/// Metric names are restricted to what every downstream tool accepts.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Unit of a known metric (either table), `None` for an unknown name.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_in_charset() {
        let mut all: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        all.extend(PER_LAYER.iter().map(|m| m.name));
        all.extend(WORKLOADS.iter().map(|w| w.name));
        for n in &all {
            assert!(valid_name(n), "bad name {n}");
        }
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate name");
        assert!(
            !valid_name("has space")
                && !valid_name("")
                && !valid_name(".lead")
                && !valid_name("a/b")
        );
    }

    #[test]
    fn tables_fit_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
