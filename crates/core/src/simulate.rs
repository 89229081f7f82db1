//! Lowering an analyzed factorization onto the platform simulator.
//!
//! The paper's performance studies (Figures 2 and 4) compare schedulers on
//! hardware this reproduction does not have; `simulate_factorization`
//! replays the *exact task DAG* of the solver on the calibrated
//! discrete-event machine of `dagfact-gpusim` instead (see DESIGN.md §2).
//!
//! Faithful to the systems being modeled:
//!
//! * every policy simulates the two-level panel/update DAG the solver
//!   runs (§V), with only update tasks GPU-eligible and panel data as the
//!   unit of transfer;
//! * the **native** policy adds PaStiX's analyze-time static mapping: the
//!   list schedule's owner per panel, as in the solver's native program.

use crate::analysis::Analysis;
use crate::tasks::TaskKind;
use dagfact_gpusim::{
    simulate, Platform, SimDag, SimData, SimPolicy, SimReport, SimResource, SimTask, TaskShape,
};
use dagfact_rt::ptg::PtgProgram;
use dagfact_rt::trace::{chrome_document, chrome_event, units};
use dagfact_rt::{Json, RuntimeKind};

/// Options for a simulated factorization.
#[derive(Debug, Clone, Default)]
pub struct SimOptions {
    /// Double-complex arithmetic? (Z problems transfer 16-byte scalars and
    /// count complex flops.)
    pub complex: bool,
    /// Fuse whole elimination-tree subtrees below this flop threshold into
    /// single tasks — the paper's §VI future-work granularity control
    /// ("merging leaves or subtrees together yields bigger, more
    /// computationally intensive tasks"). `None` disables clustering.
    pub cluster_flops: Option<f64>,
}

/// Simulate this factorization on `platform` under `policy`; returns the
/// simulated schedule metrics (GFlop/s of Figures 2 and 4).
pub fn simulate_factorization(
    analysis: &Analysis,
    options: &SimOptions,
    platform: &Platform,
    policy: SimPolicy,
) -> SimReport {
    let dag = build_sim_dag(analysis, options, platform, policy);
    simulate(&dag, platform, policy)
}

/// Serialize a simulator run's span log to a Chrome-trace document
/// (the format of [`dagfact_rt::chrome_trace`]). Simulated seconds are
/// mapped onto the microsecond `ts` axis; CPU workers, GPU streams and
/// the two PCIe directions get their own `pid` groups so Perfetto renders
/// each resource class as a track group.
pub fn sim_chrome_trace(report: &SimReport) -> Json {
    let mut events: Vec<Json> = Vec::with_capacity(report.spans.len());
    for s in &report.spans {
        // Simulated seconds → ns; the float → integer cast saturates on
        // absurd horizons and clamps negatives to zero.
        let to_ns = |secs: f64| (secs * units::NS_PER_SEC) as u64;
        let (pid, tid, group) = match s.resource {
            SimResource::Cpu(w) => (1usize, w, "cpu"),
            SimResource::Gpu(g) => (2, g, "gpu"),
            SimResource::H2d(g) => (3, g, "h2d"),
            SimResource::D2h(g) => (4, g, "d2h"),
        };
        let name = match s.task {
            Some(t) => format!("{} #{t}", s.label),
            None => s.label.to_string(),
        };
        let start = to_ns(s.start);
        let end = to_ns(s.end).max(start);
        let mut args = Json::obj().field("resource", group);
        if let Some(t) = s.task {
            args = args.field("task", t);
        }
        events.push(chrome_event(name, s.label, pid, tid, start, end - start, args));
    }
    chrome_document(events)
}

/// Lower the analysis to a [`SimDag`] (exposed for the benches and tests).
pub fn build_sim_dag(
    analysis: &Analysis,
    options: &SimOptions,
    platform: &Platform,
    policy: SimPolicy,
) -> SimDag {
    let symbol = &analysis.symbol;
    let is_ldlt = analysis.facto == dagfact_symbolic::FactoKind::Ldlt;
    // The generic runtimes re-apply D·Lᵀ inside every LDLᵀ update instead
    // of buffering it once per panel like the native scheduler (§V-A);
    // calibrated ≈20% kernel-efficiency loss on those tasks.
    let ldlt_penalty = if is_ldlt && policy != SimPolicy::NativeStatic {
        1.2
    } else {
        1.0
    };
    // All three policies run the two-level panel/update DAG, exactly what
    // StarPU/PaRSEC receive — the ptg policy's program, read once. For the
    // native policy this models PaStiX's fine-grain dynamic scheduler
    // ([1], and §V: "this functionality dynamically splits update tasks,
    // so that the critical path of the algorithm can be reduced"): the 1D
    // cost-model list schedule still provides the static owner, inherited
    // by a panel's update tasks.
    let program = analysis.program(RuntimeKind::Ptg, 1, options.complex, |_, _| {});
    let costs = program.costs();
    let scalar_bytes = if options.complex { 16.0 } else { 8.0 };
    // PaStiX's layout, `stride × w` per side, which the paper's transfers
    // move: the solver's trimmed Uᵀ panels would change Table I, Figs 2–4.
    let sides = analysis.facto.sides() as f64;
    let data: Vec<SimData> = symbol
        .cblks
        .iter()
        .map(|cb| SimData {
            bytes: cb.stride as f64 * cb.width() as f64 * scalar_bytes * sides,
        })
        .collect();
    let owners = match policy {
        SimPolicy::NativeStatic => analysis.static_owners(costs, platform.cores),
        _ => vec![0; symbol.ncblk()],
    };
    // The simulator breaks ties by task id (ready queues, flop sums) and its
    // figures are calibrated with every panel task numbered before every
    // update: simulated task `i` is the program's task `order[i]`.
    let ntasks = program.num_tasks();
    let (mut order, updates): (Vec<usize>, Vec<usize>) =
        (0..ntasks).partition(|&t| matches!(program.kind(t), TaskKind::Panel { .. }));
    order.extend(updates);
    let mut sim_id = vec![0; ntasks];
    for (i, &t) in order.iter().enumerate() {
        sim_id[t] = i;
    }
    let tasks = order
        .iter()
        .map(|&t| {
            let task = program.kind(t);
            let (shape, static_owner) = match task {
                TaskKind::Panel { cblk } => {
                    let cb = &symbol.cblks[cblk];
                    (TaskShape::Panel { width: cb.width(), height: cb.stride }, owners[cblk])
                }
                TaskKind::Update { cblk, block, target } => {
                    let cb = &symbol.cblks[cblk];
                    let b = &symbol.blocks[block];
                    let shape = TaskShape::Update {
                        m: cb.stride - b.local_offset,
                        n: b.nrows(),
                        k: cb.width(),
                        target_height: symbol.cblks[target].stride,
                        ldlt: is_ldlt,
                    };
                    // Updates into a panel are chained (serial) anyway;
                    // running them on the destination owner's core keeps
                    // the destination panel hot across the chain and for
                    // its panel task — the locality the PaStiX static
                    // mapping is built around.
                    (shape, owners[target])
                }
            };
            // Only update tasks are GPU-eligible, and only they pay the
            // generic runtimes' LDLᵀ penalty.
            let is_update = matches!(task, TaskKind::Update { .. });
            // One panel is read-modify-written, at most one other read.
            let accesses = || task.accesses();
            #[allow(clippy::expect_used)] // a task without a write is a bug in `tasks`
            let writes = accesses().find(|a| a.1.writes()).expect("every task writes a panel").0;
            let reads = accesses().filter(|a| !a.1.writes()).map(|a| a.0).collect();
            let mut succs = Vec::new();
            program.successors(t, &mut succs);
            succs.iter_mut().for_each(|s| *s = sim_id[*s]);
            SimTask {
                shape,
                flops: program.flops(task),
                reads,
                writes,
                gpu_eligible: is_update,
                succs,
                npred: program.num_predecessors(t),
                priority: program.priority(t),
                static_owner,
                cpu_multiplier: if is_update { ldlt_penalty } else { 1.0 },
            }
        })
        .collect();
    let mut dag = SimDag { tasks, data };
    if let Some(threshold) = options.cluster_flops {
        let clustering = dagfact_symbolic::subtree_clusters(symbol, costs, threshold);
        // A cluster fuses a subtree's panel tasks and *internal* updates.
        // Updates crossing the cluster boundary stay separate singleton
        // tasks: they sit on the serialization chains into shared ancestor
        // panels, and fusing them would make entire sibling subtrees wait
        // on one another (and would also lose their GPU eligibility).
        let mut next = clustering.nclusters;
        let cluster_of_task: Vec<usize> = order
            .iter()
            .map(|&t| match program.kind(t) {
                TaskKind::Update { cblk, target, .. }
                    if clustering.cluster_of[cblk] != clustering.cluster_of[target] =>
                {
                    next += 1;
                    next - 1
                }
                task => clustering.cluster_of[task.cblk()],
            })
            .collect();
        dag = contract_dag(&dag, &cluster_of_task, next, platform);
    }
    debug_assert_eq!(dag.validate(), Ok(()));
    dag
}

/// Contract a simulation DAG along a task→cluster map: tasks of one
/// cluster fuse into a single super-task with summed work, merged
/// dependencies (internal edges dropped, external deduplicated) and a
/// CPU-time-preserving effective shape.
pub fn contract_dag(
    dag: &SimDag,
    cluster_of_task: &[usize],
    nclusters: usize,
    platform: &Platform,
) -> SimDag {
    assert_eq!(cluster_of_task.len(), dag.tasks.len());
    let block_of = |shape: &TaskShape| -> usize {
        match *shape {
            TaskShape::Panel { width, .. } => width,
            TaskShape::Update { n, k, .. } => n.min(k),
        }
    };
    // Accumulate per-cluster totals.
    let mut flops = vec![0.0f64; nclusters];
    let mut cpu_time = vec![0.0f64; nclusters];
    let mut members = vec![0usize; nclusters];
    let mut priority = vec![f64::NEG_INFINITY; nclusters];
    let mut static_owner = vec![0usize; nclusters];
    let mut writes = vec![usize::MAX; nclusters];
    let mut gpu_eligible = vec![true; nclusters];
    let mut mult = vec![1.0f64; nclusters];
    let mut reads: Vec<std::collections::BTreeSet<usize>> =
        vec![std::collections::BTreeSet::new(); nclusters];
    let mut shape = vec![
        TaskShape::Panel {
            width: 1,
            height: 1
        };
        nclusters
    ];
    for (t, task) in dag.tasks.iter().enumerate() {
        let k = cluster_of_task[t];
        members[k] += 1;
        flops[k] += task.flops;
        let rate = platform.cpu.rate(block_of(&task.shape).max(1)) * 1e9;
        cpu_time[k] += task.flops / rate * task.cpu_multiplier;
        if task.priority > priority[k] {
            priority[k] = task.priority;
            static_owner[k] = task.static_owner;
            shape[k] = task.shape;
            writes[k] = task.writes;
            mult[k] = task.cpu_multiplier;
        }
        // A fused subtree keeps its data CPU-resident; only singleton
        // update tasks stay offloadable.
        gpu_eligible[k] &= task.gpu_eligible;
        reads[k].extend(task.reads.iter().copied());
    }
    // Effective shape: pick a block size whose CPU rate reproduces the
    // exact summed execution time (rate = P·e·b/(b+h) inverted).
    for k in 0..nclusters {
        if members[k] > 1 && cpu_time[k] > 0.0 {
            let eff_rate = flops[k] / cpu_time[k] / 1e9;
            let cpu = &platform.cpu;
            let ceiling = cpu.peak_gflops * cpu.max_efficiency;
            let b = if eff_rate >= ceiling {
                100_000.0
            } else {
                (cpu.half_size * eff_rate / (ceiling - eff_rate)).max(1.0)
            };
            shape[k] = TaskShape::Panel {
                width: b.round() as usize,
                height: b.round() as usize,
            };
            gpu_eligible[k] = false;
        }
    }
    // Contract edges.
    let mut succs: Vec<std::collections::BTreeSet<usize>> =
        vec![std::collections::BTreeSet::new(); nclusters];
    for (t, task) in dag.tasks.iter().enumerate() {
        let from = cluster_of_task[t];
        for &s in &task.succs {
            let to = cluster_of_task[s];
            if from != to {
                succs[from].insert(to);
            }
        }
    }
    let mut npred = vec![0u32; nclusters];
    for s in &succs {
        for &to in s {
            npred[to] += 1;
        }
    }
    let tasks: Vec<SimTask> = (0..nclusters)
        .map(|k| {
            let r: Vec<usize> = reads[k]
                .iter()
                .copied()
                .filter(|&d| d != writes[k])
                .collect();
            SimTask {
                shape: shape[k],
                flops: flops[k],
                reads: r,
                writes: writes[k],
                gpu_eligible: gpu_eligible[k] && members[k] == 1,
                succs: succs[k].iter().copied().collect(),
                npred: npred[k],
                priority: priority[k],
                static_owner: static_owner[k],
                // Singletons keep their kernel-efficiency multiplier; for
                // fused subtrees the exact time is folded into the
                // effective shape above.
                cpu_multiplier: if members[k] == 1 { mult[k] } else { 1.0 },
            }
        })
        .collect();
    SimDag {
        tasks,
        data: dag.data.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::SolverOptions;
    use dagfact_sparse::gen::grid_laplacian_3d;
    use dagfact_symbolic::FactoKind;

    fn analysis() -> Analysis {
        // Big enough that per-task overheads don't dominate (tiny problems
        // are overhead-bound — the paper's afshell10 effect).
        let a = grid_laplacian_3d(20, 20, 20);
        Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default())
    }

    #[test]
    fn sim_dags_validate_and_conserve_flops() {
        let an = analysis();
        let opts = SimOptions::default();
        let platform = Platform::mirage(12, 3);
        let costs = an.costs(false);
        for policy in [
            SimPolicy::NativeStatic,
            SimPolicy::StarPuLike,
            SimPolicy::ParsecLike { streams: 3 },
        ] {
            let dag = build_sim_dag(&an, &opts, &platform, policy);
            dag.validate().unwrap();
            assert!(
                (dag.total_flops() - costs.total).abs() < 1e-6 * costs.total,
                "{policy:?} flops drift"
            );
        }
    }

    #[test]
    fn cpu_scaling_shape_matches_figure2() {
        // More cores → more GFlop/s, sublinear at 12 (Figure 2's shape).
        let an = analysis();
        let opts = SimOptions::default();
        for policy in [
            SimPolicy::NativeStatic,
            SimPolicy::StarPuLike,
            SimPolicy::ParsecLike { streams: 1 },
        ] {
            let g1 = simulate_factorization(&an, &opts, &Platform::mirage(1, 0), policy).gflops();
            let g6 = simulate_factorization(&an, &opts, &Platform::mirage(6, 0), policy).gflops();
            let g12 = simulate_factorization(&an, &opts, &Platform::mirage(12, 0), policy).gflops();
            assert!(g6 > 2.0 * g1, "{policy:?}: g1={g1} g6={g6}");
            // Saturation is allowed at this modest problem size, but no
            // regression when adding cores.
            assert!(g12 >= 0.98 * g6, "{policy:?}: g6={g6} g12={g12}");
            assert!(g12 < 12.5 * g1, "{policy:?}: superlinear scaling?");
        }
    }

    #[test]
    fn subtree_clustering_conserves_flops_and_shrinks_the_dag() {
        let an = analysis();
        let platform = Platform::mirage(12, 0);
        let costs = an.costs(false);
        let base = build_sim_dag(&an, &SimOptions::default(), &platform, SimPolicy::ParsecLike { streams: 1 });
        let clustered = build_sim_dag(
            &an,
            &SimOptions {
                cluster_flops: Some(costs.total / 100.0),
                ..SimOptions::default()
            },
            &platform,
            SimPolicy::ParsecLike { streams: 1 },
        );
        clustered.validate().unwrap();
        // Boundary updates survive as singletons, so the contraction is
        // bounded but must still remove a visible share of the tasks.
        assert!(
            clustered.tasks.len() < base.tasks.len() * 9 / 10,
            "clustering merged too little: {} vs {}",
            clustered.tasks.len(),
            base.tasks.len()
        );
        assert!((clustered.total_flops() - base.total_flops()).abs() < 1e-6 * base.total_flops());
        // The clustered DAG still simulates to a sane schedule.
        let r = simulate(&clustered, &platform, SimPolicy::ParsecLike { streams: 1 });
        assert_eq!(r.tasks_on_cpu + r.tasks_on_gpu, clustered.tasks.len());
    }

    #[test]
    fn clustering_reduces_overhead_on_small_problems() {
        // A small problem is scheduler-overhead-bound (the afshell10
        // effect); fusing leaf subtrees must not hurt and usually helps.
        let a = grid_laplacian_3d(12, 12, 12);
        let an = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
        let costs = an.costs(false);
        let platform = Platform::mirage(12, 0);
        let policy = SimPolicy::StarPuLike; // highest per-task overhead
        let plain = simulate_factorization(&an, &SimOptions::default(), &platform, policy);
        let fused = simulate_factorization(
            &an,
            &SimOptions {
                cluster_flops: Some(costs.total / 200.0),
                ..SimOptions::default()
            },
            &platform,
            policy,
        );
        assert!(
            fused.gflops() > plain.gflops() * 0.95,
            "clustering should not degrade: {} vs {}",
            fused.gflops(),
            plain.gflops()
        );
    }

    #[test]
    fn gpus_speed_up_the_factorization() {
        let an = analysis();
        let opts = SimOptions::default();
        // StarPU gives up 3 CPU workers for the 3 GPUs, so its net gain on
        // a modest problem is smaller (the paper's afshell10 effect).
        for (policy, min_gain) in [
            (SimPolicy::StarPuLike, 1.05),
            (SimPolicy::ParsecLike { streams: 3 }, 1.15),
        ] {
            let cpu = simulate_factorization(&an, &opts, &Platform::mirage(12, 0), policy);
            let gpu = simulate_factorization(&an, &opts, &Platform::mirage(12, 3), policy);
            assert!(
                gpu.gflops() > min_gain * cpu.gflops(),
                "{policy:?}: {} vs {}",
                gpu.gflops(),
                cpu.gflops()
            );
            assert!(gpu.tasks_on_gpu > 0);
        }
    }

    #[test]
    fn sim_trace_groups_resources_by_pid() {
        let dag = SimDag {
            tasks: (0..8)
                .map(|i| SimTask {
                    shape: TaskShape::Update {
                        m: 4096,
                        n: 128,
                        k: 128,
                        target_height: 4096,
                        ldlt: false,
                    },
                    flops: 4e8,
                    reads: vec![0],
                    writes: 1 + i,
                    gpu_eligible: true,
                    succs: vec![],
                    npred: 0,
                    priority: 1.0,
                    static_owner: i,
                    cpu_multiplier: 1.0,
                })
                .collect(),
            data: (0..9).map(|_| SimData { bytes: 1e6 }).collect(),
        };
        let report = simulate(
            &dag,
            &Platform::mirage(4, 1),
            SimPolicy::ParsecLike { streams: 1 },
        );
        assert!(!report.spans.is_empty());
        let doc = sim_chrome_trace(&report);
        let Some(Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("traceEvents is not an array");
        };
        assert_eq!(events.len(), report.spans.len());
        // GPU offload happened, so both kernel and transfer lanes exist.
        let pids: Vec<i128> = events
            .iter()
            .map(|e| match e.get("pid") {
                Some(Json::Int(p)) => *p,
                other => panic!("pid {other:?}"),
            })
            .collect();
        assert!(pids.contains(&2), "no gpu-kernel events");
        assert!(pids.contains(&3), "no h2d events");
        for ev in events {
            assert_eq!(ev.get("ph"), Some(&Json::Str("X".into())));
            assert!(matches!(ev.get("ts"), Some(Json::Num(x)) if *x >= 0.0));
        }
    }
}
