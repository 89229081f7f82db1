//! Task-level tracing, timeline metrics and critical-path analysis.
//!
//! The paper's entire evaluation is *timing observability*: per-kernel
//! cost breakdowns, per-worker Gantt charts and scheduler-overhead
//! comparisons (Figs. 2–8). This module is the measured counterpart: a
//! [`TraceRecorder`] threaded through [`crate::fault::RunConfig`] collects
//! per-worker spans (queue-wait vs. execute vs. steal) from all three
//! engines, the solver registers per-task metadata (kernel kind, panel,
//! model flops) and the measured dependency edges, and the resulting
//! [`Trace`] supports the analyses the paper's figures are built from:
//! longest weighted path over the measured DAG, per-kernel time/GFLOP/s
//! attribution, per-worker busy/idle shares and parallel efficiency.
//!
//! **Cost model.** When no recorder is installed every hook is one branch
//! on an `Option` — no clock reads, no allocation
//! (`rt.trace_overhead_frac` in `BENCHMARK.json` is the measured cost of
//! attaching one). When enabled, workers append to a private
//! [`Lane`] buffer (no shared state on the hot path) that is merged into
//! the recorder once, when the worker exits.

use crate::json::Json;
use crate::sync::{Arc, Mutex};
use crate::TaskId;
use std::collections::HashMap;
use std::time::Instant;

/// Unit conventions shared by every producer and consumer of trace data.
///
/// * **time** — `u64` **nanoseconds** since the owning recorder's epoch
///   (`Instant`-based, monotonic). Nanoseconds keep sub-microsecond task
///   bodies resolvable; `u64` holds ~584 years, so saturation is
///   theoretical — but every `u128 → u64` narrowing here still goes
///   through [`units::nanos_u64`]-style *saturating* conversions, never a
///   silently-truncating `as` cast.
/// * **bytes** — `usize` (exact; the ledger in [`crate::budget`] uses the
///   same convention).
/// * **flops** — `f64` floating-point operation counts from the symbolic
///   cost model (exact below 2⁵³, far above any panel's flop count).
pub mod units {
    use std::time::Duration;

    /// Nanoseconds in a second, as `f64` (for rate conversions).
    pub const NS_PER_SEC: f64 = 1e9;

    /// A [`Duration`] as whole nanoseconds, saturating at `u64::MAX`
    /// (≈ 584 years) instead of truncating the `u128`.
    #[inline]
    pub fn nanos_u64(d: Duration) -> u64 {
        u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
    }

    /// Nanoseconds → seconds (`f64`; exact below 2⁵³ ns ≈ 104 days).
    #[inline]
    pub fn ns_to_secs(ns: u64) -> f64 {
        ns as f64 / NS_PER_SEC
    }

    /// Nanoseconds → microseconds as `f64` (the Chrome-trace `ts` unit).
    #[inline]
    pub fn ns_to_micros(ns: u64) -> f64 {
        ns as f64 / 1e3
    }
}

/// Worker index used for run-level phase spans (no real worker thread).
pub const PHASE_LANE: usize = usize::MAX;

/// What a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// A task body executing (one span per attempt).
    Execute,
    /// A worker waiting for ready work that arrived from its own queue
    /// (or the central queue / injector).
    QueueWait,
    /// A worker waiting that ended by stealing from a peer's queue.
    Steal,
    /// A solver phase (order / symbolic / assembly / numeric / solve /
    /// refine), recorded on the [`PHASE_LANE`].
    Phase,
}

impl SpanKind {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Execute => "execute",
            SpanKind::QueueWait => "queue-wait",
            SpanKind::Steal => "steal",
            SpanKind::Phase => "phase",
        }
    }
}

/// One recorded interval on one worker's timeline. Times are nanoseconds
/// since the recorder epoch (see [`units`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// What the interval measures.
    pub kind: SpanKind,
    /// The task involved (`None` for phases).
    pub task: Option<TaskId>,
    /// Worker index, or [`PHASE_LANE`].
    pub worker: usize,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch (≥ `start_ns`).
    pub end_ns: u64,
    /// Display label: the phase name, or [`SpanKind::label`].
    pub label: &'static str,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Solver-registered metadata for one task (kernel kind, target panel,
/// model flops from the symbolic cost model).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskMeta {
    /// Kernel family label (`"panel"`, `"update"`, …).
    pub kernel: &'static str,
    /// Supernode / panel the task writes.
    pub panel: usize,
    /// Model flop count of the task.
    pub flops: f64,
}

/// Shared, thread-safe span sink for one (or more) engine runs.
///
/// Created once per traced solve and passed to the engines through
/// [`crate::fault::RunConfig::trace`]. All timestamps are relative to the
/// recorder's construction instant, so spans from the analysis phase, the
/// engine run and the solve phase share one timeline.
pub struct TraceRecorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    meta: Mutex<HashMap<TaskId, TaskMeta>>,
    edges: Mutex<Vec<(TaskId, TaskId)>>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl core::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("spans", &self.len())
            .finish_non_exhaustive()
    }
}

impl TraceRecorder {
    /// Fresh recorder; its construction instant is time zero.
    pub fn new() -> TraceRecorder {
        TraceRecorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            meta: Mutex::new(HashMap::new()),
            edges: Mutex::new(Vec::new()),
        }
    }

    /// Fresh shared recorder, ready for [`crate::fault::RunConfig::trace`].
    pub fn shared() -> Arc<TraceRecorder> {
        Arc::new(TraceRecorder::new())
    }

    /// Nanoseconds since the recorder epoch (saturating).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        units::nanos_u64(self.epoch.elapsed())
    }

    /// Merge a worker's private span buffer (called once per worker, at
    /// worker exit — never on the task hot path).
    pub fn merge_lane(&self, lane: Vec<Span>) {
        if lane.is_empty() {
            return;
        }
        self.spans.lock().extend(lane);
    }

    /// Record one span directly (phases; not for per-task hot paths).
    pub fn record(&self, span: Span) {
        self.spans.lock().push(span);
    }

    /// Register solver-side metadata for `task`. Later registrations win
    /// (a re-factorization reuses the recorder).
    pub fn set_task_meta(&self, task: TaskId, kernel: &'static str, panel: usize, flops: f64) {
        self.meta.lock().insert(task, TaskMeta { kernel, panel, flops });
    }

    /// Register measured-DAG dependency edges (`pred → succ`) for the
    /// critical-path analyzer. Replaces previously registered edges when
    /// a re-factorization reuses the recorder (task ids restart at 0).
    pub fn set_edges(&self, edges: Vec<(TaskId, TaskId)>) {
        *self.edges.lock() = edges;
    }

    /// Clear recorded spans/meta/edges but keep the epoch — used when an
    /// escalation loop re-runs the numeric phase and only the final
    /// attempt should be reported.
    pub fn reset_tasks(&self) {
        self.spans.lock().retain(|s| s.kind == SpanKind::Phase);
        self.meta.lock().clear();
        self.edges.lock().clear();
    }

    /// Run `f` under a named [`SpanKind::Phase`] span on [`PHASE_LANE`].
    pub fn phase<R>(&self, label: &'static str, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.record(Span {
            kind: SpanKind::Phase,
            task: None,
            worker: PHASE_LANE,
            start_ns,
            end_ns: end_ns.max(start_ns),
            label,
        });
        out
    }

    /// Record a named [`SpanKind::Phase`] span that started at `start_ns`
    /// (from [`TraceRecorder::now_ns`]) and ends now — for phases whose
    /// body does not fit a closure.
    pub fn phase_from(&self, label: &'static str, start_ns: u64) {
        let end_ns = self.now_ns();
        self.record(Span {
            kind: SpanKind::Phase,
            task: None,
            worker: PHASE_LANE,
            start_ns,
            end_ns: end_ns.max(start_ns),
            label,
        });
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Immutable snapshot of everything recorded so far, sorted by
    /// `(worker, start)` for rendering and analysis.
    pub fn snapshot(&self) -> Trace {
        let mut spans = self.spans.lock().clone();
        spans.sort_by(|a, b| {
            (a.worker, a.start_ns, a.end_ns).cmp(&(b.worker, b.start_ns, b.end_ns))
        });
        Trace {
            spans,
            meta: self.meta.lock().clone(),
            edges: self.edges.lock().clone(),
        }
    }
}

/// A worker-private span buffer. All hot-path methods are a single branch
/// when tracing is disabled (`rec == None`); the buffer is merged into the
/// recorder on [`Lane::flush`] or drop.
pub struct Lane<'a> {
    rec: Option<&'a TraceRecorder>,
    worker: usize,
    buf: Vec<Span>,
}

impl<'a> Lane<'a> {
    /// Lane for `worker`; pass `None` to disable all recording.
    pub fn new(rec: Option<&'a TraceRecorder>, worker: usize) -> Lane<'a> {
        Lane {
            rec,
            worker,
            // ALLOC: one span buffer per worker, created at spawn time;
            // `record` pushes amortize over the kept capacity.
            buf: Vec::new(),
        }
    }

    /// Is recording enabled?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.rec.is_some()
    }

    /// Current time (ns since the recorder epoch), or 0 when disabled.
    #[inline]
    pub fn now(&self) -> u64 {
        match self.rec {
            Some(rec) => rec.now_ns(),
            None => 0,
        }
    }

    /// Record `[start_ns, now]` as a span of `kind` (no-op when disabled).
    #[inline]
    pub fn record(&mut self, kind: SpanKind, task: Option<TaskId>, start_ns: u64) {
        if let Some(rec) = self.rec {
            let end_ns = rec.now_ns().max(start_ns);
            self.buf.push(Span {
                kind,
                task,
                worker: self.worker,
                start_ns,
                end_ns,
                label: kind.label(),
            });
        }
    }

    /// Merge the buffered spans into the recorder.
    pub fn flush(&mut self) {
        if let Some(rec) = self.rec {
            rec.merge_lane(std::mem::take(&mut self.buf));
        }
    }
}

impl Drop for Lane<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

// ---------------------------------------------------------------------
// Snapshot + analyzers
// ---------------------------------------------------------------------

/// Per-kernel aggregation of execute spans.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelStats {
    /// Kernel family label (from [`TaskMeta`], or `"task"` when none was
    /// registered).
    pub kernel: &'static str,
    /// Number of execute spans attributed to the family.
    pub count: usize,
    /// Total execute nanoseconds.
    pub total_ns: u64,
    /// Total model flops.
    pub flops: f64,
    /// Sustained GFLOP/s (`flops / total_ns`), 0 when no time measured.
    pub gflops: f64,
}

/// Per-worker timeline shares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerStats {
    /// Worker index.
    pub worker: usize,
    /// Nanoseconds spent executing task bodies.
    pub busy_ns: u64,
    /// Nanoseconds waiting on the local/central queue.
    pub wait_ns: u64,
    /// Nanoseconds in wait intervals that ended in a steal.
    pub steal_ns: u64,
    /// Tasks executed.
    pub tasks: usize,
    /// Idle fraction of the trace wall time (1 − busy/wall).
    pub idle_frac: f64,
}

/// Result of the longest-weighted-path analysis over the measured DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Length of the heaviest dependency chain, in measured nanoseconds.
    pub length_ns: u64,
    /// The tasks on that chain, in execution order.
    pub tasks: Vec<TaskId>,
    /// Per-kernel share of the critical path, `(kernel, ns)`.
    pub by_kernel: Vec<(&'static str, u64)>,
}

/// An immutable, analyzed view of one recorded timeline.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// All spans, sorted by `(worker, start)`.
    pub spans: Vec<Span>,
    /// Solver-registered task metadata.
    pub meta: HashMap<TaskId, TaskMeta>,
    /// Measured-DAG dependency edges (`pred → succ`).
    pub edges: Vec<(TaskId, TaskId)>,
}

impl Trace {
    fn default_meta() -> TaskMeta {
        TaskMeta {
            kernel: "task",
            panel: 0,
            flops: 0.0,
        }
    }

    /// Worker spans only (everything but phases).
    pub fn worker_spans(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(|s| s.worker != PHASE_LANE)
    }

    /// Wall-clock extent of the worker timeline, ns (0 when empty).
    pub fn wall_ns(&self) -> u64 {
        let lo = self.worker_spans().map(|s| s.start_ns).min();
        let hi = self.worker_spans().map(|s| s.end_ns).max();
        match (lo, hi) {
            (Some(lo), Some(hi)) => hi.saturating_sub(lo),
            _ => 0,
        }
    }

    /// Number of distinct workers that recorded spans.
    pub fn nworkers(&self) -> usize {
        let mut seen: Vec<usize> = self.worker_spans().map(|s| s.worker).collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    /// Total execute nanoseconds summed over every worker.
    pub fn total_busy_ns(&self) -> u64 {
        self.worker_spans()
            .filter(|s| s.kind == SpanKind::Execute)
            .map(Span::dur_ns)
            .sum()
    }

    /// Measured execute time per task, ns (attempts summed).
    pub fn task_durations(&self) -> HashMap<TaskId, u64> {
        let mut out: HashMap<TaskId, u64> = HashMap::new();
        for s in self.worker_spans() {
            if s.kind == SpanKind::Execute {
                if let Some(t) = s.task {
                    *out.entry(t).or_insert(0) += s.dur_ns();
                }
            }
        }
        out
    }

    /// Parallel efficiency = total execute time / (workers × wall).
    /// 1.0 means every worker computed for the whole run.
    pub fn parallel_efficiency(&self) -> f64 {
        let wall = self.wall_ns();
        let workers = self.nworkers();
        if wall == 0 || workers == 0 {
            return 0.0;
        }
        self.total_busy_ns() as f64 / (wall as f64 * workers as f64)
    }

    /// Execute-span aggregation by kernel family, heaviest first.
    pub fn kernel_breakdown(&self) -> Vec<KernelStats> {
        let mut acc: HashMap<&'static str, (usize, u64, f64)> = HashMap::new();
        let mut attempts_seen: HashMap<TaskId, usize> = HashMap::new();
        for s in self.worker_spans() {
            if s.kind != SpanKind::Execute {
                continue;
            }
            let meta = s
                .task
                .and_then(|t| self.meta.get(&t).copied())
                .unwrap_or_else(Self::default_meta);
            let e = acc.entry(meta.kernel).or_insert((0, 0, 0.0));
            e.0 += 1;
            e.1 += s.dur_ns();
            // Count a task's flops once even when attempts were retried.
            if let Some(t) = s.task {
                let n = attempts_seen.entry(t).or_insert(0);
                *n += 1;
                if *n == 1 {
                    e.2 += meta.flops;
                }
            } else {
                e.2 += meta.flops;
            }
        }
        let mut out: Vec<KernelStats> = acc
            .into_iter()
            .map(|(kernel, (count, total_ns, flops))| KernelStats {
                kernel,
                count,
                total_ns,
                flops,
                gflops: if total_ns > 0 {
                    flops / total_ns as f64 // flops/ns == GFLOP/s
                } else {
                    0.0
                },
            })
            .collect();
        out.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.kernel.cmp(b.kernel)));
        out
    }

    /// Per-worker busy/wait/steal shares, by worker index.
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        let wall = self.wall_ns().max(1);
        let mut acc: HashMap<usize, WorkerStats> = HashMap::new();
        for s in self.worker_spans() {
            let e = acc.entry(s.worker).or_insert(WorkerStats {
                worker: s.worker,
                busy_ns: 0,
                wait_ns: 0,
                steal_ns: 0,
                tasks: 0,
                idle_frac: 0.0,
            });
            match s.kind {
                SpanKind::Execute => {
                    e.busy_ns += s.dur_ns();
                    e.tasks += 1;
                }
                SpanKind::QueueWait => e.wait_ns += s.dur_ns(),
                SpanKind::Steal => e.steal_ns += s.dur_ns(),
                SpanKind::Phase => {}
            }
        }
        let mut out: Vec<WorkerStats> = acc.into_values().collect();
        for w in &mut out {
            w.idle_frac = 1.0 - (w.busy_ns as f64 / wall as f64).min(1.0);
        }
        out.sort_by_key(|w| w.worker);
        out
    }

    /// Longest weighted path through the measured DAG: per-task measured
    /// execute durations as node weights, the registered edges as the
    /// dependency structure. The registered edges are assumed acyclic
    /// (they come from an engine that completed a run); a cycle would
    /// leave its members out of the path rather than hanging.
    pub fn critical_path(&self) -> CriticalPath {
        let dur = self.task_durations();
        let n = 1 + self
            .edges
            .iter()
            .flat_map(|&(a, b)| [a, b])
            .chain(dur.keys().copied())
            .max()
            .unwrap_or(0);
        if dur.is_empty() {
            return CriticalPath {
                length_ns: 0,
                tasks: Vec::new(),
                by_kernel: Vec::new(),
            };
        }
        let mut succs: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        let mut indeg: Vec<u32> = vec![0; n];
        for &(p, s) in &self.edges {
            succs[p].push(s);
            indeg[s] += 1;
        }
        let weight = |t: TaskId| dur.get(&t).copied().unwrap_or(0);
        // Kahn order; cp[t] = weight(t) + max over preds of cp[pred].
        let mut cp: Vec<u64> = (0..n).map(&weight).collect();
        let mut best_pred: Vec<Option<TaskId>> = vec![None; n];
        let mut queue: Vec<TaskId> = (0..n).filter(|&t| indeg[t] == 0).collect();
        let mut head = 0;
        while head < queue.len() {
            let t = queue[head];
            head += 1;
            for &s in &succs[t] {
                let cand = cp[t] + weight(s);
                if cand > cp[s] {
                    cp[s] = cand;
                    best_pred[s] = Some(t);
                }
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    queue.push(s);
                }
            }
        }
        let (end, &length_ns) = match cp.iter().enumerate().max_by_key(|&(_, &v)| v) {
            Some(x) => x,
            None => {
                return CriticalPath {
                    length_ns: 0,
                    tasks: Vec::new(),
                    by_kernel: Vec::new(),
                }
            }
        };
        let mut tasks = vec![end];
        while let Some(p) = best_pred[*tasks.last().map_or(&end, |t| t)] {
            tasks.push(p);
        }
        tasks.reverse();
        let mut by: HashMap<&'static str, u64> = HashMap::new();
        for &t in &tasks {
            let kernel = self
                .meta
                .get(&t)
                .map_or(Self::default_meta().kernel, |m| m.kernel);
            *by.entry(kernel).or_insert(0) += weight(t);
        }
        let mut by_kernel: Vec<(&'static str, u64)> = by.into_iter().collect();
        by_kernel.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        CriticalPath {
            length_ns,
            tasks,
            by_kernel,
        }
    }

    /// Paper-style plain-text metrics report: per-kernel breakdown,
    /// per-worker shares, critical path and parallel efficiency.
    pub fn render_report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let wall = self.wall_ns();
        let _ = writeln!(
            out,
            "trace: {} spans, {} workers, wall {:.3} ms",
            self.spans.len(),
            self.nworkers(),
            units::ns_to_secs(wall) * 1e3
        );
        for p in self.spans.iter().filter(|s| s.kind == SpanKind::Phase) {
            let _ = writeln!(
                out,
                "phase {:<14} {:>10.3} ms",
                p.label,
                units::ns_to_secs(p.dur_ns()) * 1e3
            );
        }
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>12} {:>10}",
            "kernel", "tasks", "time ms", "GFlop/s"
        );
        for k in self.kernel_breakdown() {
            let _ = writeln!(
                out,
                "{:<12} {:>8} {:>12.3} {:>10.2}",
                k.kernel,
                k.count,
                units::ns_to_secs(k.total_ns) * 1e3,
                k.gflops
            );
        }
        for w in self.worker_stats() {
            let _ = writeln!(
                out,
                "worker {:>3}: {:>5} tasks, busy {:>8.3} ms, wait {:>8.3} ms, \
                 steal {:>8.3} ms, idle {:>5.1}%",
                w.worker,
                w.tasks,
                units::ns_to_secs(w.busy_ns) * 1e3,
                units::ns_to_secs(w.wait_ns) * 1e3,
                units::ns_to_secs(w.steal_ns) * 1e3,
                w.idle_frac * 100.0
            );
        }
        let cp = self.critical_path();
        let _ = writeln!(
            out,
            "critical path: {:.3} ms over {} task(s) ({:.1}% of wall)",
            units::ns_to_secs(cp.length_ns) * 1e3,
            cp.tasks.len(),
            if wall > 0 {
                cp.length_ns as f64 / wall as f64 * 100.0
            } else {
                0.0
            }
        );
        for (kernel, ns) in &cp.by_kernel {
            let _ = writeln!(
                out,
                "  on path: {:<12} {:>10.3} ms",
                kernel,
                units::ns_to_secs(*ns) * 1e3
            );
        }
        let _ = writeln!(
            out,
            "parallel efficiency: {:.1}% (total work / workers x wall)",
            self.parallel_efficiency() * 100.0
        );
        out
    }

    /// ASCII per-worker Gantt chart, `width` columns wide. `#` = execute,
    /// `.` = queue-wait, `s` = steal-wait, space = idle.
    pub fn render_gantt(&self, width: usize) -> String {
        use std::fmt::Write as _;
        let width = width.max(10);
        let lo = self.worker_spans().map(|s| s.start_ns).min().unwrap_or(0);
        let wall = self.wall_ns().max(1);
        let mut workers: Vec<usize> = self.worker_spans().map(|s| s.worker).collect();
        workers.sort_unstable();
        workers.dedup();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "gantt: {} columns over {:.3} ms ('#'=execute '.'=wait 's'=steal)",
            width,
            units::ns_to_secs(wall) * 1e3
        );
        for &w in &workers {
            // Per-cell dominant kind by covered nanoseconds.
            let mut cover = vec![[0u64; 3]; width]; // [exec, wait, steal]
            for s in self.worker_spans().filter(|s| s.worker == w) {
                let slot = match s.kind {
                    SpanKind::Execute => 0,
                    SpanKind::QueueWait => 1,
                    SpanKind::Steal => 2,
                    SpanKind::Phase => continue,
                };
                let a = (s.start_ns - lo) as u128 * width as u128 / wall as u128;
                let b = (s.end_ns - lo) as u128 * width as u128 / wall as u128;
                let a = (a as usize).min(width - 1);
                let b = (b as usize).min(width - 1);
                for cell in &mut cover[a..=b] {
                    cell[slot] += s.dur_ns().max(1) / (b - a + 1) as u64 + 1;
                }
            }
            let row: String = cover
                .iter()
                .map(|c| {
                    let m = c[0].max(c[1]).max(c[2]);
                    if m == 0 {
                        ' '
                    } else if c[0] == m {
                        '#'
                    } else if c[1] >= c[2] {
                        '.'
                    } else {
                        's'
                    }
                })
                .collect();
            let _ = writeln!(out, "w{w:<3}|{row}|");
        }
        out
    }
}

// ---------------------------------------------------------------------
// Chrome-trace (Perfetto) export
// ---------------------------------------------------------------------
//
// The Trace Event Format consumed by `chrome://tracing` and
// <https://ui.perfetto.dev>: an object with a `traceEvents` array of
// complete events (`"ph": "X"`) carrying microsecond `ts`/`dur` plus
// `pid`/`tid` lane coordinates. Engine traces put phases on `pid`
// [`PHASE_PID`] and workers on `pid` [`WORKER_PID`] with `tid` = worker
// index.

/// `pid` of the run-phase lane (order/symbolic/assembly/numeric/…).
pub const PHASE_PID: usize = 0;
/// `pid` of the per-worker engine lanes.
pub const WORKER_PID: usize = 1;

/// One complete event (`ph:"X"`) in Trace Event Format — the event
/// shape shared by [`chrome_trace`] and the simulator's exporter.
pub fn chrome_event(
    name: String,
    cat: &str,
    pid: usize,
    tid: usize,
    start_ns: u64,
    dur_ns: u64,
    args: Json,
) -> Json {
    Json::obj()
        .field("name", name)
        .field("cat", cat)
        .field("ph", "X")
        .field("ts", units::ns_to_micros(start_ns))
        .field("dur", units::ns_to_micros(dur_ns))
        .field("pid", pid)
        .field("tid", tid)
        .field("args", args)
}

/// Serialize an engine/solver trace snapshot to a Chrome-trace document.
/// Load the rendered JSON in Perfetto or `chrome://tracing` as-is.
pub fn chrome_trace(trace: &Trace) -> Json {
    let mut events: Vec<Json> = Vec::with_capacity(trace.spans.len());
    for s in &trace.spans {
        let (pid, tid, name, cat) = if s.kind == SpanKind::Phase {
            (PHASE_PID, 0, s.label.to_string(), "phase")
        } else {
            let name = match s.task {
                Some(t) => {
                    let kernel = trace.meta.get(&t).map_or("task", |m| m.kernel);
                    if s.kind == SpanKind::Execute {
                        format!("{kernel} #{t}")
                    } else {
                        format!("{} #{t}", s.label)
                    }
                }
                None => s.label.to_string(),
            };
            (WORKER_PID, s.worker, name, s.kind.label())
        };
        let mut args = Json::obj();
        if let Some(t) = s.task {
            args = args.field("task", t);
            if let Some(m) = trace.meta.get(&t) {
                args = args
                    .field("kernel", m.kernel)
                    .field("panel", m.panel)
                    .field("flops", m.flops);
            }
        }
        events.push(chrome_event(name, cat, pid, tid, s.start_ns, s.dur_ns(), args));
    }
    chrome_document(events)
}

/// Wrap complete events into a Trace Event Format document.
pub fn chrome_document(events: Vec<Json>) -> Json {
    Json::obj()
        .field("traceEvents", Json::Arr(events))
        .field("displayTimeUnit", "ms")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(kind: SpanKind, task: Option<usize>, worker: usize, a: u64, b: u64) -> Span {
        Span {
            kind,
            task,
            worker,
            start_ns: a,
            end_ns: b,
            label: kind.label(),
        }
    }

    #[test]
    fn units_conversions_saturate_not_truncate() {
        assert_eq!(units::nanos_u64(Duration::from_nanos(17)), 17);
        // A duration whose nanos overflow u64 saturates instead of
        // wrapping (the old `as u64` would truncate).
        let huge = Duration::from_secs(u64::MAX / 1_000_000_000 + 10);
        assert_eq!(units::nanos_u64(huge), u64::MAX);
        assert!((units::ns_to_secs(1_500_000_000) - 1.5).abs() < 1e-12);
        assert!((units::ns_to_micros(2_500) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn lane_disabled_records_nothing_and_reads_no_clock() {
        let mut lane = Lane::new(None, 0);
        assert!(!lane.enabled());
        assert_eq!(lane.now(), 0);
        lane.record(SpanKind::Execute, Some(3), 0);
        lane.flush();
        assert!(lane.buf.is_empty());
    }

    #[test]
    fn lane_merges_into_recorder_on_drop() {
        let rec = TraceRecorder::new();
        {
            let mut lane = Lane::new(Some(&rec), 2);
            let t0 = lane.now();
            lane.record(SpanKind::Execute, Some(7), t0);
        }
        let trace = rec.snapshot();
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].worker, 2);
        assert_eq!(trace.spans[0].task, Some(7));
    }

    #[test]
    fn phase_spans_live_on_the_phase_lane() {
        let rec = TraceRecorder::new();
        let out = rec.phase("symbolic", || 42);
        assert_eq!(out, 42);
        let trace = rec.snapshot();
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].worker, PHASE_LANE);
        assert_eq!(trace.spans[0].label, "symbolic");
        // Phase spans do not count as worker timeline.
        assert_eq!(trace.nworkers(), 0);
        assert_eq!(trace.wall_ns(), 0);
    }

    fn chain_trace() -> Trace {
        // Tasks 0→1→2 serial on worker 0 (10, 20, 30 ns) plus a parallel
        // task 3 on worker 1 (25 ns), edges 0→1→2.
        let rec = TraceRecorder::new();
        rec.set_task_meta(0, "panel", 0, 20.0);
        rec.set_task_meta(1, "update", 1, 40.0);
        rec.set_task_meta(2, "panel", 1, 60.0);
        rec.set_task_meta(3, "update", 2, 50.0);
        rec.set_edges(vec![(0, 1), (1, 2)]);
        rec.merge_lane(vec![
            span(SpanKind::Execute, Some(0), 0, 0, 10),
            span(SpanKind::QueueWait, None, 0, 10, 12),
            span(SpanKind::Execute, Some(1), 0, 12, 32),
            span(SpanKind::Execute, Some(2), 0, 32, 62),
            span(SpanKind::Execute, Some(3), 1, 5, 30),
            span(SpanKind::Steal, None, 1, 0, 5),
        ]);
        rec.snapshot()
    }

    #[test]
    fn critical_path_is_the_weighted_chain() {
        let t = chain_trace();
        let cp = t.critical_path();
        assert_eq!(cp.tasks, vec![0, 1, 2]);
        assert_eq!(cp.length_ns, 60);
        // Chain length bounded by wall; at least the longest single task.
        assert!(cp.length_ns <= t.wall_ns());
        assert!(cp.length_ns >= 30);
        let panel_ns = cp
            .by_kernel
            .iter()
            .find(|(k, _)| *k == "panel")
            .map(|&(_, ns)| ns);
        assert_eq!(panel_ns, Some(40));
    }

    #[test]
    fn kernel_breakdown_aggregates_time_and_flops() {
        let t = chain_trace();
        let ks = t.kernel_breakdown();
        let update = ks.iter().find(|k| k.kernel == "update").expect("update row");
        assert_eq!(update.count, 2);
        assert_eq!(update.total_ns, 45);
        assert!((update.flops - 90.0).abs() < 1e-12);
        assert!((update.gflops - 2.0).abs() < 1e-12);
    }

    #[test]
    fn worker_stats_and_efficiency() {
        let t = chain_trace();
        assert_eq!(t.nworkers(), 2);
        assert_eq!(t.wall_ns(), 62);
        let ws = t.worker_stats();
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].busy_ns, 60);
        assert_eq!(ws[0].wait_ns, 2);
        assert_eq!(ws[1].steal_ns, 5);
        assert_eq!(ws[1].tasks, 1);
        let eff = t.parallel_efficiency();
        assert!((eff - 85.0 / 124.0).abs() < 1e-9, "eff={eff}");
    }

    #[test]
    fn retried_attempts_sum_time_but_count_flops_once() {
        let rec = TraceRecorder::new();
        rec.set_task_meta(0, "update", 0, 100.0);
        rec.merge_lane(vec![
            span(SpanKind::Execute, Some(0), 0, 0, 10),
            span(SpanKind::Execute, Some(0), 0, 20, 30),
        ]);
        let ks = rec.snapshot().kernel_breakdown();
        assert_eq!(ks[0].total_ns, 20);
        assert!((ks[0].flops - 100.0).abs() < 1e-12);
    }

    #[test]
    fn report_and_gantt_render() {
        let t = chain_trace();
        let report = t.render_report();
        assert!(report.contains("critical path"));
        assert!(report.contains("parallel efficiency"));
        assert!(report.contains("update"));
        let gantt = t.render_gantt(40);
        assert!(gantt.contains("w0  |"));
        assert!(gantt.contains('#'));
    }

    #[test]
    fn reset_tasks_keeps_phases_only() {
        let rec = TraceRecorder::new();
        rec.phase("order", || {});
        rec.set_task_meta(0, "panel", 0, 1.0);
        rec.set_edges(vec![(0, 1)]);
        rec.merge_lane(vec![span(SpanKind::Execute, Some(0), 0, 0, 5)]);
        rec.reset_tasks();
        let t = rec.snapshot();
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans[0].kind, SpanKind::Phase);
        assert!(t.meta.is_empty());
        assert!(t.edges.is_empty());
    }

    #[test]
    fn empty_trace_analyzers_are_benign() {
        let t = TraceRecorder::new().snapshot();
        assert_eq!(t.wall_ns(), 0);
        assert_eq!(t.critical_path().length_ns, 0);
        assert!(t.kernel_breakdown().is_empty());
        assert_eq!(t.parallel_efficiency(), 0.0);
    }

    fn field<'a>(j: &'a Json, key: &str) -> &'a Json {
        j.get(key).unwrap_or_else(|| panic!("missing field {key} in {j:?}"))
    }

    /// Span schema round-trip: everything recorded reappears as a valid
    /// complete event with the required ph/ts/dur/pid/tid fields.
    #[test]
    fn chrome_trace_schema_round_trip() {
        let rec = TraceRecorder::new();
        rec.set_task_meta(0, "panel", 3, 2.0e6);
        rec.record(Span {
            kind: SpanKind::Execute,
            task: Some(0),
            worker: 1,
            start_ns: 1_000,
            end_ns: 4_500,
            label: SpanKind::Execute.label(),
        });
        rec.record(Span {
            kind: SpanKind::QueueWait,
            task: Some(0),
            worker: 1,
            start_ns: 0,
            end_ns: 1_000,
            label: SpanKind::QueueWait.label(),
        });
        rec.phase_from("numeric", 0);
        let doc = chrome_trace(&rec.snapshot());
        let Json::Arr(events) = field(&doc, "traceEvents") else {
            panic!("traceEvents is not an array");
        };
        assert_eq!(events.len(), 3);
        for ev in events {
            assert_eq!(field(ev, "ph"), &Json::Str("X".into()));
            assert!(matches!(field(ev, "ts"), Json::Num(x) if *x >= 0.0));
            assert!(matches!(field(ev, "dur"), Json::Num(x) if *x >= 0.0));
            assert!(matches!(field(ev, "pid"), Json::Int(_)));
            assert!(matches!(field(ev, "tid"), Json::Int(_)));
        }
        // The execute event carries the registered kernel metadata and
        // microsecond-converted timestamps.
        let exec = events
            .iter()
            .find(|e| matches!(field(e, "cat"), Json::Str(s) if s == "execute"))
            .unwrap();
        assert_eq!(field(exec, "name"), &Json::Str("panel #0".into()));
        assert_eq!(field(exec, "ts"), &Json::Num(1.0));
        assert_eq!(field(exec, "dur"), &Json::Num(3.5));
        assert_eq!(field(exec, "pid"), &Json::Int(WORKER_PID as i128));
        assert_eq!(field(exec, "tid"), &Json::Int(1));
        let args = field(exec, "args");
        assert_eq!(field(args, "kernel"), &Json::Str("panel".into()));
        assert_eq!(field(args, "panel"), &Json::Int(3));
        // The phase event lands on the phase pid.
        let phase = events
            .iter()
            .find(|e| matches!(field(e, "cat"), Json::Str(s) if s == "phase"))
            .unwrap();
        assert_eq!(field(phase, "pid"), &Json::Int(PHASE_PID as i128));
        // The document renders to parseable-looking JSON text.
        let text = doc.to_string();
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.contains("\"ph\":\"X\""));
    }
}
