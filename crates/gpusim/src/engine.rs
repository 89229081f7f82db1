//! The discrete-event execution engine.
//!
//! One event loop drives CPU workers, GPU stream processors and PCIe links
//! under a pluggable scheduling policy. All state transitions are
//! deterministic (ties broken by task/worker index), so a given
//! (DAG, platform, policy) triple always produces the same schedule —
//! the property that makes the paper's figures reproducible on any host.

use crate::dag::{DataId, SimDag, TaskId, TaskShape};
use crate::events::EventQueue;
use crate::kernelmodel::{kernel_ceiling, kernel_rate, GpuKernelKind};
use crate::platform::Platform;
use crate::report::{SimReport, SimResource, SimSpan};
use std::collections::{BinaryHeap, VecDeque};

/// Scheduling policy simulated on top of the platform (see crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimPolicy {
    /// PaStiX native: static list schedule (task `static_owner` fields) +
    /// work stealing; CPU only.
    NativeStatic,
    /// StarPU-like dmda: centralized queue, earliest-estimated-completion
    /// placement, one CPU worker dedicated per GPU, 1 stream per GPU.
    StarPuLike,
    /// PaRSEC-like: local LIFO release + stealing, GPUs fed without
    /// dedicating workers, `streams` concurrent kernels per GPU.
    ParsecLike {
        /// CUDA streams per device (1 or 3 in the paper).
        streams: usize,
    },
}

impl SimPolicy {
    fn label(&self) -> &'static str {
        match self {
            SimPolicy::NativeStatic => "native-static",
            SimPolicy::StarPuLike => "starpu-like",
            SimPolicy::ParsecLike { .. } => "parsec-like",
        }
    }
}

// ---------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// A CPU worker finished its current task.
    CpuFinish { worker: usize, task: TaskId },
    /// A CPU worker should look for work.
    WorkerWake { worker: usize },
    /// Re-examine a GPU's fluid kernel set (versioned; stale checks are
    /// dropped).
    GpuCheck { gpu: usize, version: u64 },
    /// A staged task's inbound transfers completed; it may enter a stream.
    GpuTaskReady { gpu: usize, task: TaskId },
}

// ---------------------------------------------------------------------
// Data residency (MSI-flavoured)
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq)]
enum LastWriter {
    None,
    Cpu(usize),
    Gpu(usize),
}

struct DataState {
    /// valid bit per location: index 0 = host, 1 + g = GPU g.
    valid: u32,
    last_writer: LastWriter,
}

const HOST: u32 = 1;

impl DataState {
    fn new() -> Self {
        DataState {
            valid: HOST,
            last_writer: LastWriter::None,
        }
    }
    fn gpu_bit(g: usize) -> u32 {
        1 << (g + 1)
    }
    fn valid_on_gpu(&self, g: usize) -> bool {
        self.valid & Self::gpu_bit(g) != 0
    }
    fn valid_on_host(&self) -> bool {
        self.valid & HOST != 0
    }
    /// Some GPU holding the only valid copy, if the host copy is stale.
    fn dirty_gpu(&self) -> Option<usize> {
        if self.valid_on_host() {
            return None;
        }
        (0..31).find(|&g| self.valid & Self::gpu_bit(g) != 0)
    }
}

// ---------------------------------------------------------------------
// GPU state (fluid multi-stream processor)
// ---------------------------------------------------------------------

struct ActiveKernel {
    task: TaskId,
    /// Remaining work in flops (launch overhead folded in as
    /// flop-equivalents).
    remaining: f64,
    /// Throughput when alone on the device (GFlop/s).
    alone_rate: f64,
    /// Device-saturated ceiling of this kernel's family (GFlop/s).
    ceiling: f64,
    /// Simulated time the kernel entered its stream (for the span log).
    started: f64,
}

/// One datum held in a device's memory.
struct ResidentData {
    data: DataId,
    /// LRU stamp (global monotone clock; higher = hotter).
    stamp: u64,
    /// Tasks staged on this device that still need the datum; pinned
    /// entries are never evicted.
    pins: u32,
}

struct GpuState {
    streams: usize,
    active: Vec<ActiveKernel>,
    /// Tasks whose transfers completed, waiting for a free stream.
    ready: VecDeque<TaskId>,
    /// Tasks assigned to this GPU (for queue-length heuristics).
    assigned: usize,
    /// h2d link busy horizon.
    h2d_busy: f64,
    /// d2h link busy horizon.
    d2h_busy: f64,
    /// Time of the last fluid-state update.
    last_update: f64,
    /// Event versioning for stale GpuCheck events.
    version: u64,
    busy_time: f64,
    /// dmda bookkeeping: expected availability.
    expected_free: f64,
    /// Data resident in device memory (mirrors the per-datum valid bits).
    resident: Vec<ResidentData>,
    resident_bytes: f64,
    peak_resident: f64,
}

impl GpuState {
    fn share(&self) -> f64 {
        let total: f64 = self.active.iter().map(|k| k.alone_rate).sum();
        // Concurrent kernels fill idle SMs but cannot beat the fully-fed
        // device: the aggregate is capped by the best family ceiling
        // among the active kernels.
        let cap = self
            .active
            .iter()
            .map(|k| k.ceiling)
            .fold(0.0f64, f64::max);
        if total <= cap {
            1.0
        } else {
            cap / total
        }
    }

    /// Advance remaining work of the active kernels to `now`.
    fn advance(&mut self, now: f64) {
        let share = self.share();
        let dt = now - self.last_update;
        if dt > 0.0 {
            if !self.active.is_empty() {
                self.busy_time += dt;
            }
            for k in &mut self.active {
                k.remaining -= k.alone_rate * 1e9 * share * dt;
            }
        }
        self.last_update = now;
    }

    /// Time until the earliest active kernel completes (given current
    /// sharing).
    fn next_completion(&self) -> Option<f64> {
        let share = self.share();
        self.active
            .iter()
            .map(|k| (k.remaining.max(0.0)) / (k.alone_rate * 1e9 * share))
            .min_by(f64::total_cmp)
    }
}

// ---------------------------------------------------------------------
// CPU-side policy queues
// ---------------------------------------------------------------------

#[derive(PartialEq)]
struct PrioEntry {
    priority: f64,
    task: TaskId,
}
impl Eq for PrioEntry {}
impl PartialOrd for PrioEntry {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PrioEntry {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.priority
            .partial_cmp(&other.priority)
            .unwrap()
            .then_with(|| other.task.cmp(&self.task))
    }
}

enum CpuQueues {
    /// Native: one priority heap per worker (static owners) + stealing.
    PerWorker(Vec<BinaryHeap<PrioEntry>>),
    /// StarPU: one central heap.
    Central(BinaryHeap<PrioEntry>),
    /// PaRSEC: per-worker LIFO deques + stealing.
    Deques(Vec<VecDeque<TaskId>>),
}

// ---------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------

struct Engine<'a> {
    dag: &'a SimDag,
    platform: &'a Platform,
    policy: SimPolicy,
    events: EventQueue<Event>,
    now: f64,
    pending: Vec<u32>,
    data: Vec<DataState>,
    gpus: Vec<GpuState>,
    queues: CpuQueues,
    /// Per-CPU-worker: busy-until horizon (f64) and idle flag.
    worker_free: Vec<f64>,
    worker_idle: Vec<bool>,
    cpu_busy: Vec<f64>,
    /// For ParsecLike: which worker offloaded each GPU task (successor
    /// release target).
    submitter: Vec<usize>,
    remaining_tasks: usize,
    bytes_h2d: f64,
    bytes_d2h: f64,
    tasks_on_gpu: usize,
    tasks_on_cpu: usize,
    /// Global LRU clock for device residency.
    lru_clock: u64,
    device_evictions: usize,
    bytes_evicted: f64,
    /// Per-resource timeline of the run (CPU tasks, GPU kernels, PCIe
    /// transfers), in simulated seconds.
    spans: Vec<SimSpan>,
}

/// Number of CPU workers that execute tasks under a policy.
fn cpu_worker_count(platform: &Platform, policy: SimPolicy) -> usize {
    match policy {
        // "when a GPU is used, a CPU worker is removed" (§V-C).
        SimPolicy::StarPuLike => platform.cores.saturating_sub(platform.gpus.len()).max(1),
        _ => platform.cores,
    }
}

/// Simulate the DAG on the platform under the policy.
pub fn simulate(dag: &SimDag, platform: &Platform, policy: SimPolicy) -> SimReport {
    debug_assert_eq!(dag.validate(), Ok(()));
    let nworkers = cpu_worker_count(platform, policy);
    let queues = match policy {
        SimPolicy::NativeStatic => {
            CpuQueues::PerWorker((0..nworkers).map(|_| BinaryHeap::new()).collect())
        }
        SimPolicy::StarPuLike => CpuQueues::Central(BinaryHeap::new()),
        SimPolicy::ParsecLike { .. } => {
            CpuQueues::Deques((0..nworkers).map(|_| VecDeque::new()).collect())
        }
    };
    let streams = match policy {
        SimPolicy::ParsecLike { streams } => streams.max(1),
        _ => 1,
    };
    let mut engine = Engine {
        dag,
        platform,
        policy,
        events: EventQueue::new(),
        now: 0.0,
        pending: dag.tasks.iter().map(|t| t.npred).collect(),
        data: dag.data.iter().map(|_| DataState::new()).collect(),
        gpus: platform
            .gpus
            .iter()
            .map(|_| GpuState {
                streams,
                active: Vec::new(),
                ready: VecDeque::new(),
                assigned: 0,
                h2d_busy: 0.0,
                d2h_busy: 0.0,
                last_update: 0.0,
                version: 0,
                busy_time: 0.0,
                expected_free: 0.0,
                resident: Vec::new(),
                resident_bytes: 0.0,
                peak_resident: 0.0,
            })
            .collect(),
        queues,
        worker_free: vec![0.0; nworkers],
        worker_idle: vec![true; nworkers],
        cpu_busy: vec![0.0; nworkers],
        submitter: vec![0; dag.tasks.len()],
        remaining_tasks: dag.tasks.len(),
        bytes_h2d: 0.0,
        bytes_d2h: 0.0,
        tasks_on_gpu: 0,
        tasks_on_cpu: 0,
        lru_clock: 0,
        device_evictions: 0,
        bytes_evicted: 0.0,
        spans: Vec::new(),
    };
    engine.run();
    let flush = engine.final_flush_time();
    engine
        .spans
        .sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap_or(core::cmp::Ordering::Equal));
    SimReport {
        makespan: engine.now.max(flush),
        total_flops: dag.total_flops(),
        cpu_busy: engine.cpu_busy,
        gpu_busy: engine.gpus.iter().map(|g| g.busy_time).collect(),
        bytes_h2d: engine.bytes_h2d,
        bytes_d2h: engine.bytes_d2h,
        tasks_on_gpu: engine.tasks_on_gpu,
        tasks_on_cpu: engine.tasks_on_cpu,
        peak_device_bytes: engine.gpus.iter().map(|g| g.peak_resident).collect(),
        device_evictions: engine.device_evictions,
        bytes_evicted: engine.bytes_evicted,
        spans: engine.spans,
    }
}

impl<'a> Engine<'a> {
    fn run(&mut self) {
        // Seed the roots.
        let roots: Vec<TaskId> = (0..self.dag.tasks.len())
            .filter(|&t| self.dag.tasks[t].npred == 0)
            .collect();
        for t in roots {
            self.route_ready_task(t, None);
        }
        self.wake_all_workers();
        while self.remaining_tasks > 0 {
            let Some((time, ev)) = self.events.pop() else {
                panic!(
                    "event queue drained with {} tasks left under {} (deadlock)",
                    self.remaining_tasks,
                    self.policy.label()
                );
            };
            // The queue pops in nondecreasing time order.
            self.now = time;
            match ev {
                Event::CpuFinish { worker, task } => self.on_cpu_finish(worker, task),
                Event::WorkerWake { worker } => self.try_dispatch_worker(worker),
                Event::GpuCheck { gpu, version } => self.on_gpu_check(gpu, version),
                Event::GpuTaskReady { gpu, task } => {
                    self.gpus[gpu].ready.push_back(task);
                    self.try_start_kernels(gpu);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Routing of ready tasks
    // ------------------------------------------------------------------

    /// Place a ready task according to the policy. `releaser` is the CPU
    /// worker whose task completion released it (None for roots and GPU
    /// completions routed through the submitter).
    fn route_ready_task(&mut self, t: TaskId, releaser: Option<usize>) {
        let task = &self.dag.tasks[t];
        match self.policy {
            SimPolicy::NativeStatic => {
                let owner = task.static_owner % self.worker_free.len();
                if let CpuQueues::PerWorker(ref mut qs) = self.queues {
                    qs[owner].push(PrioEntry {
                        priority: task.priority,
                        task: t,
                    });
                }
                // Wake everyone: idle workers other than the owner can
                // steal the new work.
                self.wake_all_workers();
            }
            SimPolicy::StarPuLike => {
                // dmda: estimated completion on CPU vs. each GPU.
                if task.gpu_eligible && !self.gpus.is_empty() {
                    let cpu_est = self.earliest_cpu_free() + self.cpu_exec_time(t, usize::MAX);
                    let mut best_gpu: Option<(usize, f64)> = None;
                    for g in 0..self.gpus.len() {
                        let est = self.gpu_completion_estimate(t, g);
                        if best_gpu.is_none_or(|(_, b)| est < b) {
                            best_gpu = Some((g, est));
                        }
                    }
                    if let Some((g, est)) = best_gpu {
                        if est < cpu_est {
                            self.offload(t, g);
                            return;
                        }
                    }
                }
                if let CpuQueues::Central(ref mut q) = self.queues {
                    q.push(PrioEntry {
                        priority: task.priority,
                        task: t,
                    });
                }
                self.wake_all_workers();
            }
            SimPolicy::ParsecLike { .. } => {
                // Offload decision made by the releasing worker when it
                // would otherwise execute the task: here we approximate
                // PaRSEC by deciding at release time with a size threshold
                // and device affinity/queue-depth heuristics.
                if task.gpu_eligible && !self.gpus.is_empty() && self.worth_offloading(t) {
                    let g = self.pick_gpu_by_affinity(t);
                    if self.gpus[g].assigned < 4 * self.gpus[g].streams + 4 {
                        self.submitter[t] = releaser.unwrap_or(0);
                        self.offload(t, g);
                        return;
                    }
                }
                let w = releaser.unwrap_or(t % self.worker_free.len());
                if let CpuQueues::Deques(ref mut qs) = self.queues {
                    qs[w].push_front(t); // LIFO: hottest data first
                }
                // Idle workers other than the releaser must wake to steal.
                self.wake_all_workers();
            }
        }
    }

    /// Size threshold for PaRSEC-like offload ("threshold based criterion
    /// on the size of the computational tasks", §II).
    fn worth_offloading(&self, t: TaskId) -> bool {
        match self.dag.tasks[t].shape {
            TaskShape::Update { m, n, .. } => m * n >= 64 * 64,
            TaskShape::Panel { .. } => false,
        }
    }

    fn pick_gpu_by_affinity(&self, t: TaskId) -> usize {
        let task = &self.dag.tasks[t];
        // Prefer the device already holding the destination panel, then
        // the one holding a source, then the least loaded.
        for g in 0..self.gpus.len() {
            if self.data[task.writes].valid_on_gpu(g) {
                return g;
            }
        }
        for g in 0..self.gpus.len() {
            if task.reads.iter().any(|&d| self.data[d].valid_on_gpu(g)) {
                return g;
            }
        }
        (0..self.gpus.len())
            .min_by_key(|&g| self.gpus[g].assigned)
            .unwrap()
    }

    // ------------------------------------------------------------------
    // GPU path
    // ------------------------------------------------------------------

    /// Shape → kernel model kind for GPU updates.
    fn gpu_kernel(&self, t: TaskId) -> (GpuKernelKind, usize, usize, usize) {
        match self.dag.tasks[t].shape {
            TaskShape::Update {
                m,
                n,
                k,
                target_height,
                ldlt,
            } => (
                GpuKernelKind::Sparse {
                    target_height,
                    ldlt,
                },
                m,
                n,
                k,
            ),
            TaskShape::Panel { width, height } => {
                // Panels are never offloaded; shape kept for completeness.
                (GpuKernelKind::AstraNoTex, height, width, width)
            }
        }
    }

    fn gpu_completion_estimate(&self, t: TaskId, g: usize) -> f64 {
        let task = &self.dag.tasks[t];
        let gpu = &self.gpus[g];
        let mut transfer = 0.0;
        for &d in task.reads.iter().chain(std::iter::once(&task.writes)) {
            if !self.data[d].valid_on_gpu(g) {
                transfer += self.platform.link.time(self.dag.data[d].bytes);
            }
        }
        let (kind, m, n, k) = self.gpu_kernel(t);
        let exec = task.flops / (kernel_rate(&self.platform.gpus[g], kind, m, n, k) * 1e9)
            + self.platform.gpus[g].launch_overhead;
        gpu.expected_free.max(gpu.h2d_busy.max(self.now) + transfer) + exec
    }

    /// Stage a task onto GPU `g`: pin its data into device memory (evicting
    /// cold panels if the working set overflows), enqueue its missing
    /// transfers on the h2d link and schedule its readiness.
    fn offload(&mut self, t: TaskId, g: usize) {
        self.gpus[g].assigned += 1;
        let all: Vec<DataId> = {
            let task = &self.dag.tasks[t];
            task.reads
                .iter()
                .chain(std::iter::once(&task.writes))
                .copied()
                .collect()
        };
        for &d in &all {
            self.pin_device_data(g, d);
        }
        self.enforce_device_capacity(g);
        let mut ready_at = self.now;
        let needs: Vec<DataId> = all
            .into_iter()
            .filter(|&d| !self.data[d].valid_on_gpu(g))
            .collect();
        for d in needs {
            let bytes = self.dag.data[d].bytes;
            // If the only valid copy is on another GPU, fetch it home
            // first (StarPU could do d2d; we model the conservative path
            // for both, the d2d benefit being minor for this workload).
            if let Some(owner) = self.data[d].dirty_gpu() {
                if owner != g {
                    let from = self.gpus[owner].d2h_busy.max(self.now);
                    let done = from + self.platform.link.time(bytes);
                    self.gpus[owner].d2h_busy = done;
                    self.bytes_d2h += bytes;
                    self.data[d].valid |= HOST;
                    self.spans.push(SimSpan {
                        resource: SimResource::D2h(owner),
                        task: Some(t),
                        start: from,
                        end: done,
                        label: "d2h",
                    });
                    ready_at = ready_at.max(done);
                }
            }
            let start = self.gpus[g].h2d_busy.max(ready_at);
            let done = start + self.platform.link.time(bytes);
            self.gpus[g].h2d_busy = done;
            self.bytes_h2d += bytes;
            self.data[d].valid |= DataState::gpu_bit(g);
            self.spans.push(SimSpan {
                resource: SimResource::H2d(g),
                task: Some(t),
                start,
                end: done,
                label: "h2d",
            });
            ready_at = ready_at.max(done);
        }
        let (kind, m, n, k) = self.gpu_kernel(t);
        let exec = self.dag.tasks[t].flops
            / (kernel_rate(&self.platform.gpus[g], kind, m, n, k) * 1e9);
        self.gpus[g].expected_free = self.gpus[g].expected_free.max(ready_at) + exec;
        self.events.push_at(ready_at, Event::GpuTaskReady { gpu: g, task: t });
    }

    /// Pin a datum into GPU `g`'s memory, refreshing its LRU stamp. New
    /// entries count toward the resident footprint immediately (the
    /// allocation precedes the transfer).
    fn pin_device_data(&mut self, g: usize, d: DataId) {
        self.lru_clock += 1;
        let stamp = self.lru_clock;
        let bytes = self.dag.data[d].bytes;
        let gpu = &mut self.gpus[g];
        if let Some(r) = gpu.resident.iter_mut().find(|r| r.data == d) {
            r.stamp = stamp;
            r.pins += 1;
        } else {
            gpu.resident.push(ResidentData { data: d, stamp, pins: 1 });
            gpu.resident_bytes += bytes;
            gpu.peak_resident = gpu.peak_resident.max(gpu.resident_bytes);
        }
    }

    fn unpin_device_data(&mut self, g: usize, d: DataId) {
        if let Some(r) = self.gpus[g].resident.iter_mut().find(|r| r.data == d) {
            r.pins = r.pins.saturating_sub(1);
        }
    }

    /// Evict cold (LRU, unpinned) data until GPU `g`'s resident set fits
    /// its device memory. A datum whose only valid copy lives on the
    /// device is written back over PCIe before being dropped. When every
    /// resident datum is pinned by staged tasks the device overcommits —
    /// the in-flight working set cannot be shrunk without stalling.
    fn enforce_device_capacity(&mut self, g: usize) {
        let cap = self.platform.gpus[g].memory_bytes;
        while self.gpus[g].resident_bytes > cap {
            let Some(idx) = self.gpus[g]
                .resident
                .iter()
                .enumerate()
                .filter(|(_, r)| r.pins == 0)
                .min_by_key(|(_, r)| r.stamp)
                .map(|(i, _)| i)
            else {
                return; // everything pinned: overcommit
            };
            let victim = self.gpus[g].resident.swap_remove(idx);
            let bytes = self.dag.data[victim.data].bytes;
            self.gpus[g].resident_bytes -= bytes;
            self.device_evictions += 1;
            self.bytes_evicted += bytes;
            if self.data[victim.data].dirty_gpu() == Some(g) {
                // Only valid copy: write it back before dropping it.
                let from = self.gpus[g].d2h_busy.max(self.now);
                let done = from + self.platform.link.time(bytes);
                self.gpus[g].d2h_busy = done;
                self.bytes_d2h += bytes;
                self.data[victim.data].valid |= HOST;
                self.spans.push(SimSpan {
                    resource: SimResource::D2h(g),
                    task: None,
                    start: from,
                    end: done,
                    label: "d2h",
                });
            }
            self.data[victim.data].valid &= !DataState::gpu_bit(g);
        }
    }

    fn try_start_kernels(&mut self, g: usize) {
        self.gpus[g].advance(self.now);
        let mut changed = false;
        while self.gpus[g].active.len() < self.gpus[g].streams {
            let Some(t) = self.gpus[g].ready.pop_front() else {
                break;
            };
            let (kind, m, n, k) = self.gpu_kernel(t);
            let alone = kernel_rate(&self.platform.gpus[g], kind, m, n, k);
            let overhead_flops = self.platform.gpus[g].launch_overhead * alone * 1e9;
            self.gpus[g].active.push(ActiveKernel {
                task: t,
                remaining: self.dag.tasks[t].flops + overhead_flops,
                alone_rate: alone,
                ceiling: kernel_ceiling(&self.platform.gpus[g], kind, m),
                started: self.now,
            });
            changed = true;
        }
        if changed {
            self.reschedule_gpu(g);
        }
    }

    fn reschedule_gpu(&mut self, g: usize) {
        self.gpus[g].version += 1;
        if let Some(dt) = self.gpus[g].next_completion() {
            let v = self.gpus[g].version;
            self.events
                .push_at(self.now + dt.max(0.0), Event::GpuCheck { gpu: g, version: v });
        }
    }

    fn on_gpu_check(&mut self, g: usize, version: u64) {
        if self.gpus[g].version != version {
            return; // stale
        }
        self.gpus[g].advance(self.now);
        let finished: Vec<(TaskId, f64)> = self.gpus[g]
            .active
            .iter()
            .filter(|k| k.remaining <= 1.0) // < 1 flop left = done
            .map(|k| (k.task, k.started))
            .collect();
        if finished.is_empty() {
            self.reschedule_gpu(g);
            return;
        }
        self.gpus[g].active.retain(|k| k.remaining > 1.0);
        for (t, started) in finished {
            self.spans.push(SimSpan {
                resource: SimResource::Gpu(g),
                task: Some(t),
                start: started,
                end: self.now,
                label: "gpu-kernel",
            });
            self.gpus[g].assigned -= 1;
            self.tasks_on_gpu += 1;
            // Write: the GPU now holds the only valid copy.
            let d = self.dag.tasks[t].writes;
            self.data[d].valid = DataState::gpu_bit(g);
            self.data[d].last_writer = LastWriter::Gpu(g);
            let used: Vec<DataId> = {
                let task = &self.dag.tasks[t];
                task.reads
                    .iter()
                    .chain(std::iter::once(&task.writes))
                    .copied()
                    .collect()
            };
            for d in used {
                self.unpin_device_data(g, d);
            }
            self.complete_task(t, None);
        }
        self.scavenge_for_gpu(g);
        self.try_start_kernels(g);
        self.reschedule_gpu(g);
    }

    /// PaRSEC-like devices pull eligible work from the CPU deques when
    /// their pipeline drains ("the first computational threads that submit
    /// a GPU task takes the management of the GPU until no GPU work
    /// remains", §V-C — the manager keeps feeding it while work exists).
    fn scavenge_for_gpu(&mut self, g: usize) {
        if !matches!(self.policy, SimPolicy::ParsecLike { .. }) {
            return;
        }
        let cap = 4 * self.gpus[g].streams + 4;
        loop {
            if self.gpus[g].assigned >= cap {
                return;
            }
            // Steal a gpu-eligible task from the cold end of the longest
            // deque.
            let CpuQueues::Deques(ref mut qs) = self.queues else {
                return;
            };
            let mut found: Option<(usize, usize, TaskId)> = None; // (worker, pos-from-back, task)
            for (w, q) in qs.iter().enumerate() {
                for (i, &t) in q.iter().rev().enumerate() {
                    if self.dag.tasks[t].gpu_eligible
                        && matches!(self.dag.tasks[t].shape, TaskShape::Update { m, n, .. } if m * n >= 64 * 64)
                    {
                        if found.is_none_or(|(fw, _, _)| q.len() > qs[fw].len()) {
                            found = Some((w, i, t));
                        }
                        break;
                    }
                }
            }
            let Some((w, pos_from_back, t)) = found else {
                return;
            };
            let idx = qs[w].len() - 1 - pos_from_back;
            qs[w].remove(idx);
            self.submitter[t] = w;
            self.offload(t, g);
        }
    }

    // ------------------------------------------------------------------
    // CPU path
    // ------------------------------------------------------------------

    fn earliest_cpu_free(&self) -> f64 {
        self.worker_free
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .max(self.now)
    }

    /// Execution time of a task on a CPU core, including the cache-reuse
    /// penalty when its inputs were last written elsewhere.
    fn cpu_exec_time(&self, t: TaskId, worker: usize) -> f64 {
        let task = &self.dag.tasks[t];
        let b = match task.shape {
            TaskShape::Panel { width, .. } => width,
            TaskShape::Update { n, k, .. } => n.min(k),
        };
        let rate = self.platform.cpu.rate(b.max(1));
        let mut time = task.flops / (rate * 1e9) * task.cpu_multiplier;
        // Cold-data penalty: inputs last touched by another worker or a
        // GPU must stream through the memory hierarchy again.
        for &d in task.reads.iter().chain(std::iter::once(&task.writes)) {
            let cold = match self.data[d].last_writer {
                LastWriter::None => false,
                LastWriter::Cpu(w) => w != worker,
                LastWriter::Gpu(_) => true,
            };
            if cold {
                time += self.dag.data[d].bytes / (self.platform.cpu.cold_read_gbps * 1e9);
            }
        }
        time
    }

    fn sched_overhead(&self, nworkers: usize) -> f64 {
        let c = &self.platform.sched;
        match self.policy {
            SimPolicy::NativeStatic => c.native_per_task,
            SimPolicy::StarPuLike => {
                c.dataflow_per_task + c.dataflow_contention * nworkers as f64
            }
            SimPolicy::ParsecLike { .. } => c.ptg_per_task,
        }
    }

    /// Try to give worker `w` a task; park it if nothing is available.
    fn try_dispatch_worker(&mut self, w: usize) {
        if !self.worker_idle[w] || self.now < self.worker_free[w] {
            return;
        }
        let Some(t) = self.pick_cpu_task(w) else {
            return; // stays idle; a later push wakes it
        };
        self.worker_idle[w] = false;
        // Fetch dirty inputs from GPUs (synchronous acquire).
        let mut start = self.now + self.sched_overhead(self.worker_free.len());
        let fetches: Vec<DataId> = {
            let task = &self.dag.tasks[t];
            task.reads
                .iter()
                .chain(std::iter::once(&task.writes))
                .copied()
                .filter(|&d| !self.data[d].valid_on_host())
                .collect()
        };
        for d in fetches {
            if let Some(g) = self.data[d].dirty_gpu() {
                let bytes = self.dag.data[d].bytes;
                let from = self.gpus[g].d2h_busy.max(self.now);
                let done = from + self.platform.link.time(bytes);
                self.gpus[g].d2h_busy = done;
                self.bytes_d2h += bytes;
                self.data[d].valid |= HOST;
                self.spans.push(SimSpan {
                    resource: SimResource::D2h(g),
                    task: Some(t),
                    start: from,
                    end: done,
                    label: "d2h",
                });
                start = start.max(done);
            }
        }
        let exec = self.cpu_exec_time(t, w);
        let finish = start + exec;
        self.cpu_busy[w] += finish - self.now;
        self.worker_free[w] = finish;
        self.spans.push(SimSpan {
            resource: SimResource::Cpu(w),
            task: Some(t),
            start,
            end: finish,
            label: "cpu-task",
        });
        self.events.push_at(finish, Event::CpuFinish { worker: w, task: t });
    }

    /// Policy-specific CPU work selection for worker `w`.
    fn pick_cpu_task(&mut self, w: usize) -> Option<TaskId> {
        match self.queues {
            CpuQueues::PerWorker(ref mut qs) => {
                if let Some(e) = qs[w].pop() {
                    return Some(e.task);
                }
                // Steal the lowest-priority entry of the most loaded queue.
                let victim = (0..qs.len())
                    .filter(|&v| v != w && !qs[v].is_empty())
                    .max_by_key(|&v| qs[v].len())?;
                let mut entries: Vec<PrioEntry> = std::mem::take(&mut qs[victim]).into_vec();
                let (idx, _) = entries
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.cmp(b.1))
                    .unwrap();
                let stolen = entries.swap_remove(idx);
                qs[victim] = entries.into_iter().collect();
                Some(stolen.task)
            }
            CpuQueues::Central(ref mut q) => q.pop().map(|e| e.task),
            CpuQueues::Deques(ref mut qs) => {
                if let Some(t) = qs[w].pop_front() {
                    return Some(t);
                }
                let victim = (0..qs.len())
                    .filter(|&v| v != w && !qs[v].is_empty())
                    .max_by_key(|&v| qs[v].len())?;
                qs[victim].pop_back()
            }
        }
    }

    fn on_cpu_finish(&mut self, w: usize, t: TaskId) {
        self.tasks_on_cpu += 1;
        let d = self.dag.tasks[t].writes;
        self.data[d].valid = HOST;
        self.data[d].last_writer = LastWriter::Cpu(w);
        self.worker_idle[w] = true;
        self.complete_task(t, Some(w));
        self.try_dispatch_worker(w);
    }

    /// Decrement successors; route the newly-ready ones.
    fn complete_task(&mut self, t: TaskId, releaser: Option<usize>) {
        self.remaining_tasks -= 1;
        let succs = self.dag.tasks[t].succs.clone();
        let releaser = releaser.or(Some(self.submitter[t]));
        for s in succs {
            self.pending[s] -= 1;
            if self.pending[s] == 0 {
                self.route_ready_task(s, releaser);
            }
        }
    }

    fn wake_worker(&mut self, w: usize) {
        if self.worker_idle[w] {
            self.events
                .push_at(self.now.max(self.worker_free[w]), Event::WorkerWake { worker: w });
        }
    }

    fn wake_all_workers(&mut self) {
        for w in 0..self.worker_free.len() {
            self.wake_worker(w);
        }
    }

    /// Time to flush every GPU-dirty panel back to host memory after the
    /// last task (results must land in main memory for the solve phase).
    fn final_flush_time(&mut self) -> f64 {
        let mut horizon = self.now;
        for d in 0..self.data.len() {
            if let Some(g) = self.data[d].dirty_gpu() {
                let bytes = self.dag.data[d].bytes;
                let from = self.gpus[g].d2h_busy.max(self.now);
                let done = from + self.platform.link.time(bytes);
                self.gpus[g].d2h_busy = done;
                self.bytes_d2h += bytes;
                self.data[d].valid |= HOST;
                self.spans.push(SimSpan {
                    resource: SimResource::D2h(g),
                    task: None,
                    start: from,
                    end: done,
                    label: "d2h",
                });
                horizon = horizon.max(done);
            }
        }
        horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{SimData, SimTask};

    /// A bag of `n` independent update tasks with the given flops.
    fn independent_updates(n: usize, flops: f64, m: usize) -> SimDag {
        SimDag {
            tasks: (0..n)
                .map(|i| SimTask {
                    shape: TaskShape::Update {
                        m,
                        n: 128,
                        k: 128,
                        target_height: m,
                        ldlt: false,
                    },
                    flops,
                    reads: vec![i % 4],
                    writes: 4 + i,
                    gpu_eligible: true,
                    succs: vec![],
                    npred: 0,
                    priority: 1.0,
                    static_owner: i,
                    cpu_multiplier: 1.0,
                })
                .collect(),
            data: (0..n + 4).map(|_| SimData { bytes: 1e6 }).collect(),
        }
    }

    /// A pure serial chain of panel tasks.
    fn chain(n: usize, flops: f64) -> SimDag {
        SimDag {
            tasks: (0..n)
                .map(|i| SimTask {
                    shape: TaskShape::Panel {
                        width: 64,
                        height: 128,
                    },
                    flops,
                    reads: vec![],
                    writes: 0,
                    gpu_eligible: false,
                    succs: if i + 1 < n { vec![i + 1] } else { vec![] },
                    npred: u32::from(i > 0),
                    priority: (n - i) as f64,
                    static_owner: 0,
                    cpu_multiplier: 1.0,
                })
                .collect(),
            data: vec![SimData { bytes: 1e5 }],
        }
    }

    fn policies() -> Vec<SimPolicy> {
        vec![
            SimPolicy::NativeStatic,
            SimPolicy::StarPuLike,
            SimPolicy::ParsecLike { streams: 1 },
            SimPolicy::ParsecLike { streams: 3 },
        ]
    }

    #[test]
    fn serial_chain_time_is_sum_of_tasks() {
        let dag = chain(50, 1e7);
        for policy in policies() {
            let p = Platform::mirage(4, 0);
            let r = simulate(&dag, &p, policy);
            // Lower bound: pure compute time on one core.
            let rate = p.cpu.rate(64) * 1e9;
            let compute = 50.0 * 1e7 / rate;
            assert!(r.makespan >= compute, "{policy:?}");
            // Upper bound: compute + generous per-task overhead.
            assert!(r.makespan <= compute * 1.2 + 50.0 * 1e-4, "{policy:?}");
            assert_eq!(r.tasks_on_cpu, 50);
            assert_eq!(r.tasks_on_gpu, 0);
        }
    }

    #[test]
    fn independent_tasks_scale_with_cores() {
        let dag = independent_updates(256, 5e7, 512);
        for policy in policies() {
            let r1 = simulate(&dag, &Platform::mirage(1, 0), policy);
            let r8 = simulate(&dag, &Platform::mirage(8, 0), policy);
            let speedup = r1.makespan / r8.makespan;
            assert!(
                speedup > 5.0,
                "{policy:?}: speedup {speedup} makespans {} / {}",
                r1.makespan,
                r8.makespan
            );
        }
    }

    #[test]
    fn gpus_accelerate_large_updates() {
        let dag = independent_updates(128, 4e8, 4096);
        for policy in [SimPolicy::StarPuLike, SimPolicy::ParsecLike { streams: 1 }] {
            let cpu_only = simulate(&dag, &Platform::mirage(12, 0), policy);
            let hybrid = simulate(&dag, &Platform::mirage(12, 3), policy);
            assert!(
                hybrid.makespan < 0.6 * cpu_only.makespan,
                "{policy:?}: {} vs {}",
                hybrid.makespan,
                cpu_only.makespan
            );
            assert!(hybrid.tasks_on_gpu > 0, "{policy:?} never offloaded");
            assert!(hybrid.bytes_h2d > 0.0);
        }
    }

    #[test]
    fn native_policy_never_uses_gpus() {
        let dag = independent_updates(64, 4e8, 4096);
        let r = simulate(&dag, &Platform::mirage(12, 3), SimPolicy::NativeStatic);
        assert_eq!(r.tasks_on_gpu, 0);
        assert_eq!(r.bytes_h2d, 0.0);
    }

    #[test]
    fn multiple_streams_help_small_kernels() {
        // Small kernels underutilize the device: 3 streams should beat 1
        // (the Figure 3 effect), while huge kernels see little change.
        // Data footprints are kept tiny so the workload is compute-bound
        // (a transfer-bound mix hides the stream effect behind the PCIe
        // link, which is exactly the separate transfer-bound test below).
        let mut small = independent_updates(512, 4e6, 128);
        for d in &mut small.data {
            d.bytes = 1e4;
        }
        let s1 = simulate(&small, &Platform::mirage(12, 1), SimPolicy::ParsecLike { streams: 1 });
        let s3 = simulate(&small, &Platform::mirage(12, 1), SimPolicy::ParsecLike { streams: 3 });
        // Guard: both runs must actually use the GPU for the comparison
        // to mean anything.
        assert!(s1.tasks_on_gpu > 0 && s3.tasks_on_gpu > 0);
        assert!(
            s3.makespan < s1.makespan * 0.95,
            "streams gave no speedup: {} vs {}",
            s3.makespan,
            s1.makespan
        );
    }

    #[test]
    fn tight_device_memory_forces_evictions_and_extra_traffic() {
        // 128 updates × 1 MB writes + 4 shared 1 MB reads. A 6 GB device
        // holds everything; a 4 MB device must evict cold panels and
        // re-fetch the shared sources, inflating PCIe traffic.
        let dag = independent_updates(128, 4e8, 4096);
        let policy = SimPolicy::ParsecLike { streams: 1 };
        let roomy = Platform::mirage(12, 1);
        let mut tight = roomy.clone();
        tight.gpus[0].memory_bytes = 4e6;
        let a = simulate(&dag, &roomy, policy);
        let b = simulate(&dag, &tight, policy);
        assert!(a.tasks_on_gpu > 0 && b.tasks_on_gpu > 0);
        assert_eq!(a.device_evictions, 0, "6 GB fits the whole working set");
        assert!(a.peak_device_bytes[0] > 0.0);
        assert!(a.peak_device_bytes[0] <= roomy.gpus[0].memory_bytes);
        assert!(b.device_evictions > 0, "4 MB cannot hold the working set");
        assert!(b.bytes_evicted > 0.0);
        assert!(
            b.peak_device_bytes[0] < a.peak_device_bytes[0],
            "capped footprint must stay below the unconstrained one: {} vs {}",
            b.peak_device_bytes[0],
            a.peak_device_bytes[0]
        );
        // Dirty victims are written back, not silently dropped.
        assert!(b.bytes_d2h >= a.bytes_d2h);
    }

    #[test]
    fn evicted_source_is_refetched_when_reused() {
        // A serial chain where the last task re-reads the first task's
        // source. With 3 MB of device memory that datum goes cold, gets
        // evicted mid-chain, and must cross PCIe a second time.
        let n = 10;
        let dag = SimDag {
            tasks: (0..n)
                .map(|i| SimTask {
                    shape: TaskShape::Update {
                        m: 4096,
                        n: 128,
                        k: 128,
                        target_height: 4096,
                        ldlt: false,
                    },
                    flops: 1e8,
                    reads: vec![if i + 1 == n { 0 } else { i }],
                    writes: n + i,
                    gpu_eligible: true,
                    succs: if i + 1 < n { vec![i + 1] } else { vec![] },
                    npred: u32::from(i > 0),
                    priority: 1.0,
                    static_owner: 0,
                    cpu_multiplier: 1.0,
                })
                .collect(),
            data: (0..2 * n).map(|_| SimData { bytes: 1e6 }).collect(),
        };
        let policy = SimPolicy::ParsecLike { streams: 1 };
        let roomy = Platform::mirage(4, 1);
        let mut tight = roomy.clone();
        tight.gpus[0].memory_bytes = 3e6;
        let a = simulate(&dag, &roomy, policy);
        let b = simulate(&dag, &tight, policy);
        assert_eq!(a.tasks_on_gpu, n, "chain must run on the device");
        assert_eq!(b.tasks_on_gpu, n, "chain must run on the device");
        assert_eq!(a.device_evictions, 0);
        assert!(b.device_evictions > 0);
        assert!(
            b.bytes_h2d > a.bytes_h2d,
            "the evicted source must be re-fetched: {} vs {}",
            b.bytes_h2d,
            a.bytes_h2d
        );
    }

    #[test]
    fn deterministic_replay() {
        let dag = independent_updates(200, 1e7, 256);
        for policy in policies() {
            let a = simulate(&dag, &Platform::mirage(6, 2), policy);
            let b = simulate(&dag, &Platform::mirage(6, 2), policy);
            assert_eq!(a.makespan, b.makespan, "{policy:?}");
            assert_eq!(a.tasks_on_gpu, b.tasks_on_gpu);
            assert_eq!(a.bytes_h2d, b.bytes_h2d);
        }
    }

    #[test]
    fn makespan_at_least_critical_path_and_at_most_serial() {
        let dag = chain(20, 1e8);
        let p = Platform::mirage(12, 0);
        for policy in policies() {
            let r = simulate(&dag, &p, policy);
            let rate = p.cpu.rate(64) * 1e9;
            let serial: f64 = 20.0 * 1e8 / rate;
            // A chain cannot go faster than its serial compute.
            assert!(r.makespan >= serial * 0.999, "{policy:?}");
        }
    }

    #[test]
    fn starpu_dedicates_a_worker_per_gpu() {
        // With 2 cores and 1 GPU, StarPU-like has a single compute core:
        // CPU-bound work should take ~2x the 2-core time.
        let dag = chain(40, 5e7);
        let two_cores = simulate(&dag, &Platform::mirage(2, 0), SimPolicy::StarPuLike);
        let with_gpu = simulate(&dag, &Platform::mirage(2, 1), SimPolicy::StarPuLike);
        // A chain is serial anyway, so use utilization instead: the
        // dedicated worker must not appear in cpu_busy.
        assert_eq!(two_cores.cpu_busy.len(), 2);
        assert_eq!(with_gpu.cpu_busy.len(), 1);
    }

    #[test]
    fn transfer_bound_workload_sees_little_gpu_benefit() {
        // Tiny flops on large data: PCIe dominates (the afshell10 story).
        let mut dag = independent_updates(64, 1e6, 96);
        for d in &mut dag.data {
            d.bytes = 64e6; // 64 MB per panel
        }
        let cpu = simulate(&dag, &Platform::mirage(12, 0), SimPolicy::ParsecLike { streams: 3 });
        let gpu = simulate(&dag, &Platform::mirage(12, 3), SimPolicy::ParsecLike { streams: 3 });
        assert!(
            gpu.makespan > 0.8 * cpu.makespan,
            "transfer-bound workload should not speed up: {} vs {}",
            gpu.makespan,
            cpu.makespan
        );
    }
}
