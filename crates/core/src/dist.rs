//! Fault-tolerant distributed fan-in execution over a lossy cluster model
//! (ROADMAP item 7; the paper's §VI future-work direction).
//!
//! The elimination tree is partitioned into per-node shards by the same
//! [`proportional_mapping`] the communication study uses; each simulated
//! node runs the fused 1D tasks of its shard on `cores` worker slots and
//! exchanges **fan-in pair messages**: contributions from one node's
//! panels into one remote panel are accumulated locally and shipped once,
//! when the last local contributor finishes — exactly the pair structure
//! [`crate::distributed::fan_in_study`] counts, so the engine's
//! zero-fault traffic is cross-checked against the study's prediction.
//!
//! The engine is a deterministic discrete-event simulation in *virtual*
//! time (the [`EventQueue`] min-heap from `dagfact-gpusim`) that executes
//! the *real* numeric kernels against the global [`CoefTab`] — it
//! produces genuine factors plus a simulated makespan, the house style of
//! the simulator crate.
//!
//! # Failure model
//!
//! Everything is failure-first and deterministic from the
//! [`FaultPlan`] seed:
//!
//! * **node crashes** (`crash=NxK` / `cprob=PxK`): node N dies at its
//!   K-th 1D-task completion (the K-th task is lost mid-flight; `K = 0`
//!   kills the node at time zero);
//! * **message chaos** (`mloss=P`, `mdup=P`, `mreorder=P`): every data
//!   and ack transmission rolls an independent fate — dropped,
//!   delivered twice, or delayed out of order.
//!
//! The protocol recovers by construction, never by luck:
//!
//! * **heartbeats + timeout detection** — nodes heartbeat on a reliable
//!   control plane (as do `Release`/`Pull` control messages; only the
//!   bulk data/ack channel is lossy); the lowest-indexed survivor
//!   declares a silent node dead after `heartbeat_timeout_beats` missed
//!   beats and adopts its shard;
//! * **sequence-numbered idempotent application** — receivers run every
//!   delivery through an [`ApplyLog`], so at-least-once delivery becomes
//!   exactly-once application; duplicate final acks are absorbed by the
//!   [`SendState`] latch;
//! * **bounded retransmit with exponential backoff** — unacked pairs
//!   retransmit on a timeout that doubles per attempt; an exhausted
//!   budget is the *typed* [`DistError::RetransmitExhausted`], never a
//!   hang;
//! * **supernode-granular checkpoints** — the store seeds an `INITIAL`
//!   snapshot of every assembled panel and adds a `FACTORED` snapshot at
//!   each 1D completion. Senders retain a pair's buffer until the target
//!   panel is checkpointed (the `Release` message), so a crashed
//!   receiver can always re-request (`Pull`) what it lost;
//! * **lineage replay** — the adopter restores `FACTORED` panels from
//!   checkpoints, resets unfinished panels to `INITIAL`, forgets their
//!   apply-log entries, re-applies the updates of completed shard-mates,
//!   rebuilds the dead node's outbound pair buffers from checkpointed
//!   contributors, and re-requests retained pairs from live senders.
//!   Replay is deterministic, so a stale in-flight duplicate carries a
//!   payload identical to the rebuilt one and the apply log keeps the
//!   sum exact.
//!
//! If recovery is impossible (every node dead, a retransmit budget
//! spent, or no event can make progress) the engine returns a typed
//! [`DistError`] — a wrong answer is never produced silently.
//!
//! # Verification
//!
//! The message structure is verified statically: [`dist_graph_spec`]
//! models pair messages as cross-node edges (1D task → send → apply →
//! target task) and must pass [`check_static`]. The retransmit/ack
//! protocol primitives themselves are loom-checked in `dagfact-rt`
//! (protocol model 6).

use crate::analysis::Analysis;
use crate::coeftab::CoefTab;
use crate::numeric::{FactorStats, Factors, NumericCtx};
use crate::SolverError;
use dagfact_gpusim::{ClusterPlatform, EventQueue};
use dagfact_kernels::Scalar;
use dagfact_rt::distproto::{ApplyLog, SendState};
use dagfact_rt::verify::{check_static, GraphSpec, Mode};
use dagfact_rt::{FaultPlan, SharedSlice};
use dagfact_sparse::CscMatrix;
use dagfact_symbolic::mapping::NodeMapping;
use dagfact_symbolic::{proportional_mapping, FactoKind};
use std::collections::{BTreeSet, BinaryHeap, HashMap};
use std::sync::Arc;

/// Simulated ack payload size (header-only message).
const ACK_BYTES: f64 = 64.0;

/// Virtual seconds without any pending-count progress before the engine
/// declares a protocol stall (safely above the longest retransmit
/// backoff chain of the default configuration).
const STALL_LIMIT: f64 = 5.0;

/// Configuration of one distributed factorization.
#[derive(Debug, Clone)]
pub struct DistOptions {
    /// Cluster width (≥ 1).
    pub nnodes: usize,
    /// CPU cores (1D-task slots) per node.
    pub cores_per_node: usize,
    /// Deterministic fault injection (node crashes, message chaos).
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Total send budget per pair transmission state (≥ 1).
    pub max_send_attempts: u32,
    /// Heartbeat period in virtual seconds.
    pub heartbeat_interval: f64,
    /// Missed beats before a silent node is declared dead.
    pub heartbeat_timeout_beats: u32,
    /// Static-pivot epsilon override (as in
    /// [`crate::numeric::ExecOptions`]).
    pub epsilon_override: Option<f64>,
}

impl Default for DistOptions {
    fn default() -> DistOptions {
        DistOptions {
            nnodes: 2,
            cores_per_node: 4,
            fault_plan: None,
            max_send_attempts: 8,
            heartbeat_interval: 5e-4,
            heartbeat_timeout_beats: 3,
            epsilon_override: None,
        }
    }
}

/// Typed failure of a distributed run — the contract is *never a wrong
/// answer*: every abnormal outcome is one of these.
#[derive(Debug)]
pub enum DistError {
    /// Every node crashed; no survivor can adopt the lost shards.
    AllNodesCrashed,
    /// A pair message exhausted its bounded retransmit budget.
    RetransmitExhausted {
        /// Target panel of the pair.
        target: usize,
        /// Original source node of the pair.
        from_node: usize,
        /// Send attempts made.
        attempts: u32,
    },
    /// No event could make progress for [`STALL_LIMIT`] virtual seconds.
    Stalled {
        /// Panels completed when the engine gave up.
        done: usize,
        /// Total panels.
        total: usize,
    },
    /// A numeric task failed (pivot breakdown, non-finite sweep, …).
    Solver(SolverError),
    /// A pair was delivered whose retained send buffer is gone — a
    /// protocol-invariant violation (the sender must hold the buffer
    /// until the ack), surfaced as a typed error instead of a panic in
    /// the hot accumulate path.
    PairBufferMissing {
        /// Index into the fan-in pair table.
        pair: usize,
        /// Target panel of the pair.
        target: usize,
    },
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::AllNodesCrashed => write!(f, "all nodes crashed; recovery impossible"),
            DistError::RetransmitExhausted {
                target,
                from_node,
                attempts,
            } => write!(
                f,
                "pair (panel {target} ← node {from_node}) exhausted its \
                 retransmit budget after {attempts} attempts"
            ),
            DistError::Stalled { done, total } => {
                write!(f, "protocol stalled with {done}/{total} panels complete")
            }
            DistError::Solver(e) => write!(f, "numeric failure: {e}"),
            DistError::PairBufferMissing { pair, target } => write!(
                f,
                "pair {pair} (target panel {target}) was delivered without \
                 a retained buffer — protocol invariant violated"
            ),
        }
    }
}

impl std::error::Error for DistError {}

impl From<SolverError> for DistError {
    fn from(e: SolverError) -> DistError {
        DistError::Solver(e)
    }
}

/// What a distributed run did: the simulated makespan plus the protocol
/// counters the chaos sweeps and the traffic cross-check assert on.
#[derive(Debug, Clone, Default)]
pub struct DistReport {
    /// Cluster width.
    pub nnodes: usize,
    /// Virtual completion time of the last panel.
    pub makespan: f64,
    /// 1D task executions, including recovery replays.
    pub tasks_executed: u64,
    /// Distinct fan-in pairs shipped (zero-fault: equals
    /// [`crate::distributed::CommStats::messages`] of the fan-in study).
    pub data_messages: u64,
    /// First-transmission bytes over those pairs, in the study's
    /// `min(accumulated, panel)` convention.
    pub bytes: f64,
    /// Data transmissions, including retransmits and recovery re-ships.
    pub sends: u64,
    /// Transmissions beyond each state's first attempt.
    pub retransmits: u64,
    /// Data/ack messages eaten by injected loss.
    pub messages_lost: u64,
    /// Deliveries duplicated by injection.
    pub duplicates_injected: u64,
    /// Deliveries delayed out of order by injection.
    pub reorders: u64,
    /// Duplicate deliveries absorbed by the apply log.
    pub duplicates_absorbed: u64,
    /// Acks ignored as duplicates or stale epochs.
    pub stale_acks: u64,
    /// Nodes that crashed, in crash order.
    pub crashes: Vec<usize>,
    /// Shard adoptions performed.
    pub recoveries: u64,
    /// Panels reset to their INITIAL checkpoint for lineage replay.
    pub panels_restored: u64,
}

// ---------------------------------------------------------------------
// Pair structure (shared with the static spec and the traffic study)
// ---------------------------------------------------------------------

/// One fan-in pair: everything node `src_node` will ever contribute to
/// remote panel `tgt`, accumulated locally and shipped once.
pub(crate) struct PairInfo {
    pub(crate) tgt: usize,
    pub(crate) src_node: usize,
    /// Contributing panels of `src_node` with their block ids into `tgt`.
    pub(crate) members: Vec<(usize, Vec<usize>)>,
    /// Sum of the members' contribution blocks, (rows at-and-below the
    /// block) × (rows of the block) each: what fan-out would ship.
    pub(crate) contrib_bytes: f64,
    /// Wire size of the accumulated buffer: the contributions overlap
    /// inside the target panel, so at most the panel itself.
    pub(crate) bytes: f64,
}

/// Shard a factorization over `nnodes` by proportional mapping and
/// enumerate the fan-in pairs of that mapping — the one enumeration under
/// the engine, its static spec and [`crate::distributed::fan_in_study`],
/// so the engine's zero-fault traffic is exactly the study's prediction.
pub(crate) fn build_pairs(
    analysis: &Analysis,
    complex: bool,
    nnodes: usize,
) -> (NodeMapping, Vec<PairInfo>) {
    let symbol = &analysis.symbol;
    let mapping = proportional_mapping(symbol, &analysis.costs(complex), nnodes);
    let node_of = &mapping.node_of;
    let scalar_bytes = if complex { 16.0 } else { 8.0 } * analysis.facto.sides() as f64;
    let mut index: HashMap<(usize, usize), usize> = HashMap::new();
    let mut pairs: Vec<PairInfo> = Vec::new();
    for c in 0..symbol.ncblk() {
        let src_node = node_of[c];
        let cb = &symbol.cblks[c];
        for (off, b) in symbol.off_blocks(c).iter().enumerate() {
            let tgt = b.facing;
            if node_of[tgt] == src_node {
                continue;
            }
            let bi = cb.block_begin + 1 + off;
            let m = cb.stride - b.local_offset;
            let contrib = (m * b.nrows()) as f64 * scalar_bytes;
            let id = *index.entry((tgt, src_node)).or_insert_with(|| {
                pairs.push(PairInfo {
                    tgt,
                    src_node,
                    members: Vec::new(),
                    contrib_bytes: 0.0,
                    bytes: 0.0,
                });
                pairs.len() - 1
            });
            pairs[id].contrib_bytes += contrib;
            match pairs[id].members.last_mut() {
                Some((panel, blocks)) if *panel == c => blocks.push(bi),
                _ => pairs[id].members.push((c, vec![bi])),
            }
        }
    }
    for pair in &mut pairs {
        let cb = &symbol.cblks[pair.tgt];
        let panel_bytes = (cb.stride * cb.width()) as f64 * scalar_bytes;
        pair.bytes = pair.contrib_bytes.min(panel_bytes);
    }
    (mapping, pairs)
}

// ---------------------------------------------------------------------
// Static graph spec: messages as cross-node edges
// ---------------------------------------------------------------------

/// Build the engine's task graph as a [`GraphSpec`] with the fan-in
/// messages modeled as explicit cross-node send/apply tasks:
///
/// * tasks `0..ncblk` — the fused 1D tasks (`ReadWrite` their own panel,
///   `Accum` same-node targets and their pair buffers);
/// * `ncblk + p` — `send(p)`: reads pair buffer `p`;
/// * `ncblk + npairs + p` — `apply(p)`: reads buffer `p`, `Accum` the
///   target panel.
///
/// Edges: same-node 1D dependency, contributor → send, send → apply
/// (the cross-node edge), and apply → target 1D task. [`check_static`]
/// over this spec proves the message protocol orders every conflicting
/// access; dropping an apply → target edge (the negative twin) is flagged
/// as a race.
pub fn dist_graph_spec(analysis: &Analysis, complex: bool, nnodes: usize) -> GraphSpec {
    let symbol = &analysis.symbol;
    let (mapping, pairs) = build_pairs(analysis, complex, nnodes.max(1));
    let ncblk = symbol.ncblk();
    let npairs = pairs.len();
    let mut spec = GraphSpec::new(ncblk + 2 * npairs);
    for c in 0..ncblk {
        spec.access(c, c, Mode::ReadWrite);
        for &t in analysis.one_d.succs(c) {
            if mapping.node_of[t] == mapping.node_of[c] {
                spec.access(c, t, Mode::Accum);
                spec.edge(c, t);
            }
        }
    }
    for (p, pair) in pairs.iter().enumerate() {
        let send = ncblk + p;
        let apply = ncblk + npairs + p;
        let buf = ncblk + p;
        for (member, _) in &pair.members {
            spec.access(*member, buf, Mode::Accum);
            spec.edge(*member, send);
        }
        spec.access(send, buf, Mode::Read);
        spec.edge(send, apply);
        spec.access(apply, buf, Mode::Read);
        spec.access(apply, pair.tgt, Mode::Accum);
        spec.edge(apply, pair.tgt);
    }
    spec
}

// ---------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------

/// Supernode-granular durable snapshot: one panel's L (and Uᵀ for LU)
/// storage plus its slice of the LDLᵀ diagonal.
struct Snapshot<T> {
    l: Vec<T>,
    u: Option<Vec<T>>,
    d: Vec<T>,
}

// ---------------------------------------------------------------------
// Events and per-pair protocol state
// ---------------------------------------------------------------------

enum Event {
    /// 1D task `c` finishes on `node` (stale if the epoch moved on).
    TaskDone { node: usize, epoch: u64, c: usize },
    /// A pair transmission reaches the target's current owner.
    Deliver { pair: usize, epoch: u64 },
    /// An ack reaches the pair's host.
    Ack { pair: usize, epoch: u64 },
    /// Retransmit timeout for an unacked pair.
    Retransmit { pair: usize, epoch: u64 },
    /// Periodic liveness beacon from `node`.
    Heartbeat { node: usize, epoch: u64 },
    /// Coordinator sweep: detect silent nodes, watch for stalls.
    Sweep,
    /// Injected crash pinned to virtual time zero (`crash=Nx0`).
    CrashNow { node: usize },
}

struct PairBuf<T> {
    l: Vec<T>,
    u: Option<Vec<T>>,
}

struct PairState<T> {
    buf: Option<PairBuf<T>>,
    /// Member panels not yet accumulated.
    remaining: usize,
    send: SendState,
    /// Bumped on recovery re-requests; stale acks and timers are
    /// ignored by epoch mismatch.
    epoch: u64,
    /// First transmission done (traffic accounting).
    shipped: bool,
    /// Target checkpointed; buffer freed.
    released: bool,
}

/// Ready-queue entry: higher priority first, lower panel id on ties
/// (determinism).
struct Ready {
    prio: f64,
    c: usize,
}

impl PartialEq for Ready {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Ready {}
impl PartialOrd for Ready {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ready {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.prio
            .total_cmp(&other.prio)
            .then_with(|| other.c.cmp(&self.c))
    }
}

// ---------------------------------------------------------------------
// The simulation
// ---------------------------------------------------------------------

struct Sim<'s, 'a, T: Scalar> {
    analysis: &'a Analysis,
    ctx: &'s NumericCtx<'s, T>,
    tab: &'s CoefTab<T>,
    d: &'s SharedSlice<T>,
    cluster: ClusterPlatform,
    plan: Option<Arc<FaultPlan>>,
    max_send_attempts: u32,
    hb_interval: f64,
    hb_timeout: f64,

    node_of: Vec<usize>,
    /// Original node → node currently responsible for its shard.
    alias: Vec<usize>,
    alive: Vec<bool>,
    buried: Vec<bool>,
    node_epoch: Vec<u64>,
    completions: Vec<u32>,
    crash_point: Vec<Option<u32>>,

    done: Vec<bool>,
    queued: Vec<bool>,
    pending: Vec<u32>,
    direct_preds: Vec<Vec<usize>>,
    inbound: Vec<Vec<usize>>,
    member_of: Vec<Vec<usize>>,

    pairs: Vec<PairInfo>,
    pstate: Vec<PairState<T>>,
    log: ApplyLog,

    ready: Vec<BinaryHeap<Ready>>,
    free_cores: Vec<usize>,
    prio: Vec<f64>,
    durations: Vec<f64>,
    queue: EventQueue<Event>,

    initial: Vec<Snapshot<T>>,
    factored: Vec<Option<Snapshot<T>>>,

    last_heard: Vec<f64>,
    last_progress: f64,
    done_count: usize,
    seq: u64,
    report: DistReport,
}

impl<'s, 'a, T: Scalar> Sim<'s, 'a, T> {
    fn new(
        analysis: &'a Analysis,
        ctx: &'s NumericCtx<'s, T>,
        tab: &'s CoefTab<T>,
        d: &'s SharedSlice<T>,
        opts: &DistOptions,
    ) -> Sim<'s, 'a, T> {
        let symbol = &analysis.symbol;
        let ncblk = symbol.ncblk();
        let nnodes = opts.nnodes.max(1);
        let cluster = ClusterPlatform::homogeneous(nnodes, opts.cores_per_node.max(1), 0);
        let costs = analysis.costs(T::IS_COMPLEX);
        let prio = analysis.priorities(&costs);
        let (mapping, pairs) = build_pairs(analysis, T::IS_COMPLEX, nnodes);
        let mut direct_preds: Vec<Vec<usize>> = vec![Vec::new(); ncblk];
        let mut pending = vec![0u32; ncblk];
        for c in 0..ncblk {
            for &t in analysis.one_d.succs(c) {
                if mapping.node_of[t] == mapping.node_of[c] {
                    direct_preds[t].push(c);
                    pending[t] += 1;
                }
            }
        }
        let mut inbound: Vec<Vec<usize>> = vec![Vec::new(); ncblk];
        let mut member_of: Vec<Vec<usize>> = vec![Vec::new(); ncblk];
        for (p, pair) in pairs.iter().enumerate() {
            inbound[pair.tgt].push(p);
            pending[pair.tgt] += 1;
            for (member, _) in &pair.members {
                member_of[*member].push(p);
            }
        }
        let pstate = pairs
            .iter()
            .map(|pair| PairState {
                buf: None,
                remaining: pair.members.len(),
                send: SendState::new(opts.max_send_attempts),
                epoch: 0,
                shipped: false,
                released: false,
            })
            .collect();
        let rate = cluster.nodes[0].cpu.rate(32).max(1e-3) * 1e9;
        let durations = (0..ncblk)
            .map(|c| (costs.task_1d(symbol, c) / rate).max(1e-9))
            .collect();
        let plan = opts.fault_plan.clone();
        let crash_point = (0..nnodes)
            .map(|n| plan.as_ref().and_then(|p| p.node_crash_point(n)))
            .collect();

        // Seed the INITIAL checkpoints from the freshly assembled panels.
        let initial = (0..ncblk).map(|c| snapshot(analysis, tab, d, c)).collect();

        Sim {
            analysis,
            ctx,
            tab,
            d,
            cluster,
            plan,
            max_send_attempts: opts.max_send_attempts.max(1),
            hb_interval: opts.heartbeat_interval.max(1e-6),
            hb_timeout: opts.heartbeat_interval.max(1e-6)
                * opts.heartbeat_timeout_beats.max(1) as f64,
            node_of: mapping.node_of,
            alias: (0..nnodes).collect(),
            alive: vec![true; nnodes],
            buried: vec![false; nnodes],
            node_epoch: vec![0; nnodes],
            completions: vec![0; nnodes],
            crash_point,
            done: vec![false; ncblk],
            queued: vec![false; ncblk],
            pending,
            direct_preds,
            inbound,
            member_of,
            pairs,
            pstate,
            log: ApplyLog::new(),
            ready: (0..nnodes).map(|_| BinaryHeap::new()).collect(),
            free_cores: vec![opts.cores_per_node.max(1); nnodes],
            prio,
            durations,
            queue: EventQueue::new(),
            initial,
            factored: (0..ncblk).map(|_| None).collect(),
            last_heard: vec![0.0; nnodes],
            last_progress: 0.0,
            done_count: 0,
            seq: 0,
            report: DistReport {
                nnodes,
                ..DistReport::default()
            },
        }
    }

    fn ncblk(&self) -> usize {
        self.analysis.symbol.ncblk()
    }

    /// Current owner node of panel `c` (through the adoption chain).
    fn owner(&self, c: usize) -> usize {
        self.alias[self.node_of[c]]
    }

    fn roll_fate(&mut self) -> dagfact_rt::MsgFate {
        let seq = self.seq;
        self.seq += 1;
        self.plan
            .as_ref()
            .map(|p| p.message_fate(seq))
            .unwrap_or_default()
    }

    // -- scheduling ---------------------------------------------------

    fn enqueue_if_ready(&mut self, c: usize) {
        if self.done[c] || self.queued[c] || self.pending[c] != 0 {
            return;
        }
        let node = self.owner(c);
        if !self.alive[node] {
            return;
        }
        self.queued[c] = true;
        self.ready[node].push(Ready {
            prio: self.prio[c],
            c,
        });
        self.kick(node);
    }

    fn kick(&mut self, node: usize) {
        if !self.alive[node] {
            return;
        }
        while self.free_cores[node] > 0 {
            let Some(Ready { c, .. }) = self.ready[node].pop() else {
                break;
            };
            self.free_cores[node] -= 1;
            self.queue.push_after(
                self.durations[c],
                Event::TaskDone {
                    node,
                    epoch: self.node_epoch[node],
                    c,
                },
            );
        }
    }

    // -- main loop ----------------------------------------------------

    fn run(&mut self) -> Result<(), DistError> {
        let nnodes = self.cluster.nnodes();
        for n in 0..nnodes {
            if self.crash_point[n] == Some(0) {
                self.queue.push_at(0.0, Event::CrashNow { node: n });
            }
            self.queue
                .push_at(self.hb_interval, Event::Heartbeat {
                    node: n,
                    epoch: 0,
                });
        }
        self.queue.push_at(self.hb_interval, Event::Sweep);
        for c in 0..self.ncblk() {
            self.enqueue_if_ready(c);
        }
        while self.done_count < self.ncblk() {
            let Some((_, ev)) = self.queue.pop() else {
                return Err(DistError::Stalled {
                    done: self.done_count,
                    total: self.ncblk(),
                });
            };
            self.handle(ev)?;
        }
        self.report.makespan = self.last_progress;
        Ok(())
    }

    fn handle(&mut self, ev: Event) -> Result<(), DistError> {
        match ev {
            Event::TaskDone { node, epoch, c } => self.on_task_done(node, epoch, c),
            Event::Deliver { pair, epoch } => self.on_deliver(pair, epoch),
            Event::Ack { pair, epoch } => {
                let st = &mut self.pstate[pair];
                if epoch != st.epoch || !st.send.mark_acked() {
                    self.report.stale_acks += 1;
                }
                Ok(())
            }
            Event::Retransmit { pair, epoch } => self.on_retransmit(pair, epoch),
            Event::Heartbeat { node, epoch } => {
                if self.alive[node] && epoch == self.node_epoch[node] {
                    self.last_heard[node] = self.queue.now();
                    self.queue
                        .push_after(self.hb_interval, Event::Heartbeat { node, epoch });
                }
                Ok(())
            }
            Event::Sweep => self.on_sweep(),
            Event::CrashNow { node } => {
                self.crash(node);
                Ok(())
            }
        }
    }

    // -- 1D task completion -------------------------------------------

    fn on_task_done(&mut self, node: usize, epoch: u64, c: usize) -> Result<(), DistError> {
        if !self.alive[node] || epoch != self.node_epoch[node] {
            return Ok(());
        }
        // `crash=NxK` (K ≥ 1): the K-th completion is lost mid-flight —
        // the node dies *instead of* committing the task.
        if self.crash_point[node] == Some(self.completions[node] + 1) {
            self.crash(node);
            return Ok(());
        }
        self.run_1d(c, node)?;
        self.completions[node] += 1;
        self.free_cores[node] += 1;
        self.kick(node);
        Ok(())
    }

    /// Execute the fused 1D task: factorize the panel, apply same-node
    /// updates directly, accumulate cross-node contributions into pair
    /// buffers, checkpoint, release inbound retentions, and ship any
    /// pair this panel completed.
    fn run_1d(&mut self, c: usize, node: usize) -> Result<(), DistError> {
        let symbol = &self.analysis.symbol;
        self.ctx.panel_task(c, node);
        if let Some(e) = self.ctx.take_error() {
            return Err(DistError::Solver(e));
        }
        let cb = &symbol.cblks[c];
        let my_node = self.node_of[c];
        for bi in (cb.block_begin + 1)..cb.block_end {
            let tgt = symbol.blocks[bi].facing;
            if self.node_of[tgt] == my_node {
                self.ctx.update_task(c, bi, node);
            } else {
                let pair = self.pair_of(tgt, my_node);
                self.accumulate(pair, c, bi, node);
            }
        }
        if let Some(e) = self.ctx.take_error() {
            return Err(DistError::Solver(e));
        }
        self.done[c] = true;
        self.done_count += 1;
        self.report.tasks_executed += 1;
        self.last_progress = self.queue.now();
        self.factored[c] = Some(snapshot(self.analysis, self.tab, self.d, c));
        // The panel is checkpointed: senders may free their retained
        // pair buffers (reliable control plane).
        for p in self.inbound[c].clone() {
            let st = &mut self.pstate[p];
            if st.send.mark_released() {
                st.released = true;
                st.buf = None;
            }
        }
        let succs = self.analysis.one_d.succs(c).to_vec();
        let mut to_ship = BTreeSet::new();
        for p in self.member_of[c].clone() {
            let st = &mut self.pstate[p];
            st.remaining -= 1;
            if st.remaining == 0 {
                to_ship.insert(p);
            }
        }
        for &t in &succs {
            if self.node_of[t] == my_node {
                self.pending[t] -= 1;
                self.enqueue_if_ready(t);
            }
        }
        for p in to_ship {
            self.ship(p)?;
        }
        Ok(())
    }

    fn pair_of(&self, tgt: usize, src_node: usize) -> usize {
        self.inbound[tgt]
            .iter()
            .copied()
            .find(|&p| self.pairs[p].src_node == src_node)
            .expect("cross-node block without a fan-in pair")
    }

    /// Accumulate block `bi` of panel `c` into a pair buffer.
    fn accumulate(&mut self, pair: usize, c: usize, bi: usize, node: usize) {
        let symbol = &self.analysis.symbol;
        let tgt = self.pairs[pair].tgt;
        let tcb = &symbol.cblks[tgt];
        let len = tcb.stride * tcb.width();
        let st = &mut self.pstate[pair];
        let buf = st.buf.get_or_insert_with(|| PairBuf {
            l: vec![T::zero(); len],
            u: self.tab.has_u().then(|| vec![T::zero(); len]),
        });
        self.ctx
            .update_into(c, bi, node, &mut buf.l, buf.u.as_deref_mut());
    }

    // -- messaging ----------------------------------------------------

    /// Transmit a complete pair toward its target's current owner.
    fn ship(&mut self, pair: usize) -> Result<(), DistError> {
        let info = &self.pairs[pair];
        let (tgt, from_node, bytes) = (info.tgt, info.src_node, info.bytes);
        let st = &mut self.pstate[pair];
        if st.released {
            return Ok(());
        }
        let epoch = st.epoch;
        let attempt = match st.send.try_send() {
            Ok(a) => a,
            Err(e) => {
                return Err(DistError::RetransmitExhausted {
                    target: tgt,
                    from_node,
                    attempts: e.attempts,
                })
            }
        };
        if !st.shipped {
            st.shipped = true;
            self.report.data_messages += 1;
            self.report.bytes += bytes;
        }
        self.report.sends += 1;
        if attempt > 1 {
            self.report.retransmits += 1;
        }
        let transit = self.cluster.net_time(bytes);
        let fate = self.roll_fate();
        if fate.lost {
            self.report.messages_lost += 1;
        } else {
            let delay = if fate.reordered {
                self.report.reorders += 1;
                3.0 * transit
            } else {
                transit
            };
            self.queue.push_after(delay, Event::Deliver { pair, epoch });
            if fate.duplicated {
                self.report.duplicates_injected += 1;
                self.queue
                    .push_after(1.5 * delay, Event::Deliver { pair, epoch });
            }
        }
        // Exponential backoff before the next retransmission attempt.
        let rto_micros = (4.0 * transit * 1e6) as u64 + 1;
        let backoff = SendState::backoff_micros(rto_micros, attempt) as f64 * 1e-6;
        self.queue
            .push_after(backoff, Event::Retransmit { pair, epoch });
        Ok(())
    }

    fn on_retransmit(&mut self, pair: usize, epoch: u64) -> Result<(), DistError> {
        let st = &self.pstate[pair];
        if epoch != st.epoch || st.send.is_acked() || st.released {
            return Ok(());
        }
        let host = self.alias[self.pairs[pair].src_node];
        if !self.alive[host] {
            // The adopter re-ships under a fresh epoch.
            return Ok(());
        }
        if !self.alive[self.owner(self.pairs[pair].tgt)] {
            // The shared failure detector says the receiver is down:
            // hold the message without burning budget and poll until
            // failover re-routes the alias (an adoption that restores
            // the target refreshes the pair's epoch, making this timer
            // stale — either way no attempt is wasted on a dead node).
            self.queue
                .push_after(self.hb_interval, Event::Retransmit { pair, epoch });
            return Ok(());
        }
        self.ship(pair)
    }

    fn on_deliver(&mut self, pair: usize, epoch: u64) -> Result<(), DistError> {
        let tgt = self.pairs[pair].tgt;
        let owner = self.owner(tgt);
        if !self.alive[owner] {
            // Delivered into a dead node: dropped, no ack. The sender's
            // retransmit loop re-routes to the adopter later.
            return Ok(());
        }
        // Idempotent application: the log key is the pair alone — replay
        // is deterministic, so any epoch's payload is the same bytes and
        // exactly one application keeps the sum correct.
        if self.log.apply_if_new(pair as u64, 0) {
            self.apply_pair(pair)?;
            self.pending[tgt] -= 1;
            self.last_progress = self.queue.now();
            self.enqueue_if_ready(tgt);
        } else {
            self.report.duplicates_absorbed += 1;
        }
        // Ack through the same lossy channel.
        let fate = self.roll_fate();
        if fate.lost {
            self.report.messages_lost += 1;
        } else {
            let transit = self.cluster.net_time(ACK_BYTES);
            let delay = if fate.reordered {
                self.report.reorders += 1;
                3.0 * transit
            } else {
                transit
            };
            self.queue.push_after(delay, Event::Ack { pair, epoch });
            if fate.duplicated {
                self.report.duplicates_injected += 1;
                self.queue.push_after(1.5 * delay, Event::Ack { pair, epoch });
            }
        }
        Ok(())
    }

    /// Elementwise-add a pair's accumulated (negative) contribution into
    /// the live target panel. A missing retained buffer is a protocol
    /// invariant violation and surfaces as a typed [`DistError`] — never
    /// a panic on the hot accumulate path.
    fn apply_pair(&mut self, pair: usize) -> Result<(), DistError> {
        let symbol = &self.analysis.symbol;
        // BOUNDS: `pair` indexes the fixed pair table it was enumerated
        // from; delivery events carry no other values.
        let tgt = self.pairs[pair].tgt;
        // BOUNDS: same fixed-size table, same index.
        let st = &self.pstate[pair];
        let Some(buf) = st.buf.as_ref() else {
            return Err(DistError::PairBufferMissing { pair, target: tgt });
        };
        let lpin = self
            .tab
            .pin_l_solve(symbol, tgt);
        // SAFETY: the simulation is single-threaded; no other borrow of
        // panel `tgt` is live while a delivery is processed.
        let l = unsafe { lpin.slice_mut() };
        for (dst, src) in l.iter_mut().zip(&buf.l) {
            *dst += *src;
        }
        if let Some(ub) = &buf.u {
            let upin = self.tab.pin_u_solve(symbol, tgt);
            // SAFETY: as above.
            let u = unsafe { upin.slice_mut() };
            for (dst, src) in u.iter_mut().zip(ub) {
                *dst += *src;
            }
        }
        Ok(())
    }

    // -- failure detection and recovery -------------------------------

    fn crash(&mut self, node: usize) {
        if !self.alive[node] {
            return;
        }
        self.alive[node] = false;
        // Invalidate every scheduled event of the dead node (running
        // tasks, heartbeats) by moving its epoch.
        self.node_epoch[node] += 1;
        self.ready[node].clear();
        self.report.crashes.push(node);
    }

    fn on_sweep(&mut self) -> Result<(), DistError> {
        if self.done_count == self.ncblk() {
            return Ok(());
        }
        let now = self.queue.now();
        if now - self.last_progress > STALL_LIMIT {
            return Err(DistError::Stalled {
                done: self.done_count,
                total: self.ncblk(),
            });
        }
        for n in 0..self.cluster.nnodes() {
            if !self.alive[n] && !self.buried[n] && now - self.last_heard[n] > self.hb_timeout {
                self.adopt(n)?;
            }
        }
        self.queue.push_after(self.hb_interval, Event::Sweep);
        Ok(())
    }

    /// Shard adoption with lineage replay: the lowest surviving node
    /// takes over every shard the dead node was responsible for.
    fn adopt(&mut self, dead: usize) -> Result<(), DistError> {
        self.buried[dead] = true;
        self.report.recoveries += 1;
        let Some(adopter) = (0..self.cluster.nnodes()).find(|&n| self.alive[n]) else {
            return Err(DistError::AllNodesCrashed);
        };
        let moved: Vec<usize> = (0..self.alias.len())
            .filter(|&q| self.alias[q] == dead)
            .collect();
        for &q in &moved {
            self.alias[q] = adopter;
        }
        let ncblk = self.ncblk();
        let mut to_ship: BTreeSet<usize> = BTreeSet::new();

        // Rebuild the dead host's outbound pair state first: unreleased
        // buffers were lost with it. A complete pair's members are all
        // FACTORED-checkpointed, so the rebuild reproduces the exact
        // payload; incomplete members re-accumulate when they re-run.
        for p in 0..self.pairs.len() {
            if !moved.contains(&self.pairs[p].src_node) || self.pstate[p].released {
                continue;
            }
            self.pstate[p].buf = None;
            self.pstate[p].send = SendState::new(self.max_send_attempts);
            self.pstate[p].epoch += 1;
            let members = self.pairs[p].members.clone();
            let mut remaining = 0usize;
            for (s, blocks) in &members {
                if self.done[*s] {
                    for &bi in blocks {
                        self.accumulate(p, *s, bi, adopter);
                    }
                } else {
                    remaining += 1;
                }
            }
            self.pstate[p].remaining = remaining;
            if remaining == 0 {
                to_ship.insert(p);
            }
        }

        // Restore the adopted panels: FACTORED checkpoints come back
        // verbatim; unfinished panels reset to INITIAL and replay their
        // lineage (completed shard-mates re-apply; retained remote pairs
        // are re-requested — Pull on the reliable control plane).
        for c in 0..ncblk {
            if !moved.contains(&self.node_of[c]) {
                continue;
            }
            if self.done[c] {
                let snap = self.factored[c]
                    .as_ref()
                    .expect("panel done without a FACTORED checkpoint");
                restore(self.analysis, self.tab, self.d, c, snap);
                continue;
            }
            restore(self.analysis, self.tab, self.d, c, &self.initial[c]);
            self.report.panels_restored += 1;
            self.queued[c] = false;
            for &p in &self.inbound[c] {
                self.log.forget_pair(p as u64);
            }
            self.pending[c] = self.direct_preds[c]
                .iter()
                .filter(|&&s| !self.done[s])
                .count() as u32
                + self.inbound[c].len() as u32;
            // Replay completed same-shard contributors immediately
            // (already excluded from the pending count above).
            let preds: Vec<usize> = self.direct_preds[c]
                .iter()
                .copied()
                .filter(|&s| self.done[s])
                .collect();
            let symbol = &self.analysis.symbol;
            for s in preds {
                let scb = &symbol.cblks[s];
                for bi in (scb.block_begin + 1)..scb.block_end {
                    if symbol.blocks[bi].facing == c {
                        self.ctx.update_task(s, bi, adopter);
                    }
                }
            }
            // Re-request every retained complete pair under a fresh
            // epoch (the old acked SendState must not suppress the
            // resend).
            for p in self.inbound[c].clone() {
                let st = &mut self.pstate[p];
                if st.remaining == 0 && !to_ship.contains(&p) {
                    st.send = SendState::new(self.max_send_attempts);
                    st.epoch += 1;
                    to_ship.insert(p);
                }
            }
        }
        if let Some(e) = self.ctx.take_error() {
            return Err(DistError::Solver(e));
        }
        for p in to_ship {
            self.ship(p)?;
        }
        for c in 0..ncblk {
            if moved.contains(&self.node_of[c]) {
                self.enqueue_if_ready(c);
            }
        }
        self.last_progress = self.queue.now();
        Ok(())
    }
}

/// Copy panel `c`'s live storage (L, Uᵀ, d-slice) into a snapshot.
fn snapshot<T: Scalar>(
    analysis: &Analysis,
    tab: &CoefTab<T>,
    d: &SharedSlice<T>,
    c: usize,
) -> Snapshot<T> {
    let symbol = &analysis.symbol;
    let cb = &symbol.cblks[c];
    let lpin = tab.pin_l_solve(symbol, c);
    // SAFETY: single-threaded simulation; no concurrent borrow.
    let l = unsafe { lpin.slice() }.to_vec();
    let u = tab.has_u().then(|| {
        let upin = tab.pin_u_solve(symbol, c);
        // SAFETY: as above.
        unsafe { upin.slice() }.to_vec()
    });
    let dr = if analysis.facto == FactoKind::Ldlt {
        // SAFETY: as above.
        unsafe { d.range(cb.fcol..cb.lcol) }.to_vec()
    } else {
        Vec::new()
    };
    Snapshot { l, u, d: dr }
}

/// Copy a snapshot back over panel `c`'s live storage.
fn restore<T: Scalar>(
    analysis: &Analysis,
    tab: &CoefTab<T>,
    d: &SharedSlice<T>,
    c: usize,
    snap: &Snapshot<T>,
) {
    let symbol = &analysis.symbol;
    let cb = &symbol.cblks[c];
    let lpin = tab.pin_l_solve(symbol, c);
    // SAFETY: single-threaded simulation; no concurrent borrow.
    unsafe { lpin.slice_mut() }.copy_from_slice(&snap.l);
    if let Some(us) = &snap.u {
        let upin = tab.pin_u_solve(symbol, c);
        // SAFETY: as above.
        unsafe { upin.slice_mut() }.copy_from_slice(us);
    }
    if analysis.facto == FactoKind::Ldlt {
        // SAFETY: as above.
        unsafe { d.range_mut(cb.fcol..cb.lcol) }.copy_from_slice(&snap.d);
    }
}

/// Distributed factorization of `a` over a simulated cluster: real
/// factors, virtual makespan, fault-tolerant fan-in protocol. A typed
/// [`DistError`] is returned whenever recovery is impossible — the
/// factors are never silently wrong.
pub fn factorize_dist<'a, T: Scalar>(
    analysis: &'a Analysis,
    a: &CscMatrix<T>,
    opts: &DistOptions,
) -> Result<(Factors<'a, T>, DistReport), DistError> {
    let symbol = &analysis.symbol;
    analysis.accepts(a).map_err(DistError::Solver)?;
    let tab = CoefTab::assemble(analysis, a);
    let d: SharedSlice<T> = SharedSlice::from_vec(vec![T::zero(); symbol.n]);
    let epsilon = opts
        .epsilon_override
        .unwrap_or(analysis.options.static_pivot_epsilon);
    let threshold = if analysis.facto == FactoKind::Cholesky {
        0.0
    } else {
        epsilon * a.norm_inf().max(1.0)
    };
    let ctx = NumericCtx::new(analysis, &tab, &d, threshold, opts.nnodes, None, None);
    let mut sim = Sim::new(analysis, &ctx, &tab, &d, opts);
    let outcome = sim.run();
    let mut report = std::mem::take(&mut sim.report);
    drop(sim);
    if let Some(e) = ctx.take_error() {
        return Err(DistError::Solver(e));
    }
    outcome?;
    let pivots = ctx.pivots();
    drop(ctx);
    report.makespan = report.makespan.max(0.0);
    Ok((
        Factors {
            analysis,
            tab,
            d: d.into_vec(),
            pivots_repaired: pivots,
            // The cluster runs in virtual time on this one thread.
            nthreads: 1,
            stats: FactorStats {
                epsilon,
                epsilon_history: vec![epsilon],
                attempts: 1,
                run: Default::default(),
            },
            trace: None,
        },
        report,
    ))
}

/// Statically verify the distributed task/message graph of `analysis`
/// over `nnodes` nodes: build [`dist_graph_spec`] and run the
/// happens-before race analysis. Returns the report for assertions.
pub fn check_dist_static(
    analysis: &Analysis,
    complex: bool,
    nnodes: usize,
) -> dagfact_rt::verify::StaticReport {
    check_static(&dist_graph_spec(analysis, complex, nnodes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::SolverOptions;
    use dagfact_sparse::gen::grid_laplacian_2d;

    fn analysis(facto: FactoKind) -> Analysis {
        let a = grid_laplacian_2d(12, 12);
        Analysis::new(a.pattern(), facto, &SolverOptions::default())
    }

    #[test]
    fn static_spec_is_clean_for_all_factos() {
        for facto in [FactoKind::Cholesky, FactoKind::Ldlt, FactoKind::Lu] {
            let an = analysis(facto);
            let report = check_dist_static(&an, false, 4);
            assert!(report.is_clean(), "{facto:?}: {report}");
        }
    }

    #[test]
    fn dropping_an_apply_edge_is_flagged_as_a_race() {
        let an = analysis(FactoKind::Cholesky);
        let mut spec = dist_graph_spec(&an, false, 4);
        let ncblk = an.symbol.ncblk();
        let study = crate::distributed::fan_in_study(&an, false, 4);
        let npairs = study.fan_in.messages as usize;
        assert!(npairs > 0, "need at least one cross-node pair");
        // Drop the first apply → target edge: the apply's accumulation
        // into the target panel is no longer ordered before the target's
        // own 1D task.
        let apply = ncblk + npairs;
        let accesses: Vec<_> = spec.accesses_of(apply).to_vec();
        let tgt = accesses
            .iter()
            .find(|(d, m)| *d < ncblk && *m == Mode::Accum)
            .map(|(d, _)| *d)
            .expect("apply task accumulates into its target panel");
        assert!(spec.remove_edge(apply, tgt));
        let report = check_static(&spec);
        assert!(!report.is_clean(), "missing message edge must be a race");
    }
}
