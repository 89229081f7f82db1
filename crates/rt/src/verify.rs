//! `dagfact-verify`: static verification of engine task graphs.
//!
//! The whole numeric layer hands aliasable mutable storage
//! ([`crate::shared::SharedSlice`]) to concurrently running tasks and
//! relies on the engines' dependency edges to keep conflicting accesses
//! apart. This module turns that trust into a checked contract:
//! [`check_static`] runs a race/deadlock analysis over a [`GraphSpec`] — a
//! uniform happens-before description extracted from any runnable graph
//! ([`GraphSpec::from_dag`] evaluates a [`PtgProgram`]'s successor
//! function — the one the executor calls — and the caller declares each
//! task's accesses). Every pair of tasks touching the same datum with a
//! conflicting mode must be transitively ordered by edges; cycles,
//! dangling edges, self-edges and duplicate edges are reported too, and so
//! is a task whose declared predecessor count is not its in-degree (the
//! executor never releases a task counted too high and underflows on one
//! counted too low). A clean report means *no schedule* of the DAG can
//! race or deadlock.
//!
//! `dagfact-core` builds the spec from an `Analysis` and checks it in
//! `Analysis::verify_task_graph` and the `dagfact verify` CLI command.

use crate::ptg::PtgProgram;
use crate::{DataId, TaskId};
use std::fmt;

/// How a task touches a datum: StarPU-style access modes, declared per
/// task by the program's owner (`dagfact-core`'s `TaskKind::accesses`)
/// and checked by the verifier. There is no commutative-accumulation
/// mode: the factorization orders every writer of a panel by a chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Read-only.
    Read,
    /// Read-modify-write (exclusive).
    ReadWrite,
}

impl Mode {
    /// Do two accesses in these modes require a happens-before edge?
    pub fn conflicts_with(self, other: Mode) -> bool {
        self.writes() || other.writes()
    }

    /// Does the access modify the datum?
    pub fn writes(self) -> bool {
        self == Mode::ReadWrite
    }

    /// Conservative merge of two accesses by the *same task* to the same
    /// datum.
    fn merge(self, other: Mode) -> Mode {
        if self == other {
            self
        } else {
            Mode::ReadWrite
        }
    }
}

/// Engine-independent description of a task graph: tasks, happens-before
/// edges, per-task data accesses and, when extracted from a program, each
/// task's declared predecessor count.
///
/// Task ids are the dense range `0..ntasks`. Edges may be recorded
/// verbatim (including duplicates, self-edges, or out-of-range endpoints);
/// [`check_static`] classifies and reports the malformed ones instead of
/// panicking, so the verifier can describe a broken graph rather than die
/// on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphSpec {
    ntasks: usize,
    ndata: usize,
    accesses: Vec<Vec<(DataId, Mode)>>,
    edges: Vec<(TaskId, TaskId)>,
    /// `num_predecessors` per task ([`GraphSpec::from_dag`]; empty when
    /// the edges were recorded by hand).
    npred: Vec<u32>,
}

impl GraphSpec {
    /// Empty spec over `ntasks` tasks.
    pub fn new(ntasks: usize) -> GraphSpec {
        GraphSpec {
            ntasks,
            ndata: 0,
            accesses: vec![Vec::new(); ntasks],
            edges: Vec::new(),
            npred: Vec::new(),
        }
    }

    /// Number of tasks.
    pub fn ntasks(&self) -> usize {
        self.ntasks
    }

    /// Number of data handles (1 + the largest recorded `DataId`).
    pub fn ndata(&self) -> usize {
        self.ndata
    }

    /// Number of recorded edges (raw, before deduplication).
    pub fn nedges(&self) -> usize {
        self.edges.len()
    }

    /// Record that `task` touches datum `data` in `mode`.
    pub fn access(&mut self, task: TaskId, data: DataId, mode: Mode) {
        assert!(task < self.ntasks, "access on unknown task {task}");
        self.ndata = self.ndata.max(data + 1);
        self.accesses[task].push((data, mode));
    }

    /// Accesses recorded for `task`.
    pub fn accesses_of(&self, task: TaskId) -> &[(DataId, Mode)] {
        &self.accesses[task]
    }

    /// Record a happens-before edge `pred → succ` (kept verbatim;
    /// [`check_static`] flags malformed edges).
    pub fn edge(&mut self, pred: TaskId, succ: TaskId) {
        self.edges.push((pred, succ));
    }

    /// Remove every copy of the edge `pred → succ`; returns whether any
    /// was present. Exists so tests can *break* a graph deliberately and
    /// assert the verifier notices.
    pub fn remove_edge(&mut self, pred: TaskId, succ: TaskId) -> bool {
        let before = self.edges.len();
        self.edges.retain(|&e| e != (pred, succ));
        self.edges.len() != before
    }

    /// Extract the happens-before relation of a DAG by evaluating its
    /// successor function over the dense task range, and record its
    /// predecessor counts (accesses must be added by the caller; the trait
    /// only carries structure).
    pub fn from_dag<D: PtgProgram>(dag: &D) -> GraphSpec {
        let n = dag.num_tasks();
        let mut spec = GraphSpec::new(n);
        let mut buf = Vec::new();
        for t in 0..n {
            buf.clear();
            dag.successors(t, &mut buf);
            for &s in &buf {
                spec.edge(t, s);
            }
        }
        spec.npred = (0..n).map(|t| dag.num_predecessors(t)).collect();
        spec
    }

    /// Per-task accesses with duplicates on the same datum merged
    /// (conservatively to [`Mode::ReadWrite`] when modes differ).
    fn merged_accesses(&self, task: TaskId) -> Vec<(DataId, Mode)> {
        let mut list = self.accesses[task].clone();
        list.sort_unstable_by_key(|&(d, _)| d);
        let mut out: Vec<(DataId, Mode)> = Vec::with_capacity(list.len());
        for (d, m) in list {
            match out.last_mut() {
                Some((ld, lm)) if *ld == d => *lm = lm.merge(m),
                _ => out.push((d, m)),
            }
        }
        out
    }
}

/// An unordered pair of conflicting accesses found by [`check_static`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticRace {
    /// Datum both tasks touch.
    pub data: DataId,
    /// Topologically earlier task.
    pub first: TaskId,
    /// Topologically later task.
    pub second: TaskId,
    /// Access mode of `first`.
    pub first_mode: Mode,
    /// Access mode of `second`.
    pub second_mode: Mode,
}

/// Result of the static happens-before analysis.
#[derive(Debug, Clone)]
pub struct StaticReport {
    /// Task count of the analyzed spec.
    pub ntasks: usize,
    /// Distinct valid edges.
    pub nedges: usize,
    /// Conflicting task pairs with no happens-before path.
    pub races: Vec<StaticRace>,
    /// Tasks that can never become ready (on or behind a dependency
    /// cycle) — a non-empty list means the graph deadlocks.
    pub deadlocked: Vec<TaskId>,
    /// Edges whose endpoint is outside `0..ntasks`.
    pub dangling_edges: Vec<(TaskId, TaskId)>,
    /// Tasks with an edge to themselves.
    pub self_edges: Vec<TaskId>,
    /// Edges recorded more than once.
    pub duplicate_edges: Vec<(TaskId, TaskId)>,
    /// `(task, declared, in-degree)` for every task whose declared
    /// predecessor count is not the number of recorded edges into it.
    pub miscounted: Vec<(TaskId, u32, u32)>,
    /// Conflicting frontier pairs whose ordering was checked.
    pub pairs_checked: usize,
}

impl StaticReport {
    /// No races, no cycles, no malformed edges, no miscounted task.
    pub fn is_clean(&self) -> bool {
        self.races.is_empty()
            && self.deadlocked.is_empty()
            && self.dangling_edges.is_empty()
            && self.self_edges.is_empty()
            && self.duplicate_edges.is_empty()
            && self.miscounted.is_empty()
    }
}

impl fmt::Display for StaticReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} tasks, {} edges, {} ordered pairs checked: {} race(s), {} deadlocked, \
             {} dangling / {} self / {} duplicate edge(s), {} miscounted",
            self.ntasks,
            self.nedges,
            self.pairs_checked,
            self.races.len(),
            self.deadlocked.len(),
            self.dangling_edges.len(),
            self.self_edges.len(),
            self.duplicate_edges.len(),
            self.miscounted.len(),
        )?;
        if let Some((t, declared, indegree)) = self.miscounted.first() {
            write!(f, " (first: task {t} counts {declared} predecessor(s), its in-degree is {indegree})")?;
        }
        Ok(())
    }
}

/// Reachability oracle over the DAG: direct-edge fast path (the engines
/// chain conflicting accesses with direct edges, so almost every query
/// hits it) plus a backward BFS pruned by topological position.
struct Reach<'g> {
    succs: &'g [Vec<TaskId>],
    preds: &'g [Vec<TaskId>],
    pos: &'g [usize],
    stamp: Vec<u32>,
    round: u32,
    stack: Vec<TaskId>,
}

impl Reach<'_> {
    /// Is there a path `u → … → v`? Caller guarantees `pos[u] < pos[v]`.
    fn ordered(&mut self, u: TaskId, v: TaskId) -> bool {
        if self.succs[u].binary_search(&v).is_ok() {
            return true;
        }
        self.round += 1;
        self.stack.clear();
        self.stack.push(v);
        self.stamp[v] = self.round;
        while let Some(x) = self.stack.pop() {
            for &p in &self.preds[x] {
                if p == u {
                    return true;
                }
                // Only nodes strictly between u and v can lie on a path.
                if self.pos[p] > self.pos[u] && self.stamp[p] != self.round {
                    self.stamp[p] = self.round;
                    self.stack.push(p);
                }
            }
        }
        false
    }
}

const UNREACHED: usize = usize::MAX;

/// Kahn topological sort over a clean adjacency; returns the order and
/// per-task positions (`UNREACHED` for tasks behind a cycle).
fn topo_order(succs: &[Vec<TaskId>], npred: &[u32]) -> (Vec<TaskId>, Vec<usize>) {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let n = succs.len();
    let mut remaining = npred.to_vec();
    let mut order = Vec::with_capacity(n);
    let mut pos = vec![UNREACHED; n];
    // Smallest ready id first: deterministic positions, and race reports
    // attribute the pair in natural (submission) task order.
    let mut queue: BinaryHeap<Reverse<TaskId>> =
        (0..n).filter(|&t| remaining[t] == 0).map(Reverse).collect();
    while let Some(Reverse(t)) = queue.pop() {
        pos[t] = order.len();
        order.push(t);
        for &s in &succs[t] {
            remaining[s] -= 1;
            if remaining[s] == 0 {
                queue.push(Reverse(s));
            }
        }
    }
    (order, pos)
}

/// Per-datum frontier during the static sweep: the accesses a new access
/// must be ordered against. Checking only frontier members suffices —
/// anything older is ordered against the frontier by the same invariant,
/// and happens-before composes.
#[derive(Default, Clone)]
struct Frontier {
    writer: Option<(TaskId, Mode)>,
    readers: Vec<TaskId>,
}

/// Statically verify a [`GraphSpec`]: race-freedom (every conflicting
/// access pair transitively ordered), deadlock-freedom (no cycles),
/// well-formedness (no dangling / self / duplicate edges) and, for a
/// spec extracted from a program, predecessor counts equal to in-degrees.
pub fn check_static(spec: &GraphSpec) -> StaticReport {
    let n = spec.ntasks;
    // 1) Classify edges; the in-degree counts each recorded edge into a
    //    task once, as the executor's release does.
    let mut dangling_edges = Vec::new();
    let mut self_edges = Vec::new();
    let mut succs: Vec<Vec<TaskId>> = vec![Vec::new(); n];
    let mut indegree = vec![0u32; n];
    for &(p, s) in &spec.edges {
        if let Some(d) = indegree.get_mut(s) {
            *d += 1;
        }
        if p >= n || s >= n {
            dangling_edges.push((p, s));
        } else if p == s {
            self_edges.push(p);
        } else {
            succs[p].push(s);
        }
    }
    self_edges.sort_unstable();
    self_edges.dedup();
    let miscounted = (spec.npred.iter().zip(&indegree).enumerate())
        .filter(|(_, (np, d))| np != d)
        .map(|(t, (&np, &d))| (t, np, d))
        .collect();
    let mut duplicate_edges = Vec::new();
    for (p, list) in succs.iter_mut().enumerate() {
        list.sort_unstable();
        let mut i = 0;
        while i + 1 < list.len() {
            if list[i] == list[i + 1] {
                duplicate_edges.push((p, list[i]));
                while i + 1 < list.len() && list[i] == list[i + 1] {
                    list.remove(i + 1);
                }
            }
            i += 1;
        }
    }
    let mut preds: Vec<Vec<TaskId>> = vec![Vec::new(); n];
    let mut npred = vec![0u32; n];
    let mut nedges = 0usize;
    for (p, list) in succs.iter().enumerate() {
        nedges += list.len();
        for &s in list {
            preds[s].push(p);
            npred[s] += 1;
        }
    }

    // 2) Cycle / reachability analysis.
    let (order, pos) = topo_order(&succs, &npred);
    let deadlocked: Vec<TaskId> = (0..n).filter(|&t| pos[t] == UNREACHED).collect();

    // 3) Frontier sweep for race detection (only over schedulable tasks;
    //    a deadlocked graph is already rejected above).
    let mut reach = Reach {
        succs: &succs,
        preds: &preds,
        pos: &pos,
        stamp: vec![0; n],
        round: 0,
        stack: Vec::new(),
    };
    let mut frontier: Vec<Frontier> = vec![Frontier::default(); spec.ndata];
    let mut races = Vec::new();
    let mut pairs_checked = 0usize;
    for &t in &order {
        for (d, mode) in spec.merged_accesses(t) {
            let fr = std::mem::take(&mut frontier[d]);
            let mut check = |earlier: TaskId, em: Mode, reach: &mut Reach<'_>| {
                pairs_checked += 1;
                if !reach.ordered(earlier, t) {
                    races.push(StaticRace {
                        data: d,
                        first: earlier,
                        second: t,
                        first_mode: em,
                        second_mode: mode,
                    });
                }
            };
            if let Some((w, wm)) = fr.writer {
                if mode.conflicts_with(wm) {
                    check(w, wm, &mut reach);
                }
            }
            if mode.conflicts_with(Mode::Read) {
                for &r in &fr.readers {
                    check(r, Mode::Read, &mut reach);
                }
            }
            let mut fr = fr;
            match mode {
                Mode::Read => fr.readers.push(t),
                Mode::ReadWrite => {
                    fr.writer = Some((t, mode));
                    fr.readers.clear();
                }
            }
            frontier[d] = fr;
        }
    }
    races.sort_unstable_by_key(|r: &StaticRace| (r.data, r.first, r.second));
    races.dedup_by_key(|r: &mut StaticRace| (r.data, r.first, r.second));

    StaticReport {
        ntasks: n,
        nedges,
        races,
        deadlocked,
        dangling_edges,
        self_edges,
        duplicate_edges,
        miscounted,
        pairs_checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Chain 0→1→2 writing one datum: clean under every check.
    fn chain_spec() -> GraphSpec {
        let mut spec = GraphSpec::new(3);
        for t in 0..3 {
            spec.access(t, 0, Mode::ReadWrite);
        }
        spec.edge(0, 1);
        spec.edge(1, 2);
        spec
    }

    #[test]
    fn clean_chain_passes_static() {
        let report = check_static(&chain_spec());
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.nedges, 2);
        assert_eq!(report.pairs_checked, 2);
    }

    #[test]
    fn transitive_order_is_accepted() {
        // 0→1→2 but 0 and 2 share the datum; 1 does not touch it. The
        // frontier keeps 0 as last writer and must find the 0→1→2 path.
        let mut spec = GraphSpec::new(3);
        spec.access(0, 0, Mode::ReadWrite);
        spec.access(2, 0, Mode::ReadWrite);
        spec.edge(0, 1);
        spec.edge(1, 2);
        let report = check_static(&spec);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn dropped_edge_is_a_static_race() {
        let mut spec = chain_spec();
        assert!(spec.remove_edge(1, 2));
        let report = check_static(&spec);
        assert_eq!(report.races.len(), 1);
        let race = &report.races[0];
        assert_eq!((race.data, race.first, race.second), (0, 1, 2));
    }

    #[test]
    fn read_read_needs_no_order() {
        let mut spec = GraphSpec::new(3);
        spec.access(0, 0, Mode::ReadWrite);
        spec.access(1, 0, Mode::Read);
        spec.access(2, 0, Mode::Read);
        spec.edge(0, 1);
        spec.edge(0, 2);
        assert!(check_static(&spec).is_clean());
    }

    #[test]
    fn cycle_is_reported_as_deadlock() {
        let mut spec = GraphSpec::new(3);
        spec.edge(0, 1);
        spec.edge(1, 2);
        spec.edge(2, 1); // 1 ⇄ 2 cycle
        let report = check_static(&spec);
        assert_eq!(report.deadlocked, vec![1, 2]);
        assert!(!report.is_clean());
    }

    #[test]
    fn malformed_edges_are_classified() {
        let mut spec = GraphSpec::new(2);
        spec.edge(0, 1);
        spec.edge(0, 1); // duplicate
        spec.edge(1, 1); // self
        spec.edge(0, 7); // dangling
        let report = check_static(&spec);
        assert_eq!(report.duplicate_edges, vec![(0, 1)]);
        assert_eq!(report.self_edges, vec![1]);
        assert_eq!(report.dangling_edges, vec![(0, 7)]);
        assert_eq!(report.nedges, 1);
    }

    #[test]
    fn spec_extraction_from_a_dag() {
        /// A 3-chain whose task `overcount` declares one predecessor too
        /// many.
        struct Chain {
            overcount: Option<usize>,
        }
        impl PtgProgram for Chain {
            fn num_tasks(&self) -> usize {
                3
            }
            fn num_predecessors(&self, t: usize) -> u32 {
                u32::from(t > 0) + u32::from(self.overcount == Some(t))
            }
            fn successors(&self, t: usize, out: &mut Vec<usize>) {
                if t + 1 < 3 {
                    out.push(t + 1);
                }
            }
            fn execute(&self, _: usize, _: usize) {}
        }
        let spec_of = |overcount| {
            let mut spec = GraphSpec::from_dag(&Chain { overcount });
            for t in 0..3 {
                spec.access(t, 0, Mode::ReadWrite);
            }
            spec
        };
        let spec = spec_of(None);
        assert!(check_static(&spec).is_clean());
        assert_eq!(spec.nedges(), 2);
        let report = check_static(&spec_of(Some(1)));
        assert_eq!(report.miscounted, vec![(1, 2, 1)]);
        assert!(!report.is_clean());
        assert!(report.to_string().contains("task 1 counts 2 predecessor(s), its in-degree is 1"), "{report}");
    }
}
