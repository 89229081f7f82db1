//! Cluster substrate: N hybrid nodes + a network, and the deterministic
//! min-heap event queue that drives discrete-event simulations over them.
//!
//! The single-node [`Platform`](crate::platform::Platform) models the
//! paper's Mirage machine; a [`ClusterPlatform`] is simply N of those
//! connected by a network link whose latency/bandwidth are modeled with
//! the same [`LinkModel`](crate::platform::LinkModel) abstraction as the
//! PCIe lanes (ROADMAP item 3: "network links with latency/bandwidth
//! alongside the existing PCIe model").
//!
//! [`EventQueue`] is the core of both event loops — the single-node GPU
//! simulator ([`crate::engine`]) and the cluster simulation: a binary
//! min-heap of `(virtual time, sequence number, payload)` entries. The sequence
//! number breaks time ties in insertion order, so a simulation that
//! schedules the same events always pops them in the same order — the
//! determinism the chaos sweeps rely on (same seed → same schedule →
//! same faults → same recovery, independent of the host machine).

use crate::platform::{LinkModel, Platform};
use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;

/// N simulated hybrid nodes connected by a network.
#[derive(Debug, Clone)]
pub struct ClusterPlatform {
    /// Per-node machine description (cores, GPUs, PCIe links).
    pub nodes: Vec<Platform>,
    /// Inter-node network link (shared model for every pair; the
    /// simulation charges one traversal per message).
    pub network: LinkModel,
}

impl ClusterPlatform {
    /// A homogeneous cluster of `nnodes` Mirage-style nodes with `cores`
    /// CPU cores and `ngpus` GPUs each, connected by an
    /// InfiniBand-flavoured network (12 GB/s, 1.5 µs — an order of
    /// magnitude more latency than the PCIe model, as on real clusters).
    pub fn homogeneous(nnodes: usize, cores: usize, ngpus: usize) -> ClusterPlatform {
        assert!(nnodes >= 1, "a cluster needs at least one node");
        ClusterPlatform {
            nodes: vec![Platform::mirage(cores, ngpus); nnodes],
            network: LinkModel {
                bandwidth_gbps: 12.0,
                latency: 1.5e-6,
            },
        }
    }

    /// Number of nodes.
    pub fn nnodes(&self) -> usize {
        self.nodes.len()
    }

    /// Network transfer time for a `bytes`-sized message.
    pub fn net_time(&self, bytes: f64) -> f64 {
        self.network.time(bytes)
    }
}

/// One scheduled event: fires at `time`, ties broken by insertion order.
struct Entry<E> {
    time: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == CmpOrdering::Equal
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event
        // (then the lowest sequence number) on top. total_cmp keeps the
        // order total even if a cost model ever produces a NaN time.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Deterministic discrete-event min-heap keyed by `(time, seq)`.
///
/// Popping yields events in nondecreasing virtual time; simultaneous
/// events come out in the order they were pushed. Virtual time never
/// runs backwards from the *consumer's* perspective as long as handlers
/// only schedule into the future (enforced by [`EventQueue::push_at`]'s
/// clamp against the last popped time).
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: f64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Empty queue at virtual time zero.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: 0.0,
        }
    }

    /// Current virtual time (the timestamp of the last popped event).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedule `event` at absolute time `at`, clamped to the current
    /// virtual time so a handler rounding below `now` cannot make the
    /// clock run backwards.
    pub fn push_at(&mut self, at: f64, event: E) {
        let time = if at.is_finite() { at.max(self.now) } else { self.now };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Schedule `event` after a `delay` relative to the current time.
    pub fn push_after(&mut self, delay: f64, event: E) {
        self.push_at(self.now + delay.max(0.0), event);
    }

    /// Pop the earliest event and advance the virtual clock to it.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let e = self.heap.pop()?;
        self.now = e.time;
        Some((e.time, e.event))
    }

    /// Pending event count.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Is the queue drained?
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_cluster_matches_inventory() {
        let c = ClusterPlatform::homogeneous(4, 12, 2);
        assert_eq!(c.nnodes(), 4);
        assert_eq!(c.nodes[0].cores, 12);
        assert_eq!(c.nodes[3].gpus.len(), 2);
        // Network latency dominates PCIe latency but bandwidth is higher
        // than one PCIe 2.0 link — the classic cluster trade.
        assert!(c.network.latency < c.nodes[0].link.latency * 1000.0);
        assert!(c.network.bandwidth_gbps > c.nodes[0].link.bandwidth_gbps);
    }

    #[test]
    fn net_time_includes_latency_and_bandwidth() {
        let c = ClusterPlatform::homogeneous(2, 1, 0);
        let small = c.net_time(0.0);
        assert!((small - c.network.latency).abs() < 1e-12);
        let big = c.net_time(12e9);
        assert!((big - 1.0 - c.network.latency).abs() < 1e-9);
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.push_at(3.0, "c");
        q.push_at(1.0, "a");
        q.push_at(2.0, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..64 {
            q.push_at(1.0, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..64).collect::<Vec<_>>(), "FIFO within a tick");
    }

    #[test]
    fn clock_is_monotone_even_with_past_pushes() {
        let mut q = EventQueue::new();
        q.push_at(5.0, "later");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, 5.0);
        assert_eq!(q.now(), 5.0);
        // A handler scheduling "into the past" is clamped to now.
        q.push_at(1.0, "past");
        q.push_after(-3.0, "negative-delay");
        let (t1, _) = q.pop().unwrap();
        let (t2, _) = q.pop().unwrap();
        assert_eq!(t1, 5.0);
        assert_eq!(t2, 5.0);
        // NaN times (a broken cost model) clamp instead of corrupting
        // the heap order.
        q.push_at(f64::NAN, "nan");
        assert_eq!(q.pop().unwrap().0, 5.0);
    }

    #[test]
    fn identical_schedules_replay_identically() {
        let run = || {
            let mut q = EventQueue::new();
            let mut log = Vec::new();
            q.push_at(0.5, 100u32);
            q.push_at(0.5, 200);
            q.push_at(0.25, 300);
            while let Some((t, e)) = q.pop() {
                log.push((t.to_bits(), e));
                if e == 300 {
                    q.push_after(0.25, 400);
                }
            }
            log
        };
        assert_eq!(run(), run(), "same schedule must replay bit-identically");
    }
}
