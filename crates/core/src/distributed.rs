//! Distributed-memory communication study — the paper's second
//! future-work item (§VI): "when a supernode updates another non-local
//! supernode, the update blocks are stored in a local extra-memory space
//! (this is called 'fan-in' approach \[32\]). By locally accumulating the
//! updates until the last updates to the supernode are available, we trade
//! bandwidth for latency."
//!
//! Given a [`proportional_mapping`] of panels onto nodes, this module
//! quantifies that trade: the message count and byte volume of the naive
//! *fan-out* strategy (each cross-node update shipped immediately) versus
//! the *fan-in* strategy (contributions to one remote panel accumulated
//! locally and shipped once).
//!
//! It is a prediction from the symbolic structure alone: nothing here
//! executes a factorization over several nodes.

use crate::analysis::Analysis;
use dagfact_rt::Json;
use dagfact_symbolic::mapping::NodeMapping;
use dagfact_symbolic::proportional_mapping;
use std::collections::HashMap;

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
/// enumerate the fan-in pairs of that mapping.
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

/// Communication volume of one distribution strategy.
#[derive(Debug, Clone)]
pub struct CommStats {
    /// Total cross-node messages.
    pub messages: u64,
    /// Total bytes on the wire.
    pub bytes: f64,
    /// Bytes sent per node.
    pub sent_per_node: Vec<f64>,
    /// Extra local accumulation memory per node (fan-in buffers; zero for
    /// fan-out).
    pub buffer_bytes_per_node: Vec<f64>,
}

/// Both strategies side by side.
#[derive(Debug, Clone)]
pub struct FanInStudy {
    /// The node mapping used.
    pub mapping: NodeMapping,
    /// Ship-every-update strategy.
    pub fan_out: CommStats,
    /// Accumulate-then-ship strategy.
    pub fan_in: CommStats,
}

/// Analyze the communication of distributing this factorization over
/// `nnodes` nodes (proportional mapping), for real (`complex = false`) or
/// complex scalars.
pub fn fan_in_study(analysis: &Analysis, complex: bool, nnodes: usize) -> FanInStudy {
    let (mapping, pairs) = build_pairs(analysis, complex, nnodes);
    let zero = || CommStats {
        messages: 0,
        bytes: 0.0,
        sent_per_node: vec![0.0; nnodes],
        buffer_bytes_per_node: vec![0.0; nnodes],
    };
    let (mut fan_out, mut fan_in) = (zero(), zero());
    // One pair = everything one node contributes to one remote panel:
    // fan-out ships each contribution block as it is produced, fan-in
    // ships the pair's accumulation buffer once.
    for pair in pairs {
        let blocks: usize = pair.members.iter().map(|(_, blocks)| blocks.len()).sum();
        fan_out.messages += blocks as u64;
        fan_out.bytes += pair.contrib_bytes;
        fan_out.sent_per_node[pair.src_node] += pair.contrib_bytes;
        fan_in.messages += 1;
        fan_in.bytes += pair.bytes;
        fan_in.sent_per_node[pair.src_node] += pair.bytes;
        fan_in.buffer_bytes_per_node[pair.src_node] += pair.bytes;
    }
    FanInStudy {
        mapping,
        fan_out,
        fan_in,
    }
}

fn stats_json(s: &CommStats) -> Json {
    Json::obj()
        .field("messages", s.messages)
        .field("bytes", s.bytes)
        .field("sent_per_node", s.sent_per_node.clone())
        .field("buffer_bytes_per_node", s.buffer_bytes_per_node.clone())
}

/// The study record for one matrix in `results/comm.json`: fan-out vs
/// fan-in traffic predicted by [`fan_in_study`] at each width in `nodes`
/// — one shape, whether `dagfact dist --output` or the `comm` bench
/// binary writes it.
pub fn comm_study_json(name: &str, analysis: &Analysis, complex: bool, nodes: &[usize]) -> Json {
    let width = |&nnodes: &usize| {
        let study = fan_in_study(analysis, complex, nnodes);
        Json::obj()
            .field("nnodes", nnodes)
            .field("work_per_node", study.mapping.work)
            .field("fan_out", stats_json(&study.fan_out))
            .field("fan_in", stats_json(&study.fan_in))
    };
    Json::obj()
        .field("matrix", name)
        .field("facto", analysis.facto.label())
        .field("panels", analysis.symbol.ncblk())
        .field("widths", nodes.iter().map(width).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::SolverOptions;
    use dagfact_sparse::gen::grid_laplacian_3d;
    use dagfact_symbolic::FactoKind;

    fn analysis() -> Analysis {
        let a = grid_laplacian_3d(14, 14, 14);
        Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default())
    }

    #[test]
    fn single_node_has_no_communication() {
        let study = fan_in_study(&analysis(), false, 1);
        assert_eq!(study.fan_out.messages, 0);
        assert_eq!(study.fan_in.messages, 0);
        assert_eq!(study.fan_out.bytes, 0.0);
    }

    #[test]
    fn fan_in_never_sends_more_than_fan_out() {
        let an = analysis();
        for nnodes in [2usize, 4, 8] {
            let study = fan_in_study(&an, false, nnodes);
            assert!(study.fan_out.messages > 0, "{nnodes} nodes: no comm at all?");
            assert!(
                study.fan_in.messages < study.fan_out.messages,
                "{nnodes} nodes: fan-in must cut message count"
            );
            assert!(study.fan_in.bytes <= study.fan_out.bytes + 1e-9);
            // Fan-in pays with accumulation buffers.
            let buffers: f64 = study.fan_in.buffer_bytes_per_node.iter().sum();
            assert!(buffers > 0.0);
        }
    }

    #[test]
    fn communication_grows_with_node_count() {
        let an = analysis();
        let s2 = fan_in_study(&an, false, 2);
        let s8 = fan_in_study(&an, false, 8);
        assert!(s8.fan_out.bytes > s2.fan_out.bytes);
    }

    /// A second opinion on the pair enumeration, by brute force over the
    /// block structure: fan-out sends one message per off-diagonal block
    /// whose facing panel lives on another node, fan-in one per distinct
    /// (facing panel, source node).
    #[test]
    fn message_counts_match_a_brute_force_walk_of_the_blocks() {
        let problems = [
            (grid_laplacian_3d(9, 9, 9), FactoKind::Cholesky),
            (dagfact_sparse::gen::shifted_laplacian_3d(8, 8, 8, 1.0), FactoKind::Ldlt),
            (dagfact_sparse::gen::convection_diffusion_3d(9, 9, 8, 0.3), FactoKind::Lu),
        ];
        for (a, facto) in problems {
            let an = Analysis::new(a.pattern(), facto, &SolverOptions::default());
            let symbol = &an.symbol;
            for nnodes in [1usize, 2, 4, 8] {
                let study = fan_in_study(&an, false, nnodes);
                let node_of = &study.mapping.node_of;
                let mut fan_out = 0u64;
                let mut pairs = std::collections::BTreeSet::new();
                for c in 0..symbol.ncblk() {
                    for b in symbol.off_blocks(c) {
                        if node_of[b.facing] != node_of[c] {
                            fan_out += 1;
                            pairs.insert((b.facing, node_of[c]));
                        }
                    }
                }
                let what = format!("{facto:?} on {nnodes} node(s)");
                assert_eq!(study.fan_out.messages, fan_out, "{what}: fan-out");
                assert_eq!(study.fan_in.messages, pairs.len() as u64, "{what}: fan-in");
                assert_eq!(nnodes == 1, fan_out == 0, "{what}: traffic iff several nodes");
            }
        }
    }

    #[test]
    fn complex_lu_doubles_scalar_traffic() {
        let a = dagfact_sparse::gen::convection_diffusion_3d(10, 10, 10, 0.3);
        let an = Analysis::new(a.pattern(), FactoKind::Lu, &SolverOptions::default());
        let d = fan_in_study(&an, false, 4);
        let z = fan_in_study(&an, true, 4);
        // Same message pattern, 2x the bytes (8→16 bytes per scalar).
        assert_eq!(d.fan_out.messages, z.fan_out.messages);
        assert!((z.fan_out.bytes / d.fan_out.bytes - 2.0).abs() < 1e-9);
    }
}
