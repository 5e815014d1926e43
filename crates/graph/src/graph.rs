//! Graphs: ordered, annotated operator sequences.

use std::cell::RefCell;
use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::{Op, OpCategory};

/// Formats a module path straight into the `Arc<str>` a [`Node`] holds,
/// e.g. `g.push(node_path!("{block}.attn"), op)`. The text goes through
/// a reused thread-local buffer, so a path costs one allocation where
/// `format!` plus the conversion to `Arc<str>` costs two.
#[macro_export]
macro_rules! node_path {
    ($($arg:tt)*) => {
        $crate::shared_path(::std::format_args!($($arg)*))
    };
}

/// The formatter behind [`node_path!`]: renders `args` into a reused
/// buffer and copies the result into a fresh `Arc<str>`.
#[must_use]
pub fn shared_path(args: fmt::Arguments<'_>) -> Arc<str> {
    thread_local! {
        static BUF: RefCell<String> = const { RefCell::new(String::new()) };
    }
    BUF.with(|buf| {
        let mut buf = buf.borrow_mut();
        buf.clear();
        buf.write_fmt(args).expect("formatting into a String cannot fail");
        Arc::from(buf.as_str())
    })
}

/// One operator plus the module path it came from.
///
/// Module paths mirror the paper's profiling methodology of hooking module
/// `forward` functions — e.g. `"unet.down.1.self_attn"` — so GPU kernels
/// can be attributed back to model components.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Dotted module path, shared (`Arc`) with every profile event and
    /// span recorded for this node.
    pub path: Arc<str>,
    /// The operator.
    pub op: Op,
}

/// Running 128-bit fingerprint of an op sequence.
///
/// Two 64-bit lanes each absorb every word an [`Op`] hashes through a
/// step that is a bijection of the lane state (xor, odd multiply,
/// xor-shift), with different constants per lane. Because each step is
/// a bijection, two sequences of equal length that differ in a single
/// op always end in different states; any other collision needs both
/// lanes to collide at once. `Op`'s hash writes a discriminant and then
/// a fixed set of fields for that variant, so the word stream parses
/// back into ops unambiguously.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OpSeqHasher {
    lanes: [u64; 2],
}

impl OpSeqHasher {
    const SEED: OpSeqHasher = OpSeqHasher { lanes: [0x243F_6A88_85A3_08D3, 0x1319_8A2E_0370_7344] };

    fn value(self) -> u128 {
        (u128::from(self.lanes[0]) << 64) | u128::from(self.lanes[1])
    }
}

impl Hasher for OpSeqHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.write_usize(bytes.len());
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn write_u64(&mut self, x: u64) {
        let [a, b] = &mut self.lanes;
        *a = (*a ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        *a ^= *a >> 32;
        *b = (*b ^ x).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        *b ^= *b >> 29;
    }

    fn finish(&self) -> u64 {
        self.lanes[0] ^ self.lanes[1]
    }
}

/// An ordered operator sequence — the single-stream execution trace of one
/// forward pass (or one pipeline stage).
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    nodes: Vec<Node>,
    /// Fingerprint of `nodes`' ops, updated on every append.
    ops: OpSeqHasher,
}

impl Default for Graph {
    fn default() -> Self {
        Graph { nodes: Vec::new(), ops: OpSeqHasher::SEED }
    }
}

impl Graph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        Graph::default()
    }

    /// Appends an operator under a module path.
    pub fn push(&mut self, path: impl Into<Arc<str>>, op: Op) {
        self.push_node(Node { path: path.into(), op });
    }

    fn push_node(&mut self, node: Node) {
        node.op.hash(&mut self.ops);
        self.nodes.push(node);
    }

    /// Appends all nodes of another graph, prefixing their paths.
    pub fn extend_prefixed(&mut self, prefix: &str, other: &Graph) {
        self.nodes.reserve(other.len());
        for n in &other.nodes {
            self.push_node(Node { path: node_path!("{prefix}.{}", n.path), op: n.op.clone() });
        }
    }

    /// A 128-bit fingerprint of the op sequence, module paths excluded,
    /// kept up to date as the graph is built. Graphs with equal op
    /// sequences have equal fingerprints; together with [`Graph::len`] it
    /// keys whole-graph memoization, where two graphs that differ in any
    /// op must not share an entry.
    #[must_use]
    pub fn fingerprint(&self) -> u128 {
        self.ops.value()
    }

    /// The nodes in execution order.
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of operators.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no operators.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total FLOPs of one execution.
    #[must_use]
    pub fn total_flops(&self) -> u64 {
        self.nodes.iter().map(|n| n.op.flops()).sum()
    }

    /// Total trainable parameters (sums every node — callers building
    /// weight-shared loops should count parameters on the per-step graph
    /// once, not per iteration).
    #[must_use]
    pub fn param_count(&self) -> u64 {
        self.nodes.iter().map(|n| n.op.param_count()).sum()
    }

    /// FLOPs grouped by operator category.
    #[must_use]
    pub fn flops_by_category(&self) -> Vec<(OpCategory, u64)> {
        let mut acc: Vec<(OpCategory, u64)> =
            OpCategory::ALL.iter().map(|&c| (c, 0u64)).collect();
        for n in &self.nodes {
            let c = n.op.category();
            if let Some(slot) = acc.iter_mut().find(|(cat, _)| *cat == c) {
                slot.1 += n.op.flops();
            }
        }
        acc.retain(|(_, f)| *f > 0);
        acc
    }

    /// Iterator over attention nodes in call order — the Fig. 7 trace.
    pub fn attention_nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().filter(|n| matches!(n.op, Op::Attention { .. }))
    }
}

impl FromIterator<Node> for Graph {
    fn from_iter<T: IntoIterator<Item = Node>>(iter: T) -> Self {
        let mut g = Graph::new();
        g.extend(iter);
        g
    }
}

impl Extend<Node> for Graph {
    fn extend<T: IntoIterator<Item = Node>>(&mut self, iter: T) {
        for node in iter {
            self.push_node(node);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmg_attn::AttentionShape;
    use crate::AttnKind;

    fn sample() -> Graph {
        let mut g = Graph::new();
        g.push("proj", Op::Linear { tokens: 16, in_features: 8, out_features: 8 });
        g.push(
            "attn",
            Op::Attention {
                shape: AttentionShape::self_attn(1, 1, 16, 8),
                kind: AttnKind::SpatialSelf,
            },
        );
        g.push("act", Op::Activation { elems: 128, kind: crate::ActivationKind::Silu });
        g
    }

    #[test]
    fn push_and_len() {
        let g = sample();
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
        assert_eq!(&*g.nodes()[0].path, "proj");
    }

    #[test]
    fn totals_sum_nodes() {
        let g = sample();
        assert_eq!(
            g.total_flops(),
            g.nodes().iter().map(|n| n.op.flops()).sum::<u64>()
        );
        assert_eq!(g.param_count(), 64);
    }

    #[test]
    fn flops_by_category_drops_empty() {
        let g = sample();
        let by = g.flops_by_category();
        assert!(by.iter().any(|(c, _)| *c == OpCategory::Linear));
        assert!(by.iter().all(|(_, f)| *f > 0));
    }

    #[test]
    fn attention_nodes_filtered() {
        let g = sample();
        let attn: Vec<_> = g.attention_nodes().collect();
        assert_eq!(attn.len(), 1);
        assert_eq!(&*attn[0].path, "attn");
    }

    #[test]
    fn fingerprint_follows_ops_not_paths() {
        let g = sample();
        let mut renamed = Graph::new();
        for n in g.nodes() {
            renamed.push(format!("other.{}", n.path), n.op.clone());
        }
        assert_eq!(g.fingerprint(), renamed.fingerprint());
        let mut prefixed = Graph::new();
        prefixed.extend_prefixed("unet", &g);
        assert_eq!(g.fingerprint(), prefixed.fingerprint());
        let collected: Graph = g.nodes().iter().cloned().collect();
        assert_eq!(collected, g);
        assert_ne!(Graph::new().fingerprint(), g.fingerprint());
    }

    #[test]
    fn fingerprint_separates_op_sequences() {
        let g = sample();
        // One field of one op differs.
        let mut deep = Graph::new();
        for (i, n) in g.nodes().iter().enumerate() {
            let op = if i == 1 {
                Op::Attention {
                    shape: AttentionShape::self_attn(1, 1, 17, 8),
                    kind: AttnKind::SpatialSelf,
                }
            } else {
                n.op.clone()
            };
            deep.push(n.path.clone(), op);
        }
        assert_ne!(g.fingerprint(), deep.fingerprint());
        // The same ops in another order.
        let swapped: Graph = [1, 0, 2].iter().map(|&i| g.nodes()[i].clone()).collect();
        assert_ne!(g.fingerprint(), swapped.fingerprint());
        // Memcpy's float field is part of the identity.
        let memcpy = |amplification| {
            let mut m = Graph::new();
            m.push("m", Op::Memcpy { bytes: 64, amplification });
            m.fingerprint()
        };
        assert_ne!(memcpy(1.0), memcpy(1.25));
        // A prefix never shares the whole graph's fingerprint.
        let prefix: Graph = g.nodes()[..2].iter().cloned().collect();
        assert_ne!(prefix.fingerprint(), g.fingerprint());
    }

    #[test]
    fn extend_prefixed_rewrites_paths() {
        let mut g = Graph::new();
        g.extend_prefixed("unet.down", &sample());
        assert_eq!(&*g.nodes()[0].path, "unet.down.proj");
        assert_eq!(g.len(), 3);
    }
}
