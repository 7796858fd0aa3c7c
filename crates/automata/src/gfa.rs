//! Generalized finite automata (§5).
//!
//! A GFA is an `RE(Σ)`-labeled graph with distinguished source and sink; the
//! semantics reads every edge as carrying the regular expression of the node
//! it points to. A GFA is *single occurrence* when every label is a SORE and
//! the labels use pairwise disjoint symbols. The `rewrite` system of
//! `dtdinfer-core` operates on this structure; this module provides the
//! graph itself plus the ε-closure and `Pred`/`Succ` sets the rule
//! preconditions are stated over.

use crate::soa::Soa;
use dtdinfer_regex::alphabet::Sym;
use dtdinfer_regex::ast::Regex;
use std::collections::{BTreeMap, HashMap};

/// Identifier of a GFA node. `SOURCE` and `SINK` are reserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// The unique initial node (unlabeled).
pub const SOURCE: NodeId = NodeId(0);
/// The unique final node (unlabeled).
pub const SINK: NodeId = NodeId(1);

impl NodeId {
    /// Whether this is the source or sink.
    pub fn is_endpoint(self) -> bool {
        self == SOURCE || self == SINK
    }
}

/// A generalized finite automaton with RE-labeled states.
///
/// Edges are kept as bitset rows, one per allocated id and `stride` words
/// wide, for successors and (mirrored) predecessors; the rows of removed
/// ids are empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gfa {
    labels: BTreeMap<NodeId, Regex>,
    /// `u64` words per row: enough for every id below `next_id`.
    stride: usize,
    succ: Vec<u64>,
    pred: Vec<u64>,
    next_id: u32,
}

impl Default for Gfa {
    fn default() -> Self {
        Self::new()
    }
}

impl Gfa {
    /// An empty GFA with only source and sink.
    pub fn new() -> Self {
        Gfa {
            labels: BTreeMap::new(),
            stride: 1,
            succ: vec![0; 2],
            pred: vec![0; 2],
            next_id: 2,
        }
    }

    /// Converts an SOA into the equivalent single occurrence GFA (every SOA
    /// is a single occurrence GFA whose labels are alphabet symbols).
    /// Returns the GFA and the node assigned to each symbol.
    pub fn from_soa(soa: &Soa) -> (Self, HashMap<Sym, NodeId>) {
        let mut g = Gfa::new();
        let mut node_of = HashMap::new();
        for &s in &soa.states {
            node_of.insert(s, g.add_node(Regex::sym(s)));
        }
        for &s in &soa.initial {
            g.add_edge(SOURCE, node_of[&s]);
        }
        for &(a, b) in &soa.edges {
            g.add_edge(node_of[&a], node_of[&b]);
        }
        for &s in &soa.finals {
            g.add_edge(node_of[&s], SINK);
        }
        if soa.accepts_empty {
            g.add_edge(SOURCE, SINK);
        }
        (g, node_of)
    }

    /// Whether `id` is the source, the sink, or a live inner node.
    fn is_node(&self, id: NodeId) -> bool {
        id.is_endpoint() || self.labels.contains_key(&id)
    }

    /// Adds a labeled inner node.
    pub fn add_node(&mut self, label: Regex) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        let stride = (self.next_id as usize).div_ceil(64);
        if stride > self.stride {
            // Widen every row by the words the new id needs.
            let widen = |rows: &[u64]| -> Vec<u64> {
                rows.chunks(self.stride)
                    .flat_map(|row| {
                        row.iter()
                            .copied()
                            .chain(std::iter::repeat_n(0, stride - self.stride))
                    })
                    .collect()
            };
            self.succ = widen(&self.succ);
            self.pred = widen(&self.pred);
            self.stride = stride;
        }
        self.succ.resize(self.next_id as usize * self.stride, 0);
        self.pred.resize(self.next_id as usize * self.stride, 0);
        self.labels.insert(id, label);
        id
    }

    /// Adds an edge (idempotent).
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) {
        assert!(self.is_node(from), "from exists");
        assert!(self.is_node(to), "to exists");
        set_bit(row_mut(&mut self.succ, self.stride, from), to);
        set_bit(row_mut(&mut self.pred, self.stride, to), from);
    }

    /// Removes an edge if present.
    pub fn remove_edge(&mut self, from: NodeId, to: NodeId) {
        if from.0 < self.next_id && to.0 < self.next_id {
            clear_bit(row_mut(&mut self.succ, self.stride, from), to);
            clear_bit(row_mut(&mut self.pred, self.stride, to), from);
        }
    }

    /// Removes an inner node and all incident edges.
    pub fn remove_node(&mut self, id: NodeId) {
        assert!(!id.is_endpoint(), "cannot remove source/sink");
        if self.labels.remove(&id).is_none() {
            return;
        }
        let stride = self.stride;
        let outgoing: Vec<NodeId> = self.direct_succ(id).iter().collect();
        for to in outgoing {
            clear_bit(row_mut(&mut self.pred, stride, to), id);
        }
        let incoming: Vec<NodeId> = self.direct_pred(id).iter().collect();
        for from in incoming {
            clear_bit(row_mut(&mut self.succ, stride, from), id);
        }
        row_mut(&mut self.succ, stride, id).fill(0);
        row_mut(&mut self.pred, stride, id).fill(0);
    }

    /// Whether the edge exists.
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        from.0 < self.next_id && self.direct_succ(from).contains(to)
    }

    /// Label of an inner node.
    pub fn label(&self, id: NodeId) -> &Regex {
        &self.labels[&id]
    }

    /// Replaces the label of an inner node.
    pub fn set_label(&mut self, id: NodeId, label: Regex) {
        *self.labels.get_mut(&id).expect("inner node") = label;
    }

    /// Inner (labeled) nodes in ascending id order (deterministic).
    pub fn inner_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.labels.keys().copied()
    }

    /// Number of inner nodes.
    pub fn num_inner(&self) -> usize {
        self.labels.len()
    }

    /// Total number of edges.
    pub fn num_edges(&self) -> usize {
        NodeSet::new(&self.succ).len()
    }

    /// Direct successors, in ascending id order.
    pub fn direct_succ(&self, id: NodeId) -> NodeSet<'_> {
        NodeSet::new(row(&self.succ, self.stride, id))
    }

    /// Direct predecessors, in ascending id order.
    pub fn direct_pred(&self, id: NodeId) -> NodeSet<'_> {
        NodeSet::new(row(&self.pred, self.stride, id))
    }

    /// All edges in deterministic order.
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        (0..self.next_id)
            .map(NodeId)
            .flat_map(|from| self.direct_succ(from).iter().map(move |to| (from, to)))
            .collect()
    }

    /// Whether the GFA is *final*: exactly one inner node `r`, with edges
    /// exactly `source→r` and `r→sink`.
    pub fn is_final(&self) -> bool {
        if self.labels.len() != 1 {
            return false;
        }
        let r = *self.labels.keys().next().expect("one node");
        self.num_edges() == 2 && self.has_edge(SOURCE, r) && self.has_edge(r, SINK)
    }

    /// The expression of a final GFA.
    pub fn final_regex(&self) -> Option<&Regex> {
        if self.is_final() {
            self.labels.values().next()
        } else {
            None
        }
    }

    /// Whether a node's label can iterate (is `s+`, `s*` or `(s+)?`),
    /// contributing the closure self-edge of §5 rule (i).
    fn label_iterates(r: &Regex) -> bool {
        match r {
            Regex::Plus(_) | Regex::Star(_) => true,
            Regex::Optional(inner) => matches!(&**inner, Regex::Plus(_) | Regex::Star(_)),
            _ => false,
        }
    }

    /// Computes the ε-closure `G*` of §5: `E*` contains (i) self-edges
    /// `(r,r)` for iterating labels, and (ii) `(r,r')` whenever a path from
    /// `r` to `r'` passes only intermediate nodes with ε in their language.
    pub fn closure(&self) -> Closure {
        let n = self.next_id as usize;
        let stride = self.stride;
        let direct = &self.succ;
        let mut nullable = vec![0u64; stride];
        for (&id, label) in &self.labels {
            if label.nullable() {
                set_bit(&mut nullable, id);
            }
        }
        let mut succ = vec![0u64; n * stride];
        let mut expanded = vec![0u64; stride];
        for u in (0..self.next_id).map(NodeId) {
            // Everything directly reachable from u, then repeatedly the
            // successors of every reached nullable node not yet expanded.
            // Removed ids have empty rows and stay empty.
            let reach = row_mut(&mut succ, stride, u);
            reach.copy_from_slice(row(direct, stride, u));
            expanded.fill(0);
            loop {
                let mut grew = false;
                for w in 0..stride {
                    let mut todo = reach[w] & nullable[w] & !expanded[w];
                    while todo != 0 {
                        let bit = todo.trailing_zeros();
                        todo &= todo - 1;
                        expanded[w] |= 1 << bit;
                        let v = NodeId(w as u32 * 64 + bit);
                        for (dst, &src) in reach.iter_mut().zip(row(direct, stride, v)) {
                            *dst |= src;
                        }
                        grew = true;
                    }
                }
                if !grew {
                    break;
                }
            }
        }
        for (&id, label) in &self.labels {
            if Self::label_iterates(label) {
                set_bit(row_mut(&mut succ, stride, id), id);
            }
        }
        let mut pred = vec![0u64; n * stride];
        for u in (0..self.next_id).map(NodeId) {
            for v in NodeSet::new(row(&succ, stride, u)).iter() {
                set_bit(row_mut(&mut pred, stride, v), u);
            }
        }
        Closure { stride, succ, pred }
    }

    /// Graphviz rendering.
    pub fn to_dot(&self, alphabet: &dtdinfer_regex::alphabet::Alphabet) -> String {
        use dtdinfer_regex::display::render;
        let mut out = String::from("digraph gfa {\n  rankdir=LR;\n  n0 [shape=point];\n  n1 [shape=doublecircle, label=\"\"];\n");
        for (&id, label) in &self.labels {
            out.push_str(&format!(
                "  n{} [label=\"{}\"];\n",
                id.0,
                render(label, alphabet).replace('"', "\\\"")
            ));
        }
        for (from, to) in self.edges() {
            out.push_str(&format!("  n{} -> n{};\n", from.0, to.0));
        }
        out.push_str("}\n");
        out
    }
}

/// The bitset row of `id` in a row-major matrix `stride` words wide.
fn row(rows: &[u64], stride: usize, id: NodeId) -> &[u64] {
    &rows[id.0 as usize * stride..][..stride]
}

fn row_mut(rows: &mut [u64], stride: usize, id: NodeId) -> &mut [u64] {
    &mut rows[id.0 as usize * stride..][..stride]
}

fn set_bit(words: &mut [u64], id: NodeId) {
    words[id.0 as usize / 64] |= 1 << (id.0 % 64);
}

fn clear_bit(words: &mut [u64], id: NodeId) {
    words[id.0 as usize / 64] &= !(1 << (id.0 % 64));
}

/// The ε-closure `G*`: predecessor and successor sets per node (§5).
///
/// Each set is a dense bitset row indexed by [`NodeId`], so the rule
/// preconditions of the rewrite and repair systems reduce to word
/// operations. Ids of removed nodes have empty rows; asking for an id the
/// GFA had not yet allocated when the closure was computed panics, as a
/// lookup of an unknown node always has. Iterating a row yields
/// ids in ascending order — the order of an ordered set of `NodeId`s — so
/// rules that scan these sets pick the same nodes as an ordered-set
/// implementation would.
#[derive(Debug, Clone)]
pub struct Closure {
    /// `u64` words per row.
    stride: usize,
    succ: Vec<u64>,
    pred: Vec<u64>,
}

impl Closure {
    /// `Pred(r)`: predecessors of `r` in `G*`.
    pub fn pred(&self, id: NodeId) -> NodeSet<'_> {
        NodeSet::new(row(&self.pred, self.stride, id))
    }

    /// `Succ(r)`: successors of `r` in `G*`.
    pub fn succ(&self, id: NodeId) -> NodeSet<'_> {
        NodeSet::new(row(&self.succ, self.stride, id))
    }

    /// An empty scratch set sized for this closure's ids, for the mask
    /// arguments of [`NodeSet::eq_outside`] and [`NodeSet::covers`].
    pub fn mask(&self) -> NodeMask {
        NodeMask {
            words: vec![0; self.stride],
        }
    }
}

/// A borrowed set of node ids: one bitset row of a [`Closure`], or a view
/// of a [`NodeMask`]. The binary operations expect both operands to come
/// from the same closure.
#[derive(Debug, Clone, Copy)]
pub struct NodeSet<'a> {
    words: &'a [u64],
}

impl<'a> NodeSet<'a> {
    fn new(words: &'a [u64]) -> Self {
        NodeSet { words }
    }

    /// Whether `id` is a member.
    pub fn contains(self, id: NodeId) -> bool {
        self.words
            .get(id.0 as usize / 64)
            .is_some_and(|w| w >> (id.0 % 64) & 1 == 1)
    }

    /// The members in ascending id order.
    pub fn iter(self) -> impl Iterator<Item = NodeId> + 'a {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    NodeId(i as u32 * 64 + bit)
                })
            })
        })
    }

    /// Number of members.
    pub fn len(self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether the two sets share no member.
    pub fn is_disjoint(self, other: NodeSet<'_>) -> bool {
        self.words.iter().zip(other.words).all(|(a, b)| a & b == 0)
    }

    /// `|self \ other|`.
    pub fn difference_len(self, other: NodeSet<'_>) -> usize {
        self.words
            .iter()
            .zip(other.words)
            .map(|(a, b)| (a & !b).count_ones() as usize)
            .sum()
    }

    /// Whether `self \ mask = other \ mask`.
    pub fn eq_outside(self, other: NodeSet<'_>, mask: NodeSet<'_>) -> bool {
        self.words
            .iter()
            .zip(other.words)
            .zip(mask.words)
            .all(|((a, b), m)| (a ^ b) & !m == 0)
    }

    /// Whether every member of `mask` is a member of `self`.
    pub fn covers(self, mask: NodeSet<'_>) -> bool {
        self.words.iter().zip(mask.words).all(|(a, m)| m & !a == 0)
    }
}

/// An owned, reusable set of node ids, sized by [`Closure::mask`].
#[derive(Debug, Clone)]
pub struct NodeMask {
    words: Vec<u64>,
}

impl NodeMask {
    /// Adds `id` (which must be below the closure's id bound).
    pub fn insert(&mut self, id: NodeId) {
        set_bit(&mut self.words, id);
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Sets the mask to a copy of `set` (whose length must match).
    pub fn copy_from(&mut self, set: NodeSet<'_>) {
        self.words.copy_from_slice(set.words);
    }

    /// Removes `id` if present.
    pub fn remove(&mut self, id: NodeId) {
        clear_bit(&mut self.words, id);
    }

    /// A borrowed view of the mask.
    pub fn as_set(&self) -> NodeSet<'_> {
        NodeSet::new(&self.words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtdinfer_regex::alphabet::Alphabet;

    fn letters(n: usize) -> (Alphabet, Vec<Sym>) {
        let mut al = Alphabet::new();
        let syms = (0..n)
            .map(|i| al.intern(&((b'a' + i as u8) as char).to_string()))
            .collect();
        (al, syms)
    }

    #[test]
    fn from_soa_structure() {
        let (mut al, _) = letters(0);
        let words = vec![al.word_from_chars("ab"), al.word_from_chars("b")];
        let soa = Soa::learn(&words);
        let (g, node_of) = Gfa::from_soa(&soa);
        let (a, b) = (al.get("a").unwrap(), al.get("b").unwrap());
        assert_eq!(g.num_inner(), 2);
        assert!(g.has_edge(SOURCE, node_of[&a]));
        assert!(g.has_edge(SOURCE, node_of[&b]));
        assert!(g.has_edge(node_of[&a], node_of[&b]));
        assert!(g.has_edge(node_of[&b], SINK));
        assert!(!g.has_edge(node_of[&a], SINK));
    }

    #[test]
    fn final_detection() {
        let (_, syms) = letters(1);
        let mut g = Gfa::new();
        let n = g.add_node(Regex::sym(syms[0]));
        g.add_edge(SOURCE, n);
        g.add_edge(n, SINK);
        assert!(g.is_final());
        assert_eq!(g.final_regex(), Some(&Regex::sym(syms[0])));
        // An extra edge breaks finality.
        g.add_edge(SOURCE, SINK);
        assert!(!g.is_final());
    }

    #[test]
    fn closure_through_nullable() {
        // source -> a -> b? -> c -> sink : closure must contain (a, c).
        let (_, syms) = letters(3);
        let mut g = Gfa::new();
        let a = g.add_node(Regex::sym(syms[0]));
        let b = g.add_node(Regex::optional(Regex::sym(syms[1])));
        let c = g.add_node(Regex::sym(syms[2]));
        g.add_edge(SOURCE, a);
        g.add_edge(a, b);
        g.add_edge(b, c);
        g.add_edge(c, SINK);
        let cl = g.closure();
        assert!(cl.succ(a).contains(c));
        assert!(cl.pred(c).contains(a));
        assert!(cl.succ(a).contains(b));
        // But not (source, c): the path passes the non-nullable node a.
        assert!(!cl.succ(SOURCE).contains(c));
        assert!(!cl.succ(SOURCE).contains(SINK));
    }

    #[test]
    fn closure_self_edges_for_iterating_labels() {
        let (_, syms) = letters(2);
        let mut g = Gfa::new();
        let p = g.add_node(Regex::plus(Regex::sym(syms[0])));
        let q = g.add_node(Regex::sym(syms[1]));
        g.add_edge(SOURCE, p);
        g.add_edge(p, q);
        g.add_edge(q, SINK);
        let cl = g.closure();
        assert!(cl.succ(p).contains(p), "s+ node gets closure self-edge");
        assert!(!cl.succ(q).contains(q));
        // (s+)? also iterates:
        g.set_label(
            p,
            Regex::Optional(Box::new(Regex::plus(Regex::sym(syms[0])))),
        );
        let cl = g.closure();
        assert!(cl.succ(p).contains(p));
    }

    #[test]
    fn remove_node_cleans_edges() {
        let (_, syms) = letters(2);
        let mut g = Gfa::new();
        let a = g.add_node(Regex::sym(syms[0]));
        let b = g.add_node(Regex::sym(syms[1]));
        g.add_edge(SOURCE, a);
        g.add_edge(a, b);
        g.add_edge(b, SINK);
        g.remove_node(a);
        assert_eq!(g.num_inner(), 1);
        assert!(!g.has_edge(SOURCE, a));
        assert!(g.direct_pred(b).is_empty());
    }

    #[test]
    fn closure_includes_direct_edges() {
        let (_, syms) = letters(2);
        let mut g = Gfa::new();
        let a = g.add_node(Regex::sym(syms[0]));
        let b = g.add_node(Regex::sym(syms[1]));
        g.add_edge(SOURCE, a);
        g.add_edge(a, b);
        g.add_edge(b, SINK);
        let cl = g.closure();
        assert!(cl.succ(a).contains(b));
        assert!(cl.pred(b).contains(a));
        assert!(cl.pred(a).contains(SOURCE));
        assert!(cl.succ(b).contains(SINK));
    }
}
