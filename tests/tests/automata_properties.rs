//! Property-based tests on the automata substrate: the verification layer
//! itself gets verified by cross-checking independent implementations
//! against each other (NFA simulation vs subset-construction DFA vs
//! minimized DFA vs state-elimination round trips).

use dtdinfer_automata::dfa::{dfa_equiv, joint_alphabet, regex_equiv, soa_equiv_regex, Dfa};
use dtdinfer_automata::gfa::{Gfa, NodeId, SINK, SOURCE};
use dtdinfer_automata::ktestable::KTestable;
use dtdinfer_automata::minimize::isomorphic;
use dtdinfer_automata::nfa::Nfa;
use dtdinfer_automata::soa::Soa;
use dtdinfer_automata::state_elim::eliminate;
use dtdinfer_regex::alphabet::{Sym, Word};
use dtdinfer_regex::ast::Regex;
use dtdinfer_regex::sample::{sample_words, SampleConfig};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_regex(n_syms: u32) -> impl Strategy<Value = Regex> {
    let leaf = (0..n_syms).prop_map(|i| Regex::sym(Sym(i)));
    leaf.prop_recursive(4, 20, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Regex::concat),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Regex::union),
            inner.clone().prop_map(Regex::optional),
            inner.clone().prop_map(Regex::plus),
            inner.prop_map(Regex::star),
        ]
    })
}

fn arb_word(n_syms: u32) -> impl Strategy<Value = Word> {
    prop::collection::vec((0..n_syms).prop_map(Sym), 0..10)
}

/// A random node label over `s`: plain, nullable (`s?`), iterating
/// (`s+`), or both (`s*`, `(s+)?`).
fn random_label(rng: &mut impl rand::Rng, s: Sym) -> Regex {
    match rng.gen_range(0..6) {
        0 | 1 => Regex::sym(s),
        2 => Regex::optional(Regex::sym(s)),
        3 => Regex::plus(Regex::sym(s)),
        4 => Regex::Optional(Box::new(Regex::plus(Regex::sym(s)))),
        _ => Regex::star(Regex::sym(s)),
    }
}

/// A GFA built by random edits, with a plain edge list kept beside it as
/// the reference for its adjacency.
struct WideGfa {
    g: Gfa,
    /// Every id the GFA allocated, live or removed.
    ids: Vec<NodeId>,
    /// The edges the edits leave, as an ordered set.
    edges: BTreeSet<(NodeId, NodeId)>,
}

impl WideGfa {
    /// A GFA over `n_syms` symbols: one node per symbol, then `merges`
    /// rounds that each replace one or two random inner nodes by a fresh
    /// node, which leaves holes in the id range and pushes fresh ids past
    /// 128. Random edges (endpoints included) are added as the GFA grows,
    /// so rows widen while they hold edges, and a few are removed again.
    fn build(n_syms: usize, merges: usize, seed: u64) -> Self {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut w = WideGfa {
            g: Gfa::new(),
            ids: vec![SOURCE, SINK],
            edges: BTreeSet::new(),
        };
        for i in 0..n_syms {
            let label = random_label(&mut rng, Sym(i as u32));
            w.ids.push(w.g.add_node(label));
            w.random_edges(&mut rng, 2);
        }
        for _ in 0..merges {
            let removed = if rng.gen_bool(0.3) { 2 } else { 1 };
            let mut sym = None;
            for _ in 0..removed.min(w.g.num_inner() - 1) {
                let victims: Vec<NodeId> = w.g.inner_nodes().collect();
                let v = victims[rng.gen_range(0..victims.len())];
                sym.get_or_insert(w.g.label(v).symbols().into_iter().next().expect("a symbol"));
                w.g.remove_node(v);
                w.edges.retain(|&(from, to)| from != v && to != v);
            }
            let label = random_label(&mut rng, sym.unwrap_or(Sym(0)));
            w.ids.push(w.g.add_node(label));
            w.random_edges(&mut rng, 3);
        }
        let n = w.g.num_inner();
        w.random_edges(&mut rng, 2 * n);
        for _ in 0..n / 4 {
            let dropped: Vec<_> = w.edges.iter().copied().collect();
            let (from, to) = dropped[rng.gen_range(0..dropped.len())];
            w.g.remove_edge(from, to);
            w.edges.remove(&(from, to));
        }
        w
    }

    fn random_edges(&mut self, rng: &mut impl rand::Rng, count: usize) {
        let froms: Vec<NodeId> = [SOURCE].into_iter().chain(self.g.inner_nodes()).collect();
        let tos: Vec<NodeId> = self.g.inner_nodes().chain([SINK]).collect();
        for _ in 0..count {
            let from = froms[rng.gen_range(0..froms.len())];
            let to = tos[rng.gen_range(0..tos.len())];
            self.g.add_edge(from, to);
            self.edges.insert((from, to));
        }
    }

    /// Reference `Succ(u)` in `G*`: breadth-first reachability over the
    /// edge list that continues only through nodes whose label is
    /// nullable, plus the self-edge of an iterating label.
    fn reference_succ(&self, u: NodeId) -> BTreeSet<NodeId> {
        let direct = |v: NodeId| self.edges.iter().filter(move |e| e.0 == v).map(|e| e.1);
        let nullable = |v: NodeId| !v.is_endpoint() && self.g.label(v).nullable();
        let mut reached = BTreeSet::new();
        let mut queue: std::collections::VecDeque<NodeId> = direct(u).collect();
        while let Some(v) = queue.pop_front() {
            if reached.insert(v) && nullable(v) {
                queue.extend(direct(v));
            }
        }
        if !u.is_endpoint() {
            let iterates = match self.g.label(u) {
                Regex::Plus(_) | Regex::Star(_) => true,
                Regex::Optional(inner) => matches!(**inner, Regex::Plus(_) | Regex::Star(_)),
                _ => false,
            };
            if iterates {
                reached.insert(u);
            }
        }
        reached
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// NFA simulation and subset-construction DFA agree on membership.
    #[test]
    fn nfa_dfa_membership_agreement(r in arb_regex(3), w in arb_word(3)) {
        let nfa = Nfa::from_regex(&r);
        let alpha: Vec<Sym> = (0..3).map(Sym).collect();
        let dfa = Dfa::from_regex(&r, &alpha);
        prop_assert_eq!(nfa.accepts(&w), dfa.accepts(&w));
    }

    /// Minimization preserves the language, never grows, and is canonical:
    /// minimal DFAs of equal languages are isomorphic.
    #[test]
    fn minimization_canonical(r in arb_regex(3)) {
        let alpha: Vec<Sym> = (0..3).map(Sym).collect();
        let d = Dfa::from_regex(&r, &alpha);
        let m = d.minimize();
        prop_assert!(dfa_equiv(&d, &m));
        prop_assert!(m.len() <= d.len());
        // Canonicity across representations: a DFA built from the
        // normalized expression minimizes to an isomorphic machine.
        let d2 = Dfa::from_regex(&dtdinfer_regex::normalize::normalize(&r), &alpha);
        prop_assert!(isomorphic(&m, &d2.minimize()));
    }

    /// State elimination preserves the language of a learned SOA.
    #[test]
    fn state_elimination_sound(words in prop::collection::vec(arb_word(3), 1..8)) {
        let soa = Soa::learn(&words);
        match eliminate(&soa).into_regex() {
            Some(r) => prop_assert!(soa_equiv_regex(&soa, &r)),
            None => {
                // ∅ or {ε}: every training word must then be empty.
                prop_assert!(words.iter().all(Vec::is_empty));
            }
        }
    }

    /// 2T-INF over-approximates its sample, and equals KTestable at k = 2.
    #[test]
    fn twoinf_covers_and_matches_k2(
        words in prop::collection::vec(arb_word(3), 1..10),
        probe in arb_word(3),
    ) {
        let soa = Soa::learn(&words);
        for w in &words {
            prop_assert!(soa.accepts(w));
        }
        let k2 = KTestable::learn(2, &words);
        prop_assert_eq!(soa.accepts(&probe), k2.accepts(&probe));
    }

    /// KTestable's compiled DFA agrees with direct membership.
    #[test]
    fn ktestable_dfa_agrees(
        words in prop::collection::vec(arb_word(3), 1..8),
        probe in arb_word(3),
        k in 1usize..5,
    ) {
        let kt = KTestable::learn(k, &words);
        let alpha: Vec<Sym> = (0..3).map(Sym).collect();
        let dfa = kt.to_dfa(&alpha);
        prop_assert_eq!(dfa.accepts(&probe), kt.accepts(&probe));
    }

    /// The k-hierarchy: for equal samples, larger k accepts a subset.
    #[test]
    fn ktestable_hierarchy(
        words in prop::collection::vec(arb_word(3), 1..8),
        probe in arb_word(3),
        k in 1usize..4,
    ) {
        let coarse = KTestable::learn(k, &words);
        let fine = KTestable::learn(k + 1, &words);
        if fine.accepts(&probe) {
            prop_assert!(coarse.accepts(&probe), "k-hierarchy violated");
        }
    }

    /// GFA closure invariants on random learned SOAs: direct edges are in
    /// the closure, and pred/succ are duals.
    #[test]
    fn gfa_closure_invariants(words in prop::collection::vec(arb_word(4), 1..8)) {
        use dtdinfer_automata::gfa::Gfa;
        let soa = Soa::learn(&words);
        let (g, _) = Gfa::from_soa(&soa);
        let closure = g.closure();
        for (from, to) in g.edges() {
            prop_assert!(closure.succ(from).contains(to), "direct ⊆ closure");
            prop_assert!(closure.pred(to).contains(from));
        }
        // Duality over all node pairs.
        let nodes: Vec<_> = g
            .inner_nodes()
            .chain([dtdinfer_automata::gfa::SOURCE, dtdinfer_automata::gfa::SINK])
            .collect();
        for &u in &nodes {
            for &v in &nodes {
                prop_assert_eq!(
                    closure.succ(u).contains(v),
                    closure.pred(v).contains(u),
                    "pred/succ duality"
                );
            }
        }
    }

    /// The bitset closure equals a plain reachability reference on wide
    /// GFAs: 70+ symbols, so node ids cross the 64- and 128-bit word
    /// boundaries, with holes left by merges and with nullable and
    /// iterating labels. The set operations the rewrite rules use agree
    /// with their ordered-set definitions on random rows and masks.
    #[test]
    fn gfa_closure_matches_reference(n_syms in 70usize..90, merges in 60usize..75, seed in 0u64..1 << 40) {
        let wide = WideGfa::build(n_syms, merges, seed);
        let (g, ids) = (&wide.g, &wide.ids);
        prop_assert!(ids.iter().any(|id| id.0 >= 128), "ids cross the second word");
        // The adjacency rows hold exactly the edges the edits left.
        prop_assert_eq!(g.edges(), wide.edges.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(g.num_edges(), wide.edges.len());
        for &id in ids {
            let succ: Vec<NodeId> = wide.edges.iter().filter(|e| e.0 == id).map(|e| e.1).collect();
            let pred: Vec<NodeId> = wide.edges.iter().filter(|e| e.1 == id).map(|e| e.0).collect();
            prop_assert_eq!(g.direct_succ(id).iter().collect::<Vec<_>>(), succ);
            prop_assert_eq!(g.direct_pred(id).iter().collect::<Vec<_>>(), pred);
        }
        let closure = g.closure();
        let live: Vec<NodeId> = [SOURCE, SINK].into_iter().chain(g.inner_nodes()).collect();
        let succ_ref: Vec<(NodeId, BTreeSet<NodeId>)> =
            live.iter().map(|&u| (u, wide.reference_succ(u))).collect();
        for &id in ids {
            let expected_succ: BTreeSet<NodeId> = succ_ref
                .iter()
                .find(|(u, _)| *u == id)
                .map(|(_, s)| s.clone())
                .unwrap_or_default();
            let expected_pred: BTreeSet<NodeId> = succ_ref
                .iter()
                .filter(|(_, s)| s.contains(&id))
                .map(|&(u, _)| u)
                .collect();
            for (set, expected) in [(closure.succ(id), &expected_succ), (closure.pred(id), &expected_pred)] {
                let members: Vec<NodeId> = set.iter().collect();
                let ordered: Vec<NodeId> = expected.iter().copied().collect();
                prop_assert_eq!(&members, &ordered, "row of {:?}", id);
                prop_assert_eq!(set.len(), expected.len());
                prop_assert_eq!(set.is_empty(), expected.is_empty());
                for &other in ids {
                    prop_assert_eq!(set.contains(other), expected.contains(&other));
                }
            }
        }

        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5e75);
        let as_set = |s: dtdinfer_automata::gfa::NodeSet<'_>| s.iter().collect::<BTreeSet<NodeId>>();
        for round in 0..64 {
            let a = ids[rng.gen_range(0..ids.len())];
            let b = ids[rng.gen_range(0..ids.len())];
            let (x, y) = (closure.succ(a), closure.pred(b));
            let (xs, ys) = (as_set(x), as_set(y));
            // Random members, and in every other round all of x ⊕ y too,
            // so that "equal outside the mask" also meets true cases.
            let mut ms: BTreeSet<NodeId> =
                (0..rng.gen_range(0..6)).map(|_| ids[rng.gen_range(0..ids.len())]).collect();
            if round % 2 == 1 {
                ms.extend(xs.symmetric_difference(&ys));
            }
            let mut mask = closure.mask();
            for &m in &ms {
                mask.insert(m);
            }
            let m = mask.as_set();
            prop_assert_eq!(x.is_disjoint(y), xs.is_disjoint(&ys));
            prop_assert_eq!(x.difference_len(y), xs.difference(&ys).count());
            let outside = |s: &BTreeSet<NodeId>| s.difference(&ms).copied().collect::<BTreeSet<_>>();
            prop_assert_eq!(x.eq_outside(y, m), outside(&xs) == outside(&ys));
            prop_assert_eq!(x.eq_outside(x, m), true);
            prop_assert_eq!(x.covers(m), ms.is_subset(&xs));
            prop_assert!(x.covers(x));
            mask.copy_from(x);
            prop_assert_eq!(as_set(mask.as_set()), xs.clone());
            mask.remove(a);
            prop_assert_eq!(mask.as_set().len(), xs.len() - usize::from(xs.contains(&a)));
        }
    }

    /// The equivalence test is reflexive and symmetric on random pairs.
    #[test]
    fn regex_equiv_laws(a in arb_regex(3), b in arb_regex(3)) {
        prop_assert!(regex_equiv(&a, &a));
        prop_assert_eq!(regex_equiv(&a, &b), regex_equiv(&b, &a));
    }

    /// `Soa::merge` round trip: splitting a sample arbitrarily, learning
    /// each part separately, and merging the automata is the identity on
    /// the inferred language (merge ∘ split == learn of the whole sample).
    #[test]
    fn soa_merge_split_round_trip(
        words in prop::collection::vec(arb_word(4), 0..12),
        cut in 0usize..12,
        probe in prop::collection::vec(arb_word(4), 0..8),
    ) {
        let cut = cut.min(words.len());
        let whole = Soa::learn(&words);
        let mut merged = Soa::learn(&words[..cut]);
        merged.merge(&Soa::learn(&words[cut..]));
        // Structural identity (an SOA uniquely determines its 2-testable
        // language, so this is language identity too)…
        prop_assert_eq!(&merged, &whole);
        // …and observable identity on sample + random probe words.
        for w in words.iter().chain(&probe) {
            prop_assert_eq!(merged.accepts(w), whole.accepts(w));
        }
    }

    /// Merging shard automata is order-insensitive: any permutation of the
    /// shards yields the same automaton.
    #[test]
    fn soa_merge_commutes(
        a in prop::collection::vec(arb_word(3), 0..8),
        b in prop::collection::vec(arb_word(3), 0..8),
        c in prop::collection::vec(arb_word(3), 0..8),
    ) {
        let (sa, sb, sc) = (Soa::learn(&a), Soa::learn(&b), Soa::learn(&c));
        let mut abc = sa.clone();
        abc.merge(&sb);
        abc.merge(&sc);
        let mut cba = sc;
        cba.merge(&sb);
        cba.merge(&sa);
        prop_assert_eq!(abc, cba);
    }

    /// Sampled words of an expression are accepted by its DFA.
    #[test]
    fn dfa_accepts_samples(r in arb_regex(3), seed in 0u64..500) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let alpha = joint_alphabet(&[&r.symbols()]);
        let dfa = Dfa::from_regex(&r, &alpha);
        for w in sample_words(&r, &SampleConfig::default(), &mut rng, 5) {
            prop_assert!(dfa.accepts(&w));
        }
    }
}
