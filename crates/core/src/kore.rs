//! The k-ORE engine: k-occurrence automata and deterministic k-occurrence
//! regular expressions.
//!
//! The paper's SOREs (§3) cannot express content models where a symbol
//! repeats — `a b a` has no single-occurrence expression. The direct
//! successor paper (Bex, Gelade, Neven, Vansummeren, "Learning Deterministic
//! Regular Expressions for the Inference of Schemas from XML Data") lifts
//! the whole pipeline to *k-occurrence* expressions: mark the i-th
//! occurrence of each symbol in every sample word (`a#1`, `a#2`, …), learn
//! an ordinary SOA over the marked alphabet, rewrite it with the unchanged
//! §5/§6 machinery, then erase the marks. The result is a k-ORE: an
//! expression in which each alphabet symbol occurs at most `k` times.
//!
//! Two facts make the incremental integration exact:
//!
//! * **Marking commutes with 2T-INF.** The marked SOA is a pure function of
//!   the word multiset (in fact of the word *set*), so absorbing words one
//!   at a time or learning from an element's counted [`WordBag`] land on
//!   the same automaton.
//! * **Capping commutes with 2T-INF.** Folding marks down from [`MAX_K`] to
//!   any smaller `k` (occurrence `min(m, k)`) is an alphabet homomorphism,
//!   and 2T-INF commutes with alphabet homomorphisms, so the folded SOA
//!   equals the SOA learned from the k-capped marked words directly. One
//!   stored automaton therefore serves every `k ≤ MAX_K`.
//!
//! [`KoreState::derive`] tries `k` from the largest observed repeat count
//! downward; each candidate is rewritten by iDTD over the marked alphabet,
//! unmarked, and kept only if the unmarked expression is one-unambiguous
//! (deterministic per the XML spec). `k = 1` is the plain SORE, which is
//! deterministic by definition (§3), so the loop always terminates.
//!
//! The module also hosts the MDL-style model chooser used by
//! `--engine auto`: two-part code length (model bits + data bits under a
//! Glushkov-walk code) computed with integer arithmetic only, so the choice
//! is byte-identical across shard counts and document permutations.

use crate::idtd::{idtd_traced, Event, IdtdConfig};
use crate::model::InferredModel;
use dtdinfer_automata::nfa::Nfa;
use dtdinfer_automata::soa::Soa;
use dtdinfer_regex::alphabet::{Alphabet, Sym, Word};
use dtdinfer_regex::ast::Regex;
use dtdinfer_regex::determinism::check_deterministic;
use dtdinfer_regex::multiset::WordBag;
use dtdinfer_regex::normalize::simplify;
use std::collections::BTreeSet;

/// Largest occurrence index the learner distinguishes. Occurrences beyond
/// the cap collapse onto mark `MAX_K`, which bounds the marked alphabet at
/// `MAX_K·|Σ|` and keeps the automaton size linear in the alphabet.
pub const MAX_K: usize = 4;

/// Encodes `(symbol, occurrence)` as a marked symbol. `occ` is 1-based and
/// must be in `1..=MAX_K`. The encoding is injective and order-preserving
/// (marked symbols sort by `(symbol, occurrence)`).
fn mark(s: Sym, occ: usize) -> Sym {
    debug_assert!((1..=MAX_K).contains(&occ));
    Sym(s.0 * MAX_K as u32 + (occ as u32 - 1))
}

/// Inverse of [`mark`].
fn unmark_sym(m: Sym) -> (Sym, usize) {
    (Sym(m.0 / MAX_K as u32), (m.0 % MAX_K as u32) as usize + 1)
}

/// Rewrites a word over Σ into its marked form over Σ×{1..MAX_K}: the i-th
/// occurrence of `s` becomes `mark(s, min(i, MAX_K))`.
fn mark_word(w: &Word, scratch: &mut std::collections::BTreeMap<Sym, usize>) -> Word {
    scratch.clear();
    w.iter()
        .map(|&s| {
            let n = scratch.entry(s).or_insert(0);
            *n += 1;
            mark(s, (*n).min(MAX_K))
        })
        .collect()
}

/// Erases marks from a regex learned over the marked alphabet, rebuilding
/// through the smart constructors so structural invariants (flattening,
/// no 1-ary nodes) hold on the result.
fn unmark_regex(r: &Regex) -> Regex {
    match r {
        Regex::Symbol(m) => Regex::Symbol(unmark_sym(*m).0),
        Regex::Concat(v) => Regex::concat(v.iter().map(unmark_regex).collect()),
        Regex::Union(v) => Regex::union(v.iter().map(unmark_regex).collect()),
        Regex::Optional(b) => Regex::optional(unmark_regex(b)),
        Regex::Plus(b) => Regex::plus(unmark_regex(b)),
        Regex::Star(b) => Regex::star(unmark_regex(b)),
    }
}

/// Streaming state of the k-ORE learner: the 2T-INF automaton over the
/// [`MAX_K`]-marked alphabet plus a word count.
///
/// Every component is a set union or a sum, so the state is invariant under
/// permutation of the absorbed words: it is a pure function of the
/// absorbed word multiset, and a state learned from a [`WordBag`] is
/// byte-identical to one that was grown incrementally.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KoreState {
    /// 2T-INF automaton over marked symbols.
    marked: Soa,
    /// Total number of words absorbed.
    num_words: u64,
}

/// The result of a k-ORE derivation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KoreOutcome {
    /// The deterministic k-ORE (or a degenerate model).
    pub model: InferredModel,
    /// The iDTD derivation trace at the accepted `k`.
    pub events: Vec<Event>,
    /// The occurrence bound the derivation settled on (`1` = plain SORE).
    pub k: usize,
}

impl KoreState {
    /// An empty state (no words seen).
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one word into the state.
    pub fn absorb(&mut self, w: &Word) {
        self.absorb_counted(w, 1);
    }

    /// Folds `n` occurrences of one word into the state. The marked SOA is
    /// count-invariant (set unions), so the word is marked and absorbed
    /// once; only the word total advances by `n`.
    pub fn absorb_counted(&mut self, w: &Word, n: u32) {
        if n == 0 {
            return;
        }
        self.num_words += u64::from(n);
        let mut scratch = std::collections::BTreeMap::new();
        let marked = mark_word(w, &mut scratch);
        self.marked.absorb(&marked);
    }

    /// Learns a state from a counted word multiset — the batch counterpart
    /// of incremental absorption, guaranteed to produce the same state.
    pub fn learn_counted(bag: &WordBag) -> Self {
        let mut state = Self::new();
        for (w, n) in bag.iter() {
            state.absorb_counted(w, n);
        }
        state
    }

    /// Number of words absorbed so far.
    pub fn num_words(&self) -> u64 {
        self.num_words
    }

    /// The largest occurrence index present in the marked automaton — the
    /// starting `k` for the derivation loop. `0` when no symbol was seen.
    pub fn k_max(&self) -> usize {
        self.marked
            .states
            .iter()
            .map(|&m| unmark_sym(m).1)
            .max()
            .unwrap_or(0)
    }

    /// The marked SOA folded down to occurrence bound `k`: occurrence
    /// indices above `k` collapse onto `k`. Because capping is an alphabet
    /// homomorphism and 2T-INF commutes with homomorphisms, this equals the
    /// SOA learned from the k-capped marked words directly.
    pub fn fold(&self, k: usize) -> Soa {
        assert!(k >= 1, "occurrence bound must be at least 1");
        let cap = |m: Sym| {
            let (s, occ) = unmark_sym(m);
            mark(s, occ.min(k))
        };
        Soa::from_parts(
            self.marked.initial.iter().map(|&m| cap(m)),
            self.marked.finals.iter().map(|&m| cap(m)),
            self.marked.edges.iter().map(|&(a, b)| (cap(a), cap(b))),
            self.marked.accepts_empty,
        )
    }

    /// Derives a deterministic k-ORE: for `k` from [`k_max`](Self::k_max)
    /// down to 1, fold the marked automaton to `k`, run iDTD over the
    /// marked alphabet, erase the marks, and accept the first candidate
    /// whose unmarked expression is one-unambiguous. At `k = 1` the folded
    /// automaton is the plain SOA and iDTD yields a SORE — deterministic by
    /// definition (§3) — so the loop always succeeds.
    ///
    /// The soundness chain `L(sample) ⊆ L(k-ORE)` holds at every `k`: the
    /// marked SOA over-approximates the marked sample (Theorem 2 over the
    /// marked alphabet) and mark erasure is a homomorphism, which can only
    /// grow the language.
    pub fn derive(&self) -> KoreOutcome {
        let _span = dtdinfer_obs::span("core.kore");
        dtdinfer_obs::count("core.kore.runs", 1);
        if self.marked.num_states() == 0 {
            let model = if self.marked.accepts_empty {
                InferredModel::EpsilonOnly
            } else {
                InferredModel::Empty
            };
            return KoreOutcome {
                model,
                events: Vec::new(),
                k: 1,
            };
        }
        let k_max = self.k_max().max(1);
        for k in (1..=k_max).rev() {
            let folded = self.fold(k);
            let (model, events) = idtd_traced(&folded, IdtdConfig::default());
            let Some(r) = model.as_regex() else {
                // Degenerate models can only arise from empty automata,
                // handled above; keep the fallback total regardless.
                return KoreOutcome { model, events, k };
            };
            let candidate = simplify(&unmark_regex(r));
            if k == 1 || check_deterministic(&candidate).is_ok() {
                dtdinfer_obs::observe("core.kore.k", k as u64);
                return KoreOutcome {
                    model: InferredModel::Regex(candidate),
                    events,
                    k,
                };
            }
        }
        unreachable!("k = 1 fold is a SORE derivation and always accepted")
    }

    /// Serializes the state to a line-oriented text format (the
    /// `dtdinfer learn --state` file).
    ///
    /// Records: `words N`, `empty`, `initial NAME OCC`, `final NAME OCC`,
    /// `edge NAME OCC NAME OCC`. States are implied (a marked state always
    /// appears as an endpoint), so they are not stored.
    pub fn to_text(&self, alphabet: &Alphabet) -> String {
        let mut out = String::from("#dtdinfer-kore v1\n");
        out.push_str(&format!("words {}\n", self.num_words));
        if self.marked.accepts_empty {
            out.push_str("empty\n");
        }
        for &m in &self.marked.initial {
            let (s, occ) = unmark_sym(m);
            out.push_str(&format!("initial {} {occ}\n", alphabet.name(s)));
        }
        for &m in &self.marked.finals {
            let (s, occ) = unmark_sym(m);
            out.push_str(&format!("final {} {occ}\n", alphabet.name(s)));
        }
        for &(a, b) in &self.marked.edges {
            let (sa, oa) = unmark_sym(a);
            let (sb, ob) = unmark_sym(b);
            out.push_str(&format!(
                "edge {} {oa} {} {ob}\n",
                alphabet.name(sa),
                alphabet.name(sb)
            ));
        }
        out
    }

    /// Parses the [`to_text`](Self::to_text) format, interning names into
    /// `alphabet`.
    pub fn from_text(text: &str, alphabet: &mut Alphabet) -> Result<Self, String> {
        let mut num_words = 0u64;
        let mut accepts_empty = false;
        let mut initial = BTreeSet::new();
        let mut finals = BTreeSet::new();
        let mut edges = BTreeSet::new();
        let parse_mark = |alphabet: &mut Alphabet,
                          name: &str,
                          occ: &str,
                          lineno: usize|
         -> Result<Sym, String> {
            let occ: usize = occ
                .parse()
                .map_err(|_| format!("line {}: bad occurrence index {occ:?}", lineno + 1))?;
            if !(1..=MAX_K).contains(&occ) {
                return Err(format!(
                    "line {}: occurrence index {occ} out of range 1..={MAX_K}",
                    lineno + 1
                ));
            }
            Ok(mark(alphabet.intern(name), occ))
        };
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields.as_slice() {
                ["words", n] => {
                    num_words = n
                        .parse()
                        .map_err(|_| format!("line {}: bad word count {n:?}", lineno + 1))?;
                }
                ["empty"] => accepts_empty = true,
                ["initial", name, occ] => {
                    initial.insert(parse_mark(alphabet, name, occ, lineno)?);
                }
                ["final", name, occ] => {
                    finals.insert(parse_mark(alphabet, name, occ, lineno)?);
                }
                ["edge", a, oa, b, ob] => {
                    edges.insert((
                        parse_mark(alphabet, a, oa, lineno)?,
                        parse_mark(alphabet, b, ob, lineno)?,
                    ));
                }
                _ => return Err(format!("line {}: unrecognized record {line:?}", lineno + 1)),
            }
        }
        Ok(KoreState {
            marked: Soa::from_parts(initial, finals, edges, accepts_empty),
            num_words,
        })
    }
}

/// `⌈log2(n)⌉` — the number of bits to pick one of `n` options. `0` when
/// there is at most one option.
fn ceil_log2(n: u64) -> u64 {
    if n <= 1 {
        0
    } else {
        u64::from(64 - (n - 1).leading_zeros())
    }
}

/// Sentinel cost of a model that cannot encode the sample at all. The
/// chooser never sees it for iDTD/k-ORE/CRX outputs (all are supersets of
/// their sample by construction); it exists so the cost function is total.
pub const INFEASIBLE: u64 = u64::MAX;

/// Bits to encode one word as a walk through the Glushkov automaton of
/// `nfa`: at each step, `⌈log2⌉` of the number of locally available choices
/// (distinct continuation symbols, plus the option to stop when the walk
/// may end here). `None` when the automaton rejects the word.
fn word_bits(nfa: &Nfa, w: &Word) -> Option<u64> {
    let mut bits = 0u64;
    let mut active: Vec<usize> = Vec::new();
    let mut at_start = true;
    for step in 0..=w.len() {
        let (succ, can_stop) = if at_start {
            (nfa.first.clone(), nfa.accepts_empty)
        } else {
            let mut set = BTreeSet::new();
            for &p in &active {
                set.extend(nfa.follow[p].iter().copied());
            }
            let stop = active.iter().any(|&p| nfa.last[p]);
            (set.into_iter().collect::<Vec<_>>(), stop)
        };
        let continuations: BTreeSet<Sym> = succ.iter().map(|&q| nfa.sym_at[q]).collect();
        let options = continuations.len() as u64 + u64::from(can_stop);
        if step == w.len() {
            if !can_stop {
                return None;
            }
            bits = bits.saturating_add(ceil_log2(options));
            break;
        }
        bits = bits.saturating_add(ceil_log2(options));
        let c = w[step];
        active = succ.into_iter().filter(|&q| nfa.sym_at[q] == c).collect();
        if active.is_empty() {
            return None;
        }
        at_start = false;
    }
    Some(bits)
}

/// Two-part MDL cost of `model` against the counted sample `words`:
/// model bits (`token_count` symbols/operators, each at `⌈log2⌉` of the
/// alphabet size plus the four operator kinds) plus data bits (the
/// Glushkov-walk code of every word, weighted by its count). All integer
/// and saturating, so the comparison is exact and platform-independent.
pub fn mdl_cost(model: &InferredModel, alphabet_len: usize, words: &WordBag) -> u64 {
    match model {
        InferredModel::Empty => {
            if words.is_empty() {
                1
            } else {
                INFEASIBLE
            }
        }
        InferredModel::EpsilonOnly => {
            if words.words().all(|w| w.is_empty()) {
                1
            } else {
                INFEASIBLE
            }
        }
        InferredModel::Regex(r) => {
            let alphabet_and_ops = alphabet_len as u64 + 4;
            let model_bits = (r.token_count() as u64).saturating_mul(ceil_log2(alphabet_and_ops));
            let nfa = Nfa::from_regex(r);
            let mut data_bits = 0u64;
            for (w, n) in words.iter() {
                match word_bits(&nfa, w) {
                    Some(b) => data_bits = data_bits.saturating_add(b.saturating_mul(u64::from(n))),
                    None => return INFEASIBLE,
                }
            }
            model_bits.saturating_add(data_bits)
        }
    }
}

/// The outcome of the `--engine auto` model chooser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AutoPick {
    /// Which candidate won: `"auto-sore"`, `"auto-kore"`, or
    /// `"auto-chare"`.
    pub engine: &'static str,
    /// The winning model.
    pub model: InferredModel,
    /// Derivation trace of the winner (empty for CHARE).
    pub events: Vec<Event>,
    /// Occurrence bound of the winner (`1` for SORE/CHARE).
    pub k: usize,
}

/// Picks among the three per-element candidates by MDL cost. Ties break in
/// the fixed order SORE < k-ORE < CHARE (prefer the paper's primary model),
/// so the choice is deterministic — a requirement for the byte-identity
/// guarantees of the sharded engine.
pub fn pick_auto(
    sore: (InferredModel, Vec<Event>),
    kore: KoreOutcome,
    chare: InferredModel,
    alphabet_len: usize,
    words: &WordBag,
) -> AutoPick {
    let sore_cost = mdl_cost(&sore.0, alphabet_len, words);
    let kore_cost = mdl_cost(&kore.model, alphabet_len, words);
    let chare_cost = mdl_cost(&chare, alphabet_len, words);
    if sore_cost <= kore_cost && sore_cost <= chare_cost {
        AutoPick {
            engine: "auto-sore",
            model: sore.0,
            events: sore.1,
            k: 1,
        }
    } else if kore_cost <= chare_cost {
        AutoPick {
            engine: "auto-kore",
            model: kore.model,
            events: kore.events,
            k: kore.k,
        }
    } else {
        AutoPick {
            engine: "auto-chare",
            model: chare,
            events: Vec::new(),
            k: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtdinfer_regex::display::render;

    fn bag(al: &mut Alphabet, words: &[&str]) -> WordBag {
        words.iter().map(|w| al.word_from_chars(w)).collect()
    }

    fn derive_str(al: &mut Alphabet, words: &[&str]) -> (String, usize) {
        let state = KoreState::learn_counted(&bag(al, words));
        let out = state.derive();
        (out.model.render(al), out.k)
    }

    #[test]
    fn repeated_symbol_yields_k2_ore() {
        let mut al = Alphabet::new();
        let (r, k) = derive_str(&mut al, &["aba"]);
        assert_eq!(r, "a b a");
        assert_eq!(k, 2);
    }

    #[test]
    fn optional_second_occurrence() {
        let mut al = Alphabet::new();
        let (r, k) = derive_str(&mut al, &["aba", "ab"]);
        assert_eq!(r, "a b a?");
        assert_eq!(k, 2);
    }

    #[test]
    fn sore_language_stays_k1() {
        let mut al = Alphabet::new();
        let (_, k) = derive_str(&mut al, &["abc", "ac"]);
        assert_eq!(k, 1);
    }

    #[test]
    fn degenerate_models() {
        let empty = KoreState::new();
        assert_eq!(empty.derive().model, InferredModel::Empty);
        let mut eps = KoreState::new();
        eps.absorb(&Vec::new());
        assert_eq!(eps.derive().model, InferredModel::EpsilonOnly);
    }

    #[test]
    fn occurrences_beyond_max_k_collapse() {
        let mut al = Alphabet::new();
        let state = KoreState::learn_counted(&bag(&mut al, &["aaaaaaa"]));
        assert_eq!(state.k_max(), MAX_K);
        let out = state.derive();
        let r = out.model.as_regex().expect("regex");
        assert!(check_deterministic(r).is_ok());
        // The derived model must still accept the sample word.
        assert!(out.model.matches(&al.word_from_chars("aaaaaaa")));
    }

    #[test]
    fn derivation_is_sound_on_sample() {
        let mut al = Alphabet::new();
        let words = ["aba", "ab", "ba", "abab", "b"];
        let state = KoreState::learn_counted(&bag(&mut al, &words));
        let out = state.derive();
        for w in words {
            assert!(
                out.model.matches(&al.word_from_chars(w)),
                "k-ORE must accept sample word {w:?}"
            );
        }
        if let Some(r) = out.model.as_regex() {
            assert!(
                check_deterministic(r).is_ok(),
                "k-ORE must be deterministic"
            );
        }
    }

    #[test]
    fn text_round_trip() {
        let mut al = Alphabet::new();
        let state = KoreState::learn_counted(&bag(&mut al, &["aba", "ab", "", "ccc"]));
        let text = state.to_text(&al);
        let back = KoreState::from_text(&text, &mut al).expect("parse");
        assert_eq!(back, state);
        // Empty state round trip.
        let empty = KoreState::new();
        let text = empty.to_text(&al);
        assert_eq!(KoreState::from_text(&text, &mut al).expect("parse"), empty);
    }

    #[test]
    fn from_text_rejects_garbage() {
        let mut al = Alphabet::new();
        assert!(KoreState::from_text("edge a 0 b 1", &mut al).is_err());
        assert!(KoreState::from_text("edge a 9 b 1", &mut al).is_err());
        assert!(KoreState::from_text("bogus record", &mut al).is_err());
        assert!(KoreState::from_text("words lots", &mut al).is_err());
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1 << 40), 40);
    }

    #[test]
    fn mdl_prefers_tight_model_on_repetitive_sample() {
        let mut al = Alphabet::new();
        // Many copies of `aba`: the k-ORE `a b a` costs far fewer data bits
        // than the SORE repair (which must generalize to a loop).
        let mut words = WordBag::new();
        words.insert_n(al.word_from_chars("aba"), 50);
        let kore = KoreState::learn_counted(&words).derive();
        let sore = crate::idtd::idtd_traced(&Soa::learn(words.words()), IdtdConfig::default());
        let kore_cost = mdl_cost(&kore.model, al.len(), &words);
        let sore_cost = mdl_cost(&sore.0, al.len(), &words);
        assert!(
            kore_cost < sore_cost,
            "k-ORE ({kore_cost}) should beat SORE ({sore_cost}) on {}",
            render(kore.model.as_regex().unwrap(), &al)
        );
        let pick = pick_auto(sore, kore, InferredModel::Empty, al.len(), &words);
        assert_eq!(pick.engine, "auto-kore");
        assert_eq!(pick.k, 2);
    }

    #[test]
    fn auto_breaks_ties_toward_sore() {
        let mut al = Alphabet::new();
        let words = bag(&mut al, &["ab", "a"]);
        let sore = crate::idtd::idtd_traced(&Soa::learn(words.words()), IdtdConfig::default());
        let kore = KoreState::learn_counted(&words).derive();
        // SORE language ⇒ the k-ORE settles at k = 1 with the same model,
        // the costs tie, and the tie breaks to SORE.
        let pick = pick_auto(sore, kore, InferredModel::Empty, al.len(), &words);
        assert_eq!(pick.engine, "auto-sore");
    }

    #[test]
    fn infeasible_costs() {
        let mut al = Alphabet::new();
        let words = bag(&mut al, &["a"]);
        assert_eq!(
            mdl_cost(&InferredModel::Empty, al.len(), &words),
            INFEASIBLE
        );
        assert_eq!(
            mdl_cost(&InferredModel::EpsilonOnly, al.len(), &words),
            INFEASIBLE
        );
        let b = al.intern("b");
        let model = InferredModel::Regex(Regex::Symbol(b));
        assert_eq!(mdl_cost(&model, al.len(), &words), INFEASIBLE);
    }
}
