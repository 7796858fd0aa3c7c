//! Property-based tests for the k-ORE engine: shard algebra, snapshot
//! versioning, and the k-testable specificity ladder it generalizes.
//!
//! The load-bearing fact behind all three groups is that a [`KoreState`]
//! is a pure function of the element's word *multiset* (marking commutes
//! with 2T-INF), so merge order, shard boundaries, and snapshot round
//! trips must all be invisible in the derived model.

use dtdinfer_automata::ktestable::KTestable;
use dtdinfer_core::crx::CrxState;
use dtdinfer_core::kore::KoreState;
use dtdinfer_engine::pool::ingest;
use dtdinfer_engine::{snapshot, EngineState};
use dtdinfer_regex::alphabet::{Sym, Word};
use dtdinfer_regex::multiset::WordBag;
use dtdinfer_xml::infer::InferenceEngine;
use proptest::prelude::*;

/// Strategy: a multiset of words over `n_syms` symbols, with repetition
/// within words (the territory where k-ORE differs from SORE).
fn arb_words(n_syms: u32) -> impl Strategy<Value = Vec<Word>> {
    prop::collection::vec(
        prop::collection::vec((0..n_syms).prop_map(Sym), 0..6),
        1..10,
    )
}

/// Renders child words as documents: `[a, b, a]` → `<r><a/><b/><a/></r>`.
fn docs_of(words: &[Word]) -> Vec<String> {
    words
        .iter()
        .map(|w| {
            let mut doc = String::from("<r>");
            for s in w {
                doc.push_str(&format!("<c{}/>", s.0));
            }
            doc.push_str("</r>");
            doc
        })
        .collect()
}

/// Writes `state` the way a v4 build did: the facts of a current save,
/// with each element section followed by its learner rows (the `s words`
/// support-SOA count, and `c` CRX and `k` k-ORE records learned from the
/// section's multiset).
fn as_v4(state: &EngineState) -> String {
    let canon = state.canonicalized();
    let learner_rows = |element: &dtdinfer_engine::ElementState| {
        let mut crx = CrxState::new();
        for (w, n) in element.words.iter() {
            crx.absorb_counted(w, n);
        }
        let kore = KoreState::learn_counted(&element.words);
        let mut rows = format!("s words {}\n", element.words.total());
        for (prefix, text) in [
            ("c", crx.to_text(&canon.alphabet)),
            ("k", kore.to_text(&canon.alphabet)),
        ] {
            for line in text.lines().filter(|l| !l.starts_with('#')) {
                rows.push_str(&format!("{prefix} {line}\n"));
            }
        }
        rows
    };
    // `save` writes sections in canonical symbol order, the order of
    // `canon.elements`.
    let mut sections = canon.elements.values();
    let mut out = String::new();
    let mut open = None;
    for line in snapshot::save(&canon).lines() {
        if line.starts_with("element ") {
            if let Some(element) = open.take() {
                out.push_str(&learner_rows(element));
            }
            open = sections.next();
        }
        out.push_str(if line == snapshot::HEADER {
            snapshot::LEGACY_HEADERS[0]
        } else {
            line
        });
        out.push('\n');
    }
    if let Some(element) = open {
        out.push_str(&learner_rows(element));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Splitting the documents into shards, extracting each separately,
    /// and merging is identical to extracting the whole — the multisets
    /// coincide and so does the derived k-ORE — for every split point, in
    /// either merge order.
    #[test]
    fn kore_merge_of_split_equals_whole(words in arb_words(3), cut in 0usize..10) {
        let docs = docs_of(&words);
        let cut = cut.min(docs.len());
        let whole = ingest(&docs, 1).expect("ingest").state;
        let left = ingest(&docs[..cut], 1).expect("ingest").state;
        let right = ingest(&docs[cut..], 1).expect("ingest").state;
        let expected = whole.derive(InferenceEngine::Kore).0.serialize();
        for (a, b) in [(&left, &right), (&right, &left)] {
            let mut merged = a.clone();
            merged.merge(b);
            prop_assert_eq!(snapshot::save(&merged), snapshot::save(&whole));
            prop_assert_eq!(merged.derive(InferenceEngine::Kore).0.serialize(), expected.clone());
        }
    }

    /// Incremental absorption equals batch learning: the state is a pure
    /// function of the multiset, not of arrival order.
    #[test]
    fn kore_absorb_order_is_invisible(words in arb_words(3)) {
        let bag: WordBag = words.iter().cloned().collect();
        let batch = KoreState::learn_counted(&bag);
        let mut forward = KoreState::new();
        for w in &words {
            forward.absorb(w);
        }
        prop_assert_eq!(&forward, &batch);
        let mut backward = KoreState::new();
        for w in words.iter().rev() {
            backward.absorb(w);
        }
        prop_assert_eq!(&backward, &batch);
    }

    /// Snapshot round trip: save → load → save is the identity, and the
    /// loaded state derives the same kore/auto DTDs — for any shard count
    /// used during ingestion.
    #[test]
    fn snapshot_round_trips(words in arb_words(2), jobs in 1usize..4) {
        let docs = docs_of(&words);
        let state = ingest(&docs, jobs).expect("ingest").state;
        let text = snapshot::save(&state);
        let loaded = snapshot::load(&text).expect("fresh save loads");
        prop_assert_eq!(snapshot::save(&loaded), text.clone(), "save∘load is the identity");
        for engine in [InferenceEngine::Kore, InferenceEngine::Auto] {
            prop_assert_eq!(
                loaded.derive(engine).0.serialize(),
                state.derive(engine).0.serialize(),
                "derive after round trip, {:?}", engine
            );
        }
    }

    /// v4 read-compat: a snapshot carrying learner rows loads by skipping
    /// them, the k-ORE is derived from the word rows alone, and re-saving
    /// writes the facts-only text of a fresh save.
    #[test]
    fn snapshot_v4_rebuilds_kore_exactly(words in arb_words(2)) {
        let docs = docs_of(&words);
        let state = ingest(&docs, 2).expect("ingest").state;
        let v4 = as_v4(&state);
        prop_assert!(v4.contains("\nk "), "{}", v4);
        let loaded = snapshot::load(&v4).expect("v4 snapshot loads");
        prop_assert_eq!(snapshot::save(&loaded), snapshot::save(&state));
        prop_assert_eq!(
            loaded.derive(InferenceEngine::Kore).0.serialize(),
            state.derive(InferenceEngine::Kore).0.serialize()
        );
    }

    /// KTestable::learn is antitone in k on acceptance: for every probe,
    /// acceptance at window k+1 implies acceptance at window k (larger
    /// windows only specialize). Sample words stay accepted at every k.
    #[test]
    fn ktestable_learn_is_monotone_in_k(sample in arb_words(2), probes in arb_words(2)) {
        let learned: Vec<KTestable> =
            (1..=4).map(|k| KTestable::learn(k, &sample)).collect();
        for kt in &learned {
            for w in &sample {
                prop_assert!(kt.accepts(w), "k={}: sample word {:?} rejected", kt.k, w);
            }
        }
        for p in sample.iter().chain(&probes) {
            for pair in learned.windows(2) {
                prop_assert!(
                    !pair[1].accepts(p) || pair[0].accepts(p),
                    "probe {:?}: accepted at k={} but rejected at k={}",
                    p, pair[1].k, pair[0].k
                );
            }
        }
    }
}
