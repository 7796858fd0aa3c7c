//! The sharded inference engine: a layer between XML extraction and the
//! per-element learners that drives §9's incremental machinery at scale.
//!
//! The paper observes that a learner's internal representation is its
//! complete memory, so the generating XML can be discarded and schemas
//! maintained as data "trickles in". Here that memory is the counted
//! child-word multiset of each element name: every learner's output is a
//! pure function of it. The state is therefore [`EngineState`], which is
//! `dtdinfer_xml::extract::Corpus` under its engine name, and a union of
//! per-document contributions, so it can be built **in parallel**:
//!
//! 1. **Shard** — a std-only worker pool ([`pool::ingest`]) pulls documents
//!    off a shared queue; each worker extracts them into a shard-local
//!    [`EngineState`], whose extraction scratch is reused across documents.
//! 2. **Merge** — shard states are combined with [`EngineState::merge`]:
//!    alphabets reconciled by name, multisets and samples unioned, counts
//!    added. Every merge is commutative, so the result is independent of
//!    how documents were distributed over shards.
//! 3. **Derive** — [`EngineState::derive`] canonicalizes the alphabet
//!    (name-sorted, making the output independent of document arrival
//!    order) and runs each learner once per distinct word; it is
//!    `dtdinfer_xml::infer::infer_dtd_with_stats`.
//!
//! [`snapshot`] persists an [`EngineState`] as a versioned text file so a
//! later run can warm-start and absorb only new documents; [`journal`]
//! makes that durable per document for the serve daemon, and [`source`]
//! lets workers load documents themselves.

pub mod journal;
pub mod pool;
pub mod snapshot;
pub mod source;

pub use dtdinfer_xml::extract::{Corpus as EngineState, ElementFacts as ElementState, ParseArena};

#[cfg(test)]
mod tests {
    use super::*;
    use dtdinfer_xml::infer::{infer_dtd_with_stats, InferenceEngine};

    fn docs() -> Vec<String> {
        let mut docs = vec![
            "<lib><book id=\"b1\"><title>T</title><author>A</author></book></lib>".to_owned(),
            "<lib><book id=\"b2\"><title>U</title><author>B</author><author>C</author></book>\
             <journal/></lib>"
                .to_owned(),
            "<lib><journal/><journal/></lib>".to_owned(),
            "<lib><note>mixed <b>x</b> tail</note></lib>".to_owned(),
        ];
        for i in 0..20 {
            docs.push(format!(
                "<lib><book id=\"g{i}\"><title>V{i}</title><author>D</author></book></lib>"
            ));
        }
        docs
    }

    fn engine_state(docs: &[String]) -> EngineState {
        let mut state = EngineState::new();
        for d in docs {
            state.absorb_document(d).unwrap();
        }
        state
    }

    #[test]
    fn derive_matches_corpus_inference_for_all_engines() {
        // The pool's arena-reusing, sharded ingestion must derive what
        // sequential extraction does, reports included.
        let docs = docs();
        let corpus = engine_state(&docs);
        for jobs in [1, 2, 3] {
            let state = pool::ingest(&docs, jobs).unwrap().state;
            for engine in [
                InferenceEngine::Crx,
                InferenceEngine::Idtd,
                InferenceEngine::IdtdNoise { threshold: 3 },
                InferenceEngine::Kore,
                InferenceEngine::Auto,
            ] {
                let (engine_dtd, engine_reports) = state.derive(engine);
                let (corpus_dtd, corpus_reports) = infer_dtd_with_stats(&corpus, engine);
                let at = format!("jobs {jobs} {engine:?}");
                assert_eq!(engine_dtd.serialize(), corpus_dtd.serialize(), "{at}");
                assert_eq!(engine_reports.len(), corpus_reports.len(), "{at}");
                for (e, c) in engine_reports.iter().zip(&corpus_reports) {
                    assert_eq!(e.name, c.name, "{at}");
                    assert_eq!(e.engine, c.engine, "{at} {}", e.name);
                    assert_eq!(e.words, c.words, "{at} {}", e.name);
                    assert_eq!(e.occurrences, c.occurrences, "{at} {}", e.name);
                    assert_eq!(e.repairs, c.repairs, "{at} {}", e.name);
                    assert_eq!(e.expr_size, c.expr_size, "{at} {}", e.name);
                }
            }
        }
    }

    #[test]
    fn merge_of_split_equals_whole() {
        let docs = docs();
        let whole = engine_state(&docs);
        for cut in [1, docs.len() / 2, docs.len() - 1] {
            let mut merged = engine_state(&docs[..cut]);
            merged.merge(&engine_state(&docs[cut..]));
            assert_eq!(merged.num_documents, whole.num_documents);
            assert_eq!(merged.total_sequences(), whole.total_sequences());
            for engine in [
                InferenceEngine::Crx,
                InferenceEngine::Idtd,
                InferenceEngine::Kore,
                InferenceEngine::Auto,
            ] {
                assert_eq!(
                    merged.derive(engine).0.serialize(),
                    whole.derive(engine).0.serialize(),
                    "cut {cut} {engine:?}"
                );
            }
        }
    }

    #[test]
    fn merge_reconciles_disjoint_interning_orders() {
        // Shard A sees <b> before <a>; shard B the reverse: the merged
        // derivation must not care.
        let mut a = EngineState::new();
        a.absorb_document("<r><b/><a/></r>").unwrap();
        let mut b = EngineState::new();
        b.absorb_document("<r><a/><c/></r>").unwrap();
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(
            ab.derive(InferenceEngine::Idtd).0.serialize(),
            ba.derive(InferenceEngine::Idtd).0.serialize()
        );
    }

    #[test]
    fn xsd_from_facts_corpus_matches_corpus_path() {
        use dtdinfer_xml::xsd::{generate_xsd, XsdOptions};
        let docs = docs();
        let state = pool::ingest(&docs, 2).unwrap().state;
        let corpus = engine_state(&docs);
        let engine_dtd = state.derive(InferenceEngine::Idtd).0;
        let corpus_dtd = infer_dtd_with_stats(&corpus, InferenceEngine::Idtd).0;
        assert_eq!(
            generate_xsd(&engine_dtd, Some(&state), XsdOptions::default()),
            generate_xsd(&corpus_dtd, Some(&corpus), XsdOptions::default())
        );
        // The merged multisets drive numeric tightening too, byte-identical
        // to the sequential path.
        let numeric = XsdOptions {
            numeric_threshold: Some(2),
        };
        assert_eq!(
            generate_xsd(&engine_dtd, Some(&state), numeric),
            generate_xsd(&corpus_dtd, Some(&corpus), numeric)
        );
    }
}
