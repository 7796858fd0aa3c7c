//! End-to-end DTD inference: corpus → per-element learner → DTD.
//!
//! For every element name the corpus supplies the multiset of child-name
//! sequences; the chosen engine (CRX for sparse data, iDTD for rich data —
//! §1.2's two scenarios) learns one expression per element, and text/child
//! mixtures are mapped onto the DTD content-spec forms.

use crate::attlist::{infer_attdef_from_bag, AttInferenceOptions};
use crate::dtd::{ContentSpec, Dtd};
use crate::extract::Corpus;
use dtdinfer_automata::soa::Soa;
use dtdinfer_core::crx::crx_counted;
use dtdinfer_core::idtd::{idtd_traced, Event, IdtdConfig};
use dtdinfer_core::kore::{pick_auto, KoreState};
use dtdinfer_core::model::InferredModel;
use dtdinfer_core::noise::SupportSoa;
use dtdinfer_regex::alphabet::Sym;
use std::collections::BTreeSet;
use std::time::Instant;

/// Which learning algorithm drives the per-element inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InferenceEngine {
    /// CRX (§7): CHAREs, strong generalization, best for small samples.
    Crx,
    /// iDTD (§6): SOREs, more specific, best for abundant data.
    Idtd,
    /// iDTD with the §9 noise treatment: edges below the support threshold
    /// are dropped when rewriting gets stuck.
    IdtdNoise {
        /// Minimum support an edge needs to survive.
        threshold: u64,
    },
    /// k-ORE (the successor paper): k-occurrence automata over a marked
    /// alphabet, for content models where a symbol repeats (`a b a`).
    Kore,
    /// MDL model chooser: picks SORE vs k-ORE vs CHARE per element by
    /// two-part description length.
    Auto,
}

/// Example:
///
/// ```
/// use dtdinfer_xml::extract::Corpus;
/// use dtdinfer_xml::infer::{infer_dtd, InferenceEngine};
///
/// let mut corpus = Corpus::new();
/// corpus
///     .add_document("<order><item/><item/><note>rush</note></order>")
///     .unwrap();
/// corpus.add_document("<order><item/></order>").unwrap();
/// let dtd = infer_dtd(&corpus, InferenceEngine::Crx);
/// assert!(dtd.serialize().contains("<!ELEMENT order (item+, note?)>"));
/// ```
/// Infers a complete DTD for the corpus.
pub fn infer_dtd(corpus: &Corpus, engine: InferenceEngine) -> Dtd {
    infer_dtd_with_stats(corpus, engine).0
}

/// Per-element derivation telemetry: which engine ran, how much data it
/// saw, what the derivation did, and what it cost. Powers the
/// `dtdinfer stats` report.
#[derive(Debug, Clone)]
pub struct ElementReport {
    /// Element name.
    pub name: String,
    /// What produced the content model: `crx`, `idtd`, `idtd-noise`,
    /// `kore`, an `auto-*` chooser verdict (`auto-sore`, `auto-kore`,
    /// `auto-chare`), or one of the degenerate content kinds (`mixed`,
    /// `pcdata`, `empty`).
    pub engine: &'static str,
    /// Total occurrences of the element across the corpus.
    pub occurrences: u64,
    /// Sample size: number of child-name sequences the learner consumed.
    pub words: usize,
    /// Rewrite-rule applications in the iDTD derivation (0 for CRX).
    pub rewrite_steps: usize,
    /// Repair-rule invocations in the iDTD derivation (0 for CRX).
    pub repairs: usize,
    /// Merge-everything fallback firings (0 unless iDTD got stuck).
    pub fallbacks: usize,
    /// Size of the resulting content model, in regex tokens.
    pub expr_size: usize,
    /// Wall-clock inference time for this element.
    pub duration_ns: u64,
}

/// Like [`infer_dtd`], additionally returning one [`ElementReport`] per
/// element (sorted by element name, matching corpus iteration order).
pub fn infer_dtd_with_stats(corpus: &Corpus, engine: InferenceEngine) -> (Dtd, Vec<ElementReport>) {
    let _span = dtdinfer_obs::span("xml.infer_dtd");
    // Canonicalize so document arrival order cannot leak into the output:
    // every learner breaks ties in symbol order, which equals name order
    // after this remap. The returned DTD's alphabet is the canonical one.
    let corpus = &corpus.canonicalized();
    let mut dtd = Dtd {
        alphabet: corpus.alphabet.clone(),
        root: corpus.root(),
        elements: Default::default(),
        attlists: Default::default(),
    };
    let mut reports = Vec::with_capacity(corpus.elements.len());
    for (&sym, facts) in &corpus.elements {
        let (spec, report) = infer_element(corpus, sym, engine);
        if dtdinfer_obs::is_enabled() {
            dtdinfer_obs::count_labeled("xml.engine", report.engine, 1);
            dtdinfer_obs::observe("xml.element.expr_size", report.expr_size as u64);
        }
        // Trace-only: the serve daemon derives on every ingest, and one
        // event per element would flood its crash flight ring.
        if dtdinfer_obs::trace_enabled() {
            dtdinfer_obs::event(
                "xml.element",
                &[
                    ("name", report.name.clone()),
                    ("engine", report.engine.to_owned()),
                    ("words", report.words.to_string()),
                    ("repairs", report.repairs.to_string()),
                ],
            );
        }
        dtd.elements.insert(sym, spec);
        reports.push(report);
        let defs: Vec<_> = facts
            .attributes
            .iter()
            .map(|(attr, values)| {
                infer_attdef_from_bag(
                    attr,
                    values,
                    facts.occurrences,
                    AttInferenceOptions::default(),
                )
            })
            .collect();
        if !defs.is_empty() {
            dtd.attlists.insert(sym, defs);
        }
    }
    (dtd, reports)
}

impl Corpus {
    /// Derives the DTD and per-element reports: [`infer_dtd_with_stats`]
    /// as a method, the spelling the sharded engine uses.
    pub fn derive(&self, engine: InferenceEngine) -> (Dtd, Vec<ElementReport>) {
        infer_dtd_with_stats(self, engine)
    }
}

/// Content-model size in tokens, for the stats report.
pub fn spec_size(spec: &ContentSpec) -> usize {
    match spec {
        ContentSpec::Empty | ContentSpec::Any | ContentSpec::PcData => 1,
        ContentSpec::Mixed(syms) => syms.len() + 1,
        ContentSpec::Children(r) => r.token_count(),
    }
}

fn infer_element(
    corpus: &Corpus,
    sym: Sym,
    engine: InferenceEngine,
) -> (ContentSpec, ElementReport) {
    let started = Instant::now();
    let facts = &corpus.elements[&sym];
    let mut engine_used = match engine {
        InferenceEngine::Crx => "crx",
        InferenceEngine::Idtd => "idtd",
        InferenceEngine::IdtdNoise { .. } => "idtd-noise",
        InferenceEngine::Kore => "kore",
        InferenceEngine::Auto => "auto",
    };
    let (mut rewrite_steps, mut repairs, mut fallbacks) = (0usize, 0usize, 0usize);
    let has_text = facts.has_text();
    let has_children = facts.has_element_children();
    let spec = match (has_text, has_children) {
        // Never any content observed: EMPTY is the tight choice (the
        // specialization-over-generalization default of §1.2's rich-data
        // scenario; a later document with text would flip this to PCDATA).
        (false, false) => {
            engine_used = "empty";
            ContentSpec::Empty
        }
        (true, false) => {
            engine_used = "pcdata";
            ContentSpec::PcData
        }
        (true, true) => {
            // Mixed content: DTDs only allow (#PCDATA | a | b)*. This is
            // exactly the §9 XHTML-paragraph shape, so the noise engine's
            // support threshold applies here too: child names occurring
            // fewer than `threshold` times are treated as intruders.
            let mut support: std::collections::BTreeMap<Sym, u64> = Default::default();
            for (w, n) in facts.words.iter() {
                for &s in w {
                    *support.entry(s).or_insert(0) += u64::from(n);
                }
            }
            let threshold = match engine {
                InferenceEngine::IdtdNoise { threshold } => threshold,
                _ => 0,
            };
            let syms: BTreeSet<Sym> = support
                .into_iter()
                .filter(|&(_, count)| count >= threshold.max(1))
                .map(|(s, _)| s)
                .collect();
            engine_used = "mixed";
            ContentSpec::Mixed(syms.into_iter().collect())
        }
        (false, true) => {
            // Every learner consumes each distinct word once: the SOA is a
            // set union (count-invariant), CRX and the support counters
            // take the multiplicity as a weight.
            let model = match engine {
                InferenceEngine::Crx => crx_counted(facts.words.iter()),
                InferenceEngine::Idtd => {
                    let soa = Soa::learn(facts.words.words());
                    let (model, trace) = idtd_traced(&soa, IdtdConfig::default());
                    for e in &trace {
                        match e {
                            Event::Rewrite(_) => rewrite_steps += 1,
                            Event::Repair { .. } => repairs += 1,
                            Event::Fallback => fallbacks += 1,
                        }
                    }
                    model
                }
                InferenceEngine::IdtdNoise { threshold } => {
                    SupportSoa::learn_counted(facts.words.iter()).infer_denoised(threshold)
                }
                InferenceEngine::Kore => {
                    let outcome = KoreState::learn_counted(&facts.words).derive();
                    for e in &outcome.events {
                        match e {
                            Event::Rewrite(_) => rewrite_steps += 1,
                            Event::Repair { .. } => repairs += 1,
                            Event::Fallback => fallbacks += 1,
                        }
                    }
                    outcome.model
                }
                InferenceEngine::Auto => {
                    let soa = Soa::learn(facts.words.words());
                    let sore = idtd_traced(&soa, IdtdConfig::default());
                    let kore = KoreState::learn_counted(&facts.words).derive();
                    let chare = crx_counted(facts.words.iter());
                    let pick = pick_auto(sore, kore, chare, corpus.alphabet.len(), &facts.words);
                    engine_used = pick.engine;
                    for e in &pick.events {
                        match e {
                            Event::Rewrite(_) => rewrite_steps += 1,
                            Event::Repair { .. } => repairs += 1,
                            Event::Fallback => fallbacks += 1,
                        }
                    }
                    pick.model
                }
            };
            match model {
                InferredModel::Regex(r) => ContentSpec::Children(r),
                InferredModel::EpsilonOnly | InferredModel::Empty => ContentSpec::Empty,
            }
        }
    };
    let report = ElementReport {
        name: corpus.alphabet.name(sym).to_owned(),
        engine: engine_used,
        occurrences: facts.occurrences,
        words: facts.words.total() as usize,
        rewrite_steps,
        repairs,
        fallbacks,
        expr_size: spec_size(&spec),
        duration_ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
    };
    (spec, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus(docs: &[&str]) -> Corpus {
        let mut c = Corpus::new();
        for d in docs {
            c.add_document(d).unwrap();
        }
        c
    }

    #[test]
    fn end_to_end_simple_dtd() {
        let c = corpus(&[
            "<book><title>T1</title><author>A</author><author>B</author></book>",
            "<book><title>T2</title><author>C</author></book>",
        ]);
        let dtd = infer_dtd(&c, InferenceEngine::Crx);
        let text = dtd.serialize();
        assert!(text.contains("<!ELEMENT book (title, author+)>"), "{text}");
        assert!(text.contains("<!ELEMENT title (#PCDATA)>"));
        assert!(text.contains("<!ELEMENT author (#PCDATA)>"));
        // The inferred DTD validates its own training data.
        for doc in [
            "<book><title>T1</title><author>A</author><author>B</author></book>",
            "<book><title>T2</title><author>C</author></book>",
        ] {
            assert_eq!(dtd.validate(doc).unwrap(), Vec::<String>::new());
        }
    }

    #[test]
    fn idtd_engine_gives_sore() {
        let c = corpus(&[
            "<r><a/><b/><a/><b/><c/></r>",
            "<r><a/><a/><c/></r>",
            "<r><b/><b/><c/></r>",
            "<r><b/><a/><c/></r>",
            "<r><c/></r>",
        ]);
        let dtd = infer_dtd(&c, InferenceEngine::Idtd);
        let canon = c.canonicalized();
        let r = dtd.alphabet.get("r").unwrap();
        match &dtd.elements[&r] {
            ContentSpec::Children(regex) => {
                assert!(dtdinfer_regex::classify::is_sore(regex));
                // Training sequences all match (over the canonical corpus,
                // whose symbols the DTD's expressions are written in).
                for w in canon.sequences_of("r").unwrap().words() {
                    assert!(dtdinfer_automata::nfa::regex_matches(regex, w));
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn mixed_content_detected() {
        let c = corpus(&["<p>text <em>x</em> more <strong>y</strong></p>"]);
        let dtd = infer_dtd(&c, InferenceEngine::Crx);
        let p = dtd.alphabet.get("p").unwrap();
        match &dtd.elements[&p] {
            ContentSpec::Mixed(syms) => assert_eq!(syms.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_elements_declared_empty() {
        let c = corpus(&["<r><hr/><hr/></r>"]);
        let dtd = infer_dtd(&c, InferenceEngine::Crx);
        let hr = dtd.alphabet.get("hr").unwrap();
        assert_eq!(dtd.elements[&hr], ContentSpec::Empty);
    }

    #[test]
    fn root_is_set() {
        let c = corpus(&["<top><a/></top>"]);
        let dtd = infer_dtd(&c, InferenceEngine::Crx);
        assert_eq!(dtd.root, dtd.alphabet.get("top"));
        assert!(dtd.serialize().starts_with("<!ELEMENT top"));
    }

    #[test]
    fn kore_engine_learns_repeated_symbol() {
        // `a b a?` has no SORE; the k-ORE engine recovers it exactly.
        let c = corpus(&["<r><a/><b/><a/></r>", "<r><a/><b/></r>"]);
        let dtd = infer_dtd(&c, InferenceEngine::Kore);
        let text = dtd.serialize();
        assert!(text.contains("<!ELEMENT r (a, b, a?)>"), "{text}");
        for doc in ["<r><a/><b/><a/></r>", "<r><a/><b/></r>"] {
            assert_eq!(dtd.validate(doc).unwrap(), Vec::<String>::new());
        }
    }

    #[test]
    fn auto_engine_validates_sample_and_reports_choice() {
        let c = corpus(&[
            "<r><a/><b/><a/></r>",
            "<r><a/><b/><a/></r>",
            "<r><a/><b/></r>",
        ]);
        let (dtd, reports) = infer_dtd_with_stats(&c, InferenceEngine::Auto);
        let r = reports.iter().find(|rep| rep.name == "r").unwrap();
        assert!(
            r.engine.starts_with("auto-"),
            "chooser should stamp its verdict, got {}",
            r.engine
        );
        for doc in ["<r><a/><b/><a/></r>", "<r><a/><b/></r>"] {
            assert_eq!(dtd.validate(doc).unwrap(), Vec::<String>::new());
        }
    }

    #[test]
    fn noise_engine_cleans_mixed_content() {
        // The §9 XHTML scenario shape: paragraphs mixing text with em/strong,
        // plus a rare disallowed h1 intruder.
        let mut docs: Vec<String> = Vec::new();
        for i in 0..40 {
            docs.push(format!(
                "<p>text {i} <em>x</em> more <strong>y</strong></p>"
            ));
        }
        docs.push("<p>bad <h1>shout</h1></p>".to_owned());
        let mut c = Corpus::new();
        for d in &docs {
            c.add_document(d).unwrap();
        }
        let noisy = infer_dtd(&c, InferenceEngine::Idtd);
        let clean = infer_dtd(&c, InferenceEngine::IdtdNoise { threshold: 5 });
        let p_sym = noisy.alphabet.get("p").unwrap();
        let h1 = noisy.alphabet.get("h1").unwrap();
        match (&noisy.elements[&p_sym], &clean.elements[&p_sym]) {
            (ContentSpec::Mixed(with), ContentSpec::Mixed(without)) => {
                assert!(with.contains(&h1));
                assert!(!without.contains(&h1));
                assert_eq!(without.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn noise_engine_drops_rare_intruders() {
        let mut docs: Vec<String> = Vec::new();
        for _ in 0..30 {
            docs.push("<r><a/><b/></r>".to_owned());
            docs.push("<r><b/><a/></r>".to_owned());
            docs.push("<r><a/></r>".to_owned());
            docs.push("<r><b/></r>".to_owned());
            docs.push("<r><a/><a/></r>".to_owned());
            docs.push("<r><b/><b/></r>".to_owned());
            docs.push("<r></r>".to_owned());
        }
        docs.push("<r><z/></r>".to_owned());
        let mut c = Corpus::new();
        for d in &docs {
            c.add_document(d).unwrap();
        }
        let dtd = infer_dtd(&c, InferenceEngine::IdtdNoise { threshold: 5 });
        let r = dtd.alphabet.get("r").unwrap();
        let z = dtd.alphabet.get("z").unwrap();
        match &dtd.elements[&r] {
            ContentSpec::Children(regex) => {
                assert!(!regex.symbols().contains(&z), "{}", dtd.serialize());
            }
            other => panic!("{other:?}"),
        }
    }
}
