//! Corpus extraction: XML documents → per-element counted child words.
//!
//! DTD inference reduces to learning one regular expression per element
//! name from the multiset of strings occurring below that element (§1.2).
//! A [`Corpus`] accumulates exactly those words, as one counted multiset
//! per element name, along with the text and attribute samples needed for
//! the XSD datatype heuristics of §9. Every learner's output is a pure
//! function of these facts, so a corpus is the whole inference state: the
//! sharded engine merges corpora, and snapshots persist them.

use crate::parser::{XmlError, XmlEvent, XmlPullParser};
use crate::samples::SampleBag;
use dtdinfer_regex::alphabet::{Alphabet, Sym, Word};
use dtdinfer_regex::multiset::WordBag;
use std::collections::BTreeMap;

/// Everything observed about one element name across the corpus.
#[derive(Debug, Clone, Default)]
pub struct ElementFacts {
    /// The child-name sequences observed under the element, as a counted
    /// multiset: one `(word, count)` entry per *distinct* sequence. Real
    /// corpora repeat shapes heavily, so this is far smaller than one
    /// word per occurrence, and each learner consumes each distinct word
    /// once with its multiplicity.
    pub words: WordBag,
    /// Non-whitespace text chunks observed directly under the element
    /// (bounded reservoir; exact total and datatype mask).
    pub text_samples: SampleBag,
    /// Attribute name → sampled values (bounded reservoir per attribute).
    pub attributes: BTreeMap<String, SampleBag>,
    /// Total number of occurrences.
    pub occurrences: u64,
}

impl ElementFacts {
    /// Whether the element ever had element children.
    pub fn has_element_children(&self) -> bool {
        self.words.words().any(|w| !w.is_empty())
    }

    /// Whether the element ever had character data.
    pub fn has_text(&self) -> bool {
        !self.text_samples.is_empty()
    }

    /// Folds in another corpus's facts for the same element name, whose
    /// child symbols `f` translates into this corpus's alphabet.
    fn merge(&mut self, other: &ElementFacts, f: impl FnMut(Sym) -> Sym) {
        self.words.merge(&other.words.map_symbols(f));
        self.text_samples.merge(&other.text_samples);
        for (attr, values) in &other.attributes {
            self.attributes
                .entry(attr.clone())
                .or_default()
                .merge(values);
        }
        self.occurrences += other.occurrences;
    }
}

/// Reusable extraction scratch: the open-element stack and a pool of
/// recycled child [`Word`]s. A caller that extracts many documents reuses
/// one arena, so the steady-state loop allocates only on first sight of a
/// distinct child sequence. Scratch is not state: a clone starts empty.
#[derive(Debug, Default)]
pub struct ParseArena {
    /// Open-element stack: (element symbol, children seen so far).
    stack: Vec<(Sym, Word)>,
    /// Recycled `Word` buffers.
    spare: Vec<Word>,
}

impl Clone for ParseArena {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl ParseArena {
    /// A fresh arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns every in-progress buffer to the spare pool (after a parse
    /// error aborts a document mid-way, so the arena is clean for the
    /// next one).
    fn recycle(&mut self) {
        while let Some((_, mut w)) = self.stack.pop() {
            w.clear();
            self.spare.push(w);
        }
    }
}

/// A corpus of XML documents reduced to inference-ready statistics.
/// Memory is O(distinct child sequences) plus bounded samples, not
/// O(corpus).
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    /// Interned element names (arrival order; derivation canonicalizes).
    pub alphabet: Alphabet,
    /// Facts per element.
    pub elements: BTreeMap<Sym, ElementFacts>,
    /// Root elements observed, with counts.
    pub roots: BTreeMap<Sym, u64>,
    /// Number of documents absorbed.
    pub num_documents: u64,
    /// The scratch [`Corpus::add_document`] reuses across documents.
    scratch: ParseArena,
}

impl Corpus {
    /// An empty corpus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses one document and folds its statistics in, attributing any
    /// parse error to `source` (usually the file path).
    pub fn add_document_from(&mut self, doc: &str, source: &str) -> Result<(), XmlError> {
        self.add_document(doc).map_err(|e| e.with_source(source))
    }

    /// Parses one document and folds its statistics in.
    pub fn add_document(&mut self, doc: &str) -> Result<(), XmlError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = self.absorb_document_with(doc, &mut scratch);
        self.scratch = scratch;
        result
    }

    /// Same as [`Corpus::add_document`]; the engine's name for it.
    pub fn absorb_document(&mut self, doc: &str) -> Result<(), XmlError> {
        self.add_document(doc)
    }

    /// [`Corpus::add_document`] with caller-owned scratch: each closed
    /// element's child word goes straight into that element's multiset,
    /// cloned only on first sight of the shape.
    pub fn absorb_document_with(
        &mut self,
        doc: &str,
        arena: &mut ParseArena,
    ) -> Result<(), XmlError> {
        // Per-document tallies, flushed to the metrics registry at the end
        // (one registry lock per document instead of one per event).
        let (mut n_elems, mut n_attrs, mut n_text) = (0u64, 0u64, 0u64);
        let mut parser = XmlPullParser::new(doc);
        let mut seen_root = false;
        loop {
            let event = match parser.next() {
                Ok(Some(event)) => event,
                Ok(None) => break,
                Err(e) => {
                    dtdinfer_obs::count("xml.parse_errors", 1);
                    arena.recycle();
                    return Err(e);
                }
            };
            match event {
                XmlEvent::StartElement {
                    name, attributes, ..
                } => {
                    n_elems += 1;
                    n_attrs += attributes.len() as u64;
                    let sym = self.alphabet.intern(name);
                    let facts = self.elements.entry(sym).or_default();
                    facts.occurrences += 1;
                    for (attr, value) in &attributes {
                        // Allocate the attribute name only the first time
                        // it is seen on this element.
                        if let Some(bag) = facts.attributes.get_mut(*attr) {
                            bag.insert(value);
                        } else {
                            facts
                                .attributes
                                .entry((*attr).to_owned())
                                .or_default()
                                .insert(value);
                        }
                    }
                    if let Some((_, children)) = arena.stack.last_mut() {
                        children.push(sym);
                    } else if !seen_root {
                        seen_root = true;
                        *self.roots.entry(sym).or_insert(0) += 1;
                    }
                    let children = arena.spare.pop().unwrap_or_default();
                    arena.stack.push((sym, children));
                }
                XmlEvent::EndElement { .. } => {
                    let (sym, mut children) = arena.stack.pop().expect("parser checks balance");
                    self.elements
                        .entry(sym)
                        .or_default()
                        .words
                        .insert_ref(&children);
                    children.clear();
                    arena.spare.push(children);
                }
                XmlEvent::Text(text) => {
                    let trimmed = text.trim();
                    if !trimmed.is_empty() {
                        n_text += 1;
                        if let Some(&mut (sym, _)) = arena.stack.last_mut() {
                            self.elements
                                .entry(sym)
                                .or_default()
                                .text_samples
                                .insert(trimmed);
                        }
                    }
                }
                XmlEvent::Comment(_)
                | XmlEvent::ProcessingInstruction(_)
                | XmlEvent::Doctype(_) => {}
            }
        }
        self.num_documents += 1;
        dtdinfer_obs::count("xml.documents", 1);
        // Every ingest (pool, serve, journal replay) absorbs here, so the
        // engine-level counter the serve metrics report is counted here too.
        dtdinfer_obs::count("engine.documents", 1);
        dtdinfer_obs::count("xml.elements", n_elems);
        dtdinfer_obs::count("xml.attributes", n_attrs);
        dtdinfer_obs::count("xml.text_chunks", n_text);
        Ok(())
    }

    /// Merges another corpus in, reconciling the two alphabets by element
    /// name: multisets and samples are unioned, counts added. Commutative
    /// up to alphabet interning order, which derivation canonicalizes
    /// away, so a sharded ingest derives the same DTD however documents
    /// were distributed over shards.
    pub fn merge(&mut self, other: &Corpus) {
        let map: Vec<Sym> = other
            .alphabet
            .entries()
            .map(|(_, name)| self.alphabet.intern(name))
            .collect();
        let f = |s: Sym| map[s.index()];
        for (&sym, facts) in &other.elements {
            self.elements.entry(f(sym)).or_default().merge(facts, f);
        }
        for (&root, &count) in &other.roots {
            *self.roots.entry(f(root)).or_insert(0) += count;
        }
        self.num_documents += other.num_documents;
    }

    /// The dominant root element (most documents), if any. Ties go to the
    /// lexicographically smallest name, so the choice does not depend on
    /// document arrival order.
    pub fn root(&self) -> Option<Sym> {
        self.roots
            .iter()
            .max_by(|a, b| {
                a.1.cmp(b.1)
                    .then_with(|| self.alphabet.name(*b.0).cmp(self.alphabet.name(*a.0)))
            })
            .map(|(&sym, _)| sym)
    }

    /// A copy of the corpus re-interned over a name-sorted alphabet, so
    /// symbol order equals lexicographic name order. Every learner in this
    /// workspace breaks ties in symbol order, so inference over the
    /// canonical corpus is independent of document arrival order.
    pub fn canonicalized(&self) -> Corpus {
        let mut names: Vec<&str> = self.alphabet.entries().map(|(_, n)| n).collect();
        if names.windows(2).all(|w| w[0] < w[1]) {
            return self.clone();
        }
        names.sort_unstable();
        let alphabet = Alphabet::from_names(&names);
        let map = |s: Sym| alphabet.get(self.alphabet.name(s)).expect("same name set");
        let elements = self
            .elements
            .iter()
            .map(|(&sym, facts)| {
                let facts = ElementFacts {
                    words: facts.words.map_symbols(map),
                    text_samples: facts.text_samples.clone(),
                    attributes: facts.attributes.clone(),
                    occurrences: facts.occurrences,
                };
                (map(sym), facts)
            })
            .collect();
        let roots = self.roots.iter().map(|(&s, &c)| (map(s), c)).collect();
        Corpus {
            alphabet,
            elements,
            roots,
            num_documents: self.num_documents,
            scratch: ParseArena::new(),
        }
    }

    /// The child-sequence multiset of one element name.
    pub fn sequences_of(&self, name: &str) -> Option<&WordBag> {
        let sym = self.alphabet.get(name)?;
        self.elements.get(&sym).map(|f| &f.words)
    }

    /// Total number of extracted words (occurrences, not distinct
    /// sequences) across all elements.
    pub fn total_sequences(&self) -> usize {
        self.elements
            .values()
            .map(|f| f.words.total() as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_child_sequences() {
        let mut c = Corpus::new();
        c.add_document("<r><a/><b/><a/></r>").unwrap();
        c.add_document("<r><b/></r>").unwrap();
        let r = c.sequences_of("r").unwrap();
        assert_eq!(r.total(), 2);
        let words: Vec<String> = r.words().map(|w| c.alphabet.render_word(w, " ")).collect();
        assert_eq!(words, vec!["a b a", "b"]);
        // Leaves have empty sequences, deduplicated under one count.
        assert_eq!(c.sequences_of("a").unwrap().as_slice(), &[(vec![], 2)]);
    }

    #[test]
    fn repeated_shapes_collapse_into_counts() {
        let mut c = Corpus::new();
        for _ in 0..5 {
            c.add_document("<r><a/><b/></r>").unwrap();
        }
        c.add_document("<r><b/></r>").unwrap();
        let r = c.sequences_of("r").unwrap();
        assert_eq!(r.distinct(), 2, "two distinct shapes");
        assert_eq!(r.total(), 6, "six occurrences");
        let counts: Vec<u32> = r.iter().map(|(_, n)| n).collect();
        assert_eq!(counts, vec![5, 1]);
    }

    #[test]
    fn text_and_attributes_sampled() {
        let mut c = Corpus::new();
        c.add_document(r#"<r id="7"><t>  hello </t><t>42</t></r>"#)
            .unwrap();
        let t = c.alphabet.get("t").unwrap();
        let texts: Vec<_> = c.elements[&t].text_samples.entries().collect();
        assert_eq!(texts, vec![("42", 1), ("hello", 1)]);
        let r = c.alphabet.get("r").unwrap();
        let ids: Vec<_> = c.elements[&r].attributes["id"].entries().collect();
        assert_eq!(ids, vec![("7", 1)]);
        assert!(c.elements[&t].has_text());
        assert!(!c.elements[&t].has_element_children());
        assert!(c.elements[&r].has_element_children());
    }

    #[test]
    fn text_and_attribute_memory_is_bounded() {
        // A corpus with far more distinct values than the reservoir cap:
        // retained sample counts stay at the cap while totals stay exact.
        let mut c = Corpus::new();
        let cap = crate::samples::DEFAULT_SAMPLE_CAP;
        for i in 0..(cap * 10) {
            c.add_document(&format!(r#"<r k="val{i}"><t>text {i}</t></r>"#))
                .unwrap();
        }
        let t = c.alphabet.get("t").unwrap();
        let bag = &c.elements[&t].text_samples;
        assert_eq!(bag.distinct_retained(), cap);
        assert!(bag.overflowed());
        assert_eq!(bag.total(), (cap * 10) as u64);
        let r = c.alphabet.get("r").unwrap();
        let ids = &c.elements[&r].attributes["k"];
        assert_eq!(ids.distinct_retained(), cap);
        assert_eq!(ids.total(), (cap * 10) as u64);
    }

    #[test]
    fn parse_error_carries_source_when_named() {
        let mut c = Corpus::new();
        let err = c
            .add_document_from("<r><a></r>", "corpus/broken.xml")
            .unwrap_err();
        assert_eq!(err.source.as_deref(), Some("corpus/broken.xml"));
        assert!(err.to_string().starts_with("corpus/broken.xml: "));
    }

    #[test]
    fn root_detection() {
        let mut c = Corpus::new();
        c.add_document("<r><a/></r>").unwrap();
        c.add_document("<r/>").unwrap();
        c.add_document("<other/>").unwrap();
        assert_eq!(c.root(), c.alphabet.get("r"));
        assert_eq!(c.num_documents, 3);
    }

    #[test]
    fn whitespace_only_text_ignored() {
        let mut c = Corpus::new();
        c.add_document("<r>\n  <a/>\n</r>").unwrap();
        let r = c.alphabet.get("r").unwrap();
        assert!(!c.elements[&r].has_text());
    }

    #[test]
    fn scratch_recovers_from_a_parse_error() {
        // A document that fails mid-parse leaves open elements in the
        // reused scratch; the next document must start from a clean one.
        let mut c = Corpus::new();
        assert!(c.add_document("<r><a><b/>").is_err());
        c.add_document("<s><a/><a/></s>").unwrap();
        let s = c.sequences_of("s").unwrap();
        let words: Vec<String> = s.words().map(|w| c.alphabet.render_word(w, " ")).collect();
        assert_eq!(words, vec!["a a"]);
        assert_eq!(c.roots[&c.alphabet.get("s").unwrap()], 1);
    }

    #[test]
    fn parse_errors_propagate() {
        let mut c = Corpus::new();
        assert!(c.add_document("<r><a></r>").is_err());
    }

    #[test]
    fn canonicalized_sorts_alphabet_by_name() {
        let mut c = Corpus::new();
        c.add_document("<z><m/><a/></z>").unwrap();
        let canon = c.canonicalized();
        let names: Vec<_> = canon
            .alphabet
            .entries()
            .map(|(_, n)| n.to_owned())
            .collect();
        assert_eq!(names, vec!["a", "m", "z"]);
        // Same facts, relabeled.
        assert_eq!(canon.num_documents, 1);
        let z = canon.alphabet.get("z").unwrap();
        let word = canon.elements[&z]
            .words
            .words()
            .next()
            .expect("one sequence");
        assert_eq!(canon.alphabet.render_word(word, " "), "m a");
        assert_eq!(canon.root(), Some(z));
        // Already-canonical corpora come back unchanged.
        assert_eq!(canon.canonicalized().alphabet, canon.alphabet);
    }

    #[test]
    fn root_ties_break_by_name() {
        let mut c = Corpus::new();
        c.add_document("<z/>").unwrap();
        c.add_document("<a/>").unwrap();
        assert_eq!(c.root(), c.alphabet.get("a"));
        // More documents beat name order.
        c.add_document("<z/>").unwrap();
        assert_eq!(c.root(), c.alphabet.get("z"));
    }

    #[test]
    fn occurrence_counting() {
        let mut c = Corpus::new();
        c.add_document("<r><a/><a/><a/></r>").unwrap();
        let a = c.alphabet.get("a").unwrap();
        assert_eq!(c.elements[&a].occurrences, 3);
        assert_eq!(c.total_sequences(), 4);
    }
}
