//! Context-aware (XSD-strength) inference — the paper's stated future work.
//!
//! §10: "we plan to investigate the inference of XML Schema Definitions,
//! which by [9] can be abstracted by DTDs with vertical regular patterns".
//! The essential extra power of XSDs over DTDs is *context*: the same
//! element name may have different content models under different parents
//! (the 1-local case of the vertical patterns). Renaming every element to
//! its `parent/element` context turns that into plain DTD inference over
//! context names, so this module adds no learner of its own:
//!
//! 1. a [`Corpus::contextual`] corpus extracts counted child words per
//!    context name, through the one extractor;
//! 2. [`infer_contextual`] derives a DTD over context names, through the
//!    one derive path (every engine, mixed and `#PCDATA` content,
//!    canonical symbol order);
//! 3. it groups the contexts by element name, relabels each model's child
//!    contexts to element names, and merges contexts whose languages
//!    coincide (so a DTD-expressible corpus collapses back to one type per
//!    element, recovering exactly the DTD inference of the paper);
//! 4. [`contextual_xsd`] emits one named `complexType` per surviving type.

use crate::diff::{compare_regexes, Relation};
use crate::dtd::{render_spec, ContentSpec};
use crate::extract::{split_context, Corpus};
use crate::infer::{infer_dtd, InferenceEngine};
use dtdinfer_regex::alphabet::{Alphabet, Sym};
use dtdinfer_regex::ast::Regex;
use std::collections::{BTreeMap, BTreeSet};

/// One inferred type: an element name, the parent contexts it covers, and
/// its content model.
#[derive(Debug, Clone)]
pub struct ContextualType {
    /// The element this type describes.
    pub element: Sym,
    /// The parents under which this type applies (`None` = document root),
    /// in name order with the root first.
    pub parents: Vec<Option<Sym>>,
    /// The inferred content model, over element names.
    pub model: ContentSpec,
}

/// The result of contextual inference.
#[derive(Debug, Clone)]
pub struct ContextualSchema {
    /// Element names, name-sorted.
    pub alphabet: Alphabet,
    /// The inferred types: the root element's first, then by element name,
    /// then by first parent.
    pub types: Vec<ContextualType>,
    /// Document root.
    pub root: Option<Sym>,
}

impl ContextualSchema {
    /// Whether any element needed more than one type — i.e. the corpus is
    /// *not* expressible as a DTD and genuinely requires XSD typing.
    pub fn requires_xsd(&self) -> bool {
        self.types.windows(2).any(|w| w[0].element == w[1].element)
    }

    /// Renders one line per type: `element (under parents): content spec`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for t in &self.types {
            let parents: Vec<&str> = t
                .parents
                .iter()
                .map(|p| p.map_or("#root", |s| self.alphabet.name(s)))
                .collect();
            out.push_str(&format!(
                "{} (under {}): {}\n",
                self.alphabet.name(t.element),
                parents.join(", "),
                render_spec(&t.model, &self.alphabet)
            ));
        }
        out
    }
}

/// Runs contextual inference over a [`Corpus::contextual`] corpus: one
/// content model per `(parent, element)` context, then the contexts of an
/// element whose languages are equal merge into one type.
pub fn infer_contextual(corpus: &Corpus, engine: InferenceEngine) -> ContextualSchema {
    assert!(
        corpus.is_contextual(),
        "needs a Corpus::contextual() corpus"
    );
    let dtd = infer_dtd(corpus, engine);
    let names: BTreeSet<&str> = dtd
        .alphabet
        .entries()
        .map(|(_, n)| split_context(n).1)
        .collect();
    let alphabet = Alphabet::from_names(names);
    let element = |ctx: Sym| alphabet.get(split_context(dtd.alphabet.name(ctx)).1);
    let parent = |ctx: Sym| {
        let parent = split_context(dtd.alphabet.name(ctx)).0;
        parent.map(|p| alphabet.get(p).expect("a parent is an element"))
    };
    // The children of one context all share its element as their parent,
    // so relabeling them to element names is injective.
    let mut per_element: BTreeMap<Sym, Vec<(Option<Sym>, ContentSpec)>> = BTreeMap::new();
    for (&ctx, spec) in &dtd.elements {
        let model = match spec {
            ContentSpec::Children(r) => {
                ContentSpec::Children(r.try_map_symbols(element).expect("children are elements"))
            }
            ContentSpec::Mixed(syms) => ContentSpec::Mixed(
                syms.iter()
                    .map(|&s| element(s).expect("an element"))
                    .collect(),
            ),
            other => other.clone(),
        };
        let key = element(ctx).expect("a context names an element");
        per_element
            .entry(key)
            .or_default()
            .push((parent(ctx), model));
    }
    let root = dtd.root.and_then(element);
    let mut types = Vec::new();
    for (element, mut contexts) in per_element {
        contexts.sort_by_key(|&(parent, _)| parent);
        let mut groups: Vec<ContextualType> = Vec::new();
        for (parent, model) in contexts {
            match groups
                .iter_mut()
                .find(|g| same_language(&g.model, &model, &alphabet))
            {
                Some(group) => group.parents.push(parent),
                None => groups.push(ContextualType {
                    element,
                    parents: vec![parent],
                    model,
                }),
            }
        }
        types.extend(groups);
    }
    // Stable: within the root's types and the rest, element then parent
    // order stands.
    types.sort_by_key(|t| Some(t.element) != root);
    ContextualSchema {
        alphabet,
        types,
        root,
    }
}

fn same_language(a: &ContentSpec, b: &ContentSpec, alphabet: &Alphabet) -> bool {
    match (a, b) {
        (ContentSpec::Children(x), ContentSpec::Children(y)) => {
            compare_regexes(x, alphabet, y, alphabet) == Relation::Equal
        }
        _ => a == b,
    }
}

/// Emits an XSD with one named `complexType` per contextual type. Text-only
/// and mixed types are `mixed="true"`; a mixed type repeats a choice of its
/// children.
pub fn contextual_xsd(schema: &ContextualSchema) -> String {
    let mut out = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    out.push_str("<xs:schema xmlns:xs=\"http://www.w3.org/2001/XMLSchema\">\n");
    // `<element>Type`, or `<element>Type<position>` when the element has
    // several types.
    let type_names: Vec<String> = schema
        .types
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let base = schema.alphabet.name(t.element);
            let shared = schema.types.iter().filter(|u| u.element == t.element);
            if shared.count() == 1 {
                format!("{base}Type")
            } else {
                format!("{base}Type{i}")
            }
        })
        .collect();
    for (t, name) in schema.types.iter().zip(&type_names) {
        let mixed = match t.model {
            ContentSpec::PcData | ContentSpec::Mixed(_) => " mixed=\"true\"",
            _ => "",
        };
        out.push_str(&format!("  <xs:complexType name=\"{name}\"{mixed}>\n"));
        match &t.model {
            ContentSpec::Children(model) => render_particles(&mut out, model, &schema.alphabet, 4),
            ContentSpec::Mixed(children) => {
                out.push_str("    <xs:choice minOccurs=\"0\" maxOccurs=\"unbounded\">\n");
                for &c in children {
                    render_particles(&mut out, &Regex::sym(c), &schema.alphabet, 6);
                }
                out.push_str("    </xs:choice>\n");
            }
            ContentSpec::Empty | ContentSpec::Any | ContentSpec::PcData => {}
        }
        out.push_str("  </xs:complexType>\n");
    }
    if let Some(root) = schema.root {
        let ty = schema
            .types
            .iter()
            .position(|t| t.element == root && t.parents.contains(&None))
            .map_or("xs:anyType", |i| &type_names[i]);
        out.push_str(&format!(
            "  <xs:element name=\"{}\" type=\"{ty}\"/>\n",
            schema.alphabet.name(root)
        ));
    }
    out.push_str("</xs:schema>\n");
    out
}

fn render_particles(out: &mut String, r: &Regex, alphabet: &Alphabet, indent: usize) {
    // Structural rendering; local element declarations are typed
    // xs:anyType (full single-type resolution is the subject of the
    // follow-up work the paper announces).
    let pad = " ".repeat(indent);
    let (open, parts): (&str, &[Regex]) = match r {
        Regex::Symbol(s) => {
            out.push_str(&format!(
                "{pad}<xs:element name=\"{}\" type=\"xs:anyType\"/>\n",
                alphabet.name(*s)
            ));
            return;
        }
        Regex::Concat(v) => ("sequence", v),
        Regex::Union(v) => ("choice", v),
        Regex::Optional(p) => ("sequence minOccurs=\"0\"", std::slice::from_ref(p)),
        Regex::Plus(p) => ("sequence maxOccurs=\"unbounded\"", std::slice::from_ref(p)),
        Regex::Star(p) => (
            "sequence minOccurs=\"0\" maxOccurs=\"unbounded\"",
            std::slice::from_ref(p),
        ),
    };
    let close = open.split(' ').next().unwrap_or_default();
    out.push_str(&format!("{pad}<xs:{open}>\n"));
    for p in parts {
        render_particles(out, p, alphabet, indent + 2);
    }
    out.push_str(&format!("{pad}</xs:{close}>\n"));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The canonical XSD-but-not-DTD corpus: a dealer's `car` elements have
    /// different content under `new` vs `used` (the classic example from
    /// the XSD-expressiveness line of work).
    const DEALER_DOCS: &[&str] = &[
        "<dealer>\
           <new><car><model/><price/></car><car><model/><price/></car></new>\
           <used><car><model/><mileage/><price/></car></used>\
         </dealer>",
        "<dealer>\
           <new><car><model/><price/></car></new>\
           <used><car><model/><mileage/><price/></car><car><model/><mileage/><price/></car></used>\
         </dealer>",
    ];

    fn corpus(docs: &[&str]) -> Corpus {
        let mut c = Corpus::contextual();
        for d in docs {
            c.add_document(d).unwrap();
        }
        c
    }

    #[test]
    fn context_split_detected() {
        let schema = infer_contextual(&corpus(DEALER_DOCS), InferenceEngine::Crx);
        assert!(schema.requires_xsd(), "{}", schema.render());
        // car has two types: (model price) under new, (model mileage price)
        // under used.
        let car = schema.alphabet.get("car").unwrap();
        let car_types: Vec<_> = schema.types.iter().filter(|t| t.element == car).collect();
        assert_eq!(car_types.len(), 2, "{}", schema.render());
    }

    #[test]
    fn dtd_expressible_corpus_collapses_to_one_type_each() {
        let docs = [
            "<r><a><x/></a><b><a><x/></a></b></r>",
            "<r><b><a><x/></a></b></r>",
        ];
        let schema = infer_contextual(&corpus(&docs), InferenceEngine::Crx);
        // `a` occurs under r and under b with the same content model → one
        // merged type covering both parents.
        assert!(!schema.requires_xsd(), "{}", schema.render());
        let a = schema.alphabet.get("a").unwrap();
        let a_types: Vec<_> = schema.types.iter().filter(|t| t.element == a).collect();
        assert_eq!(a_types.len(), 1);
        assert_eq!(a_types[0].parents.len(), 2);
    }

    #[test]
    fn xsd_emission_wellformed_and_typed() {
        let docs = [
            DEALER_DOCS[0],
            DEALER_DOCS[1],
            "<dealer><note>a <b/> c</note></dealer>",
        ];
        let schema = infer_contextual(&corpus(&docs), InferenceEngine::Idtd);
        let xsd = contextual_xsd(&schema);
        assert!(
            crate::parser::XmlPullParser::new(&xsd)
                .collect_events()
                .is_ok(),
            "{xsd}"
        );
        // Two distinct car types appear.
        let count = xsd.matches("<xs:complexType name=\"carType").count();
        assert_eq!(count, 2, "{xsd}");
        assert!(xsd.contains("<xs:element name=\"dealer\" type=\"dealerType\"/>"));
        // Mixed content repeats a choice of its children.
        assert!(
            xsd.contains(
                "  <xs:complexType name=\"noteType\" mixed=\"true\">\n    \
                 <xs:choice minOccurs=\"0\" maxOccurs=\"unbounded\">\n      \
                 <xs:element name=\"b\" type=\"xs:anyType\"/>\n    </xs:choice>\n"
            ),
            "{xsd}"
        );
    }

    #[test]
    fn render_is_readable() {
        let docs = [
            DEALER_DOCS[0],
            DEALER_DOCS[1],
            "<dealer><new><car><model>m</model><price/></car></new></dealer>",
        ];
        let schema = infer_contextual(&corpus(&docs), InferenceEngine::Crx);
        let text = schema.render();
        assert!(text.starts_with("dealer (under #root): "), "{text}");
        assert!(text.contains("car (under new): (model, price)\n"), "{text}");
        assert!(
            text.contains("car (under used): (model, mileage, price)\n"),
            "{text}"
        );
        // Text-only content is #PCDATA, as in plain DTD inference.
        assert!(text.contains("model (under car): (#PCDATA)\n"), "{text}");
        assert!(text.contains("price (under car): EMPTY\n"), "{text}");
    }
}
