//! Document Type Definitions: model, parsing, serialization, validation.
//!
//! A DTD is abstracted as a mapping from element names to regular
//! expressions plus a start symbol (§3); concretely each element carries a
//! [`ContentSpec`] covering the full `<!ELEMENT>` declaration syntax
//! (`EMPTY`, `ANY`, `(#PCDATA)`, mixed content, and child content models).

use crate::attlist::{AttDef, AttType};
use crate::parser::{XmlError, XmlEvent, XmlPullParser};
use dtdinfer_automata::nfa::Nfa;
use dtdinfer_regex::alphabet::{Alphabet, Sym, Word};
use dtdinfer_regex::ast::Regex;
use dtdinfer_regex::display::render_dtd;
use dtdinfer_regex::parser::parse as parse_regex;
use std::collections::BTreeMap;
use std::fmt;

/// The content specification of one element declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContentSpec {
    /// `EMPTY` — no content at all.
    Empty,
    /// `ANY` — anything goes.
    Any,
    /// `(#PCDATA)` — text only.
    PcData,
    /// `(#PCDATA | a | b)*` — mixed content.
    Mixed(Vec<Sym>),
    /// A child content model.
    Children(Regex),
}

/// A Document Type Definition.
#[derive(Debug, Clone, Default)]
pub struct Dtd {
    /// Shared element-name alphabet.
    pub alphabet: Alphabet,
    /// Start symbol (the document element).
    pub root: Option<Sym>,
    /// Element declarations in insertion order.
    pub elements: BTreeMap<Sym, ContentSpec>,
    /// Attribute-list declarations per element.
    pub attlists: BTreeMap<Sym, Vec<AttDef>>,
}

/// Error from DTD text parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DtdParseError {
    /// Description.
    pub message: String,
}

impl fmt::Display for DtdParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DTD parse error: {}", self.message)
    }
}

impl std::error::Error for DtdParseError {}

impl Dtd {
    /// An empty DTD.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares (or replaces) an element.
    pub fn declare(&mut self, name: &str, spec: ContentSpec) -> Sym {
        let sym = self.alphabet.intern(name);
        self.elements.insert(sym, spec);
        sym
    }

    /// Parses the `<!ELEMENT …>` and `<!ATTLIST …>` declarations of an
    /// external-subset DTD text. `<!ENTITY>`, `<!NOTATION>`, comments and
    /// parameter entities are skipped.
    pub fn parse(text: &str) -> Result<Self, DtdParseError> {
        let mut dtd = Dtd::new();
        let mut rest = text;
        while let Some(start) = rest.find("<!") {
            rest = &rest[start..];
            if let Some(comment) = rest.strip_prefix("<!--") {
                match comment.find("-->") {
                    Some(end) => rest = &comment[end + 3..],
                    None => {
                        return Err(DtdParseError {
                            message: "unterminated comment".into(),
                        })
                    }
                }
                continue;
            }
            if let Some(decl) = rest.strip_prefix("<!ELEMENT") {
                let end = decl.find('>').ok_or_else(|| DtdParseError {
                    message: "unterminated <!ELEMENT".into(),
                })?;
                dtd.parse_element_decl(decl[..end].trim())?;
                rest = &decl[end + 1..];
            } else if let Some(decl) = rest.strip_prefix("<!ATTLIST") {
                let end = decl.find('>').ok_or_else(|| DtdParseError {
                    message: "unterminated <!ATTLIST".into(),
                })?;
                dtd.parse_attlist_decl(decl[..end].trim())?;
                rest = &decl[end + 1..];
            } else {
                // Skip any other declaration to its '>'.
                match rest.find('>') {
                    Some(end) => rest = &rest[end + 1..],
                    None => {
                        return Err(DtdParseError {
                            message: "unterminated declaration".into(),
                        })
                    }
                }
            }
        }
        if dtd.root.is_none() {
            dtd.root = dtd.elements.keys().next().copied();
        }
        Ok(dtd)
    }

    fn parse_element_decl(&mut self, body: &str) -> Result<(), DtdParseError> {
        let (name, spec_text) =
            body.split_once(char::is_whitespace)
                .ok_or_else(|| DtdParseError {
                    message: format!("malformed element declaration: {body:?}"),
                })?;
        let spec_text = spec_text.trim();
        let spec = if spec_text == "EMPTY" {
            ContentSpec::Empty
        } else if spec_text == "ANY" {
            ContentSpec::Any
        } else if spec_text.replace(' ', "") == "(#PCDATA)" {
            ContentSpec::PcData
        } else if spec_text.contains("#PCDATA") {
            // (#PCDATA | a | b)*
            let inner = spec_text
                .trim_start_matches('(')
                .trim_end_matches('*')
                .trim_end_matches(')');
            let syms = inner
                .split('|')
                .map(str::trim)
                .filter(|p| *p != "#PCDATA" && !p.is_empty())
                .map(|n| self.alphabet.intern(n))
                .collect();
            ContentSpec::Mixed(syms)
        } else {
            let regex = parse_regex(spec_text, &mut self.alphabet).map_err(|e| DtdParseError {
                message: format!("bad content model for {name}: {e}"),
            })?;
            ContentSpec::Children(regex)
        };
        let sym = self.alphabet.intern(name);
        if self.root.is_none() {
            self.root = Some(sym);
        }
        self.elements.insert(sym, spec);
        Ok(())
    }

    /// Parses the body of one `<!ATTLIST elem (attr type default)*>`.
    fn parse_attlist_decl(&mut self, body: &str) -> Result<(), DtdParseError> {
        let mut tokens = tokenize_attlist(body);
        let element = tokens.next().ok_or_else(|| DtdParseError {
            message: "ATTLIST without element name".into(),
        })?;
        let sym = self.alphabet.intern(&element);
        let defs = self.attlists.entry(sym).or_default();
        while let Some(attr) = tokens.next() {
            let ty_token = tokens.next().ok_or_else(|| DtdParseError {
                message: format!("ATTLIST {element}: missing type for {attr}"),
            })?;
            let ty =
                if let Some(inner) = ty_token.strip_prefix('(').and_then(|t| t.strip_suffix(')')) {
                    AttType::Enumeration(
                        inner
                            .split('|')
                            .map(|v| v.trim().to_owned())
                            .filter(|v| !v.is_empty())
                            .collect(),
                    )
                } else {
                    match ty_token.as_str() {
                        "CDATA" => AttType::CData,
                        "ID" => AttType::Id,
                        // NMTOKENS/IDREF/ENTITY… are treated as their closest
                        // supported category.
                        _ => AttType::NmToken,
                    }
                };
            let default_token = tokens.next().ok_or_else(|| DtdParseError {
                message: format!("ATTLIST {element}: missing default for {attr}"),
            })?;
            let default = match default_token.as_str() {
                "#REQUIRED" => crate::attlist::AttDefault::Required,
                "#FIXED" => {
                    let _value = tokens.next();
                    crate::attlist::AttDefault::Required
                }
                // #IMPLIED or a literal default value.
                _ => crate::attlist::AttDefault::Implied,
            };
            defs.push(AttDef {
                name: attr,
                ty,
                default,
            });
        }
        Ok(())
    }

    /// Serializes as an external-subset DTD document.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        // Root first, then the rest in name order.
        let mut syms: Vec<Sym> = self.elements.keys().copied().collect();
        if let Some(root) = self.root {
            syms.sort_by_key(|&s| (s != root, self.alphabet.name(s).to_owned()));
        }
        for sym in syms {
            let name = self.alphabet.name(sym);
            let spec = render_spec(&self.elements[&sym], &self.alphabet);
            out.push_str(&format!("<!ELEMENT {name} {spec}>\n"));
            if let Some(defs) = self.attlists.get(&sym) {
                for def in defs {
                    out.push_str(&format!(
                        "<!ATTLIST {name} {} {} {}>\n",
                        def.name, def.ty, def.default
                    ));
                }
            }
        }
        out
    }

    /// Validates a document against this DTD. Returns the human-readable
    /// violation messages (empty = valid). Elements without a declaration
    /// are violations; so are content-model mismatches. The structured
    /// twin [`Dtd::validate_structured`] carries the same findings with
    /// machine-readable witness fields.
    pub fn validate(&self, doc: &str) -> Result<Vec<String>, XmlError> {
        Ok(self
            .validate_structured(doc)?
            .into_iter()
            .map(|v| v.message)
            .collect())
    }

    /// Validates a document against this DTD, returning structured
    /// [`Violation`]s: the offending element, the 1-based child position
    /// of the counterexample witness, and the expected/got pair — the
    /// payload `dtdinfer validate --format json` and the serve daemon's
    /// validate endpoint share.
    pub fn validate_structured(&self, doc: &str) -> Result<Vec<Violation>, XmlError> {
        let mut parser = XmlPullParser::new(doc);
        let mut violations: Vec<Violation> = Vec::new();
        // (name, children, has_text) — names borrow from the document, so
        // validation streams without per-event allocation.
        let mut stack: Vec<(&str, Vec<&str>, bool)> = Vec::new();
        while let Some(ev) = parser.next()? {
            match ev {
                XmlEvent::StartElement {
                    name, attributes, ..
                } => {
                    self.check_attributes(name, &attributes, &mut violations);
                    if stack.is_empty() {
                        if let Some(root) = self.root {
                            if self.alphabet.name(root) != name {
                                let expected = self.alphabet.name(root);
                                violations.push(Violation {
                                    kind: ViolationKind::Root,
                                    element: name.to_owned(),
                                    position: None,
                                    expected: Some(expected.to_owned()),
                                    got: Some(name.to_owned()),
                                    message: format!(
                                        "root element is <{name}>, expected <{expected}>"
                                    ),
                                });
                            }
                        }
                    }
                    if let Some((_, children, _)) = stack.last_mut() {
                        children.push(name);
                    }
                    stack.push((name, Vec::new(), false));
                }
                XmlEvent::Text(t) => {
                    if let Some((_, _, has_text)) = stack.last_mut() {
                        if !t.trim().is_empty() {
                            *has_text = true;
                        }
                    }
                }
                XmlEvent::EndElement { .. } => {
                    let (name, children, has_text) = stack.pop().expect("balanced");
                    self.check_element(name, &children, has_text, &mut violations);
                }
                _ => {}
            }
        }
        Ok(violations)
    }

    fn check_element(
        &self,
        name: &str,
        children: &[&str],
        has_text: bool,
        violations: &mut Vec<Violation>,
    ) {
        let undeclared = |violations: &mut Vec<Violation>| {
            violations.push(Violation {
                kind: ViolationKind::UndeclaredElement,
                element: name.to_owned(),
                position: None,
                expected: None,
                got: None,
                message: format!("undeclared element <{name}>"),
            });
        };
        let Some(sym) = self.alphabet.get(name) else {
            undeclared(violations);
            return;
        };
        let Some(spec) = self.elements.get(&sym) else {
            undeclared(violations);
            return;
        };
        match spec {
            ContentSpec::Any => {}
            ContentSpec::Empty => {
                if has_text || !children.is_empty() {
                    violations.push(Violation {
                        kind: ViolationKind::Content,
                        element: name.to_owned(),
                        position: None,
                        expected: Some("EMPTY".to_owned()),
                        got: children.first().map(|c| (*c).to_owned()),
                        message: format!("<{name}> declared EMPTY but has content"),
                    });
                }
            }
            ContentSpec::PcData => {
                if !children.is_empty() {
                    violations.push(Violation {
                        kind: ViolationKind::Content,
                        element: name.to_owned(),
                        position: Some(1),
                        expected: Some("(#PCDATA)".to_owned()),
                        got: children.first().map(|c| (*c).to_owned()),
                        message: format!("<{name}> is (#PCDATA) but has element children"),
                    });
                }
            }
            ContentSpec::Mixed(allowed) => {
                for (i, child) in children.iter().enumerate() {
                    match self.alphabet.get(child) {
                        Some(c) if allowed.contains(&c) => {}
                        _ => violations.push(Violation {
                            kind: ViolationKind::ContentModel,
                            element: name.to_owned(),
                            position: Some(i + 1),
                            expected: Some(render_spec(spec, &self.alphabet)),
                            got: Some((*child).to_owned()),
                            message: format!("<{child}> not allowed in mixed content of <{name}>"),
                        }),
                    }
                }
            }
            ContentSpec::Children(regex) => {
                let model = render_dtd(regex, &self.alphabet);
                if has_text {
                    violations.push(Violation {
                        kind: ViolationKind::Content,
                        element: name.to_owned(),
                        position: None,
                        expected: Some(model.clone()),
                        got: Some("#PCDATA".to_owned()),
                        message: format!(
                            "<{name}> has character data but declares element content"
                        ),
                    });
                }
                let word: Option<Word> = children.iter().map(|c| self.alphabet.get(c)).collect();
                match word {
                    None => {
                        // Some child name never occurs anywhere in the DTD;
                        // point at the first such child as the witness.
                        let bad = children
                            .iter()
                            .position(|c| self.alphabet.get(c).is_none())
                            .unwrap_or(0);
                        violations.push(Violation {
                            kind: ViolationKind::ContentModel,
                            element: name.to_owned(),
                            position: Some(bad + 1),
                            expected: Some(model.clone()),
                            got: Some(children[bad].to_owned()),
                            message: format!(
                                "children of <{name}> ({}) do not match {model}: child {} \
                                 (<{}>) is not part of the content model",
                                children.join(" "),
                                bad + 1,
                                children[bad]
                            ),
                        });
                    }
                    Some(w) => {
                        let nfa = Nfa::from_regex(regex);
                        if !nfa.accepts(&w) {
                            let at = failing_position(&nfa, &w);
                            let (position, got, witness) = if at == w.len() {
                                if w.is_empty() {
                                    (
                                        Some(1),
                                        None,
                                        ": content is empty, more children expected".to_owned(),
                                    )
                                } else {
                                    (
                                        Some(w.len() + 1),
                                        None,
                                        format!(
                                            ": content ends after child {} (<{}>), more \
                                             children expected",
                                            w.len(),
                                            children[w.len() - 1]
                                        ),
                                    )
                                }
                            } else {
                                (
                                    Some(at + 1),
                                    Some(children[at].to_owned()),
                                    format!(": mismatch at child {} (<{}>)", at + 1, children[at]),
                                )
                            };
                            violations.push(Violation {
                                kind: ViolationKind::ContentModel,
                                element: name.to_owned(),
                                position,
                                expected: Some(model.clone()),
                                got,
                                message: format!(
                                    "children of <{name}> ({}) do not match {model}{witness}",
                                    children.join(" ")
                                ),
                            });
                        }
                    }
                }
            }
        }
    }
}

/// Renders one content spec in DTD syntax, as [`Dtd::serialize`] writes it.
pub fn render_spec(spec: &ContentSpec, alphabet: &Alphabet) -> String {
    match spec {
        ContentSpec::Empty => "EMPTY".to_owned(),
        ContentSpec::Any => "ANY".to_owned(),
        ContentSpec::PcData => "(#PCDATA)".to_owned(),
        ContentSpec::Mixed(syms) => {
            let mut s = String::from("(#PCDATA");
            for m in syms {
                s.push_str(" | ");
                s.push_str(alphabet.name(*m));
            }
            s.push_str(")*");
            s
        }
        ContentSpec::Children(r) => render_dtd(r, alphabet),
    }
}

/// What a [`Violation`] is about, for machine consumers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// The document's root differs from the DTD's.
    Root,
    /// An element with no declaration in the DTD.
    UndeclaredElement,
    /// Content present where the declaration forbids it (EMPTY with
    /// content, element content with character data, #PCDATA with
    /// element children).
    Content,
    /// A child word rejected by the declared content model, with the
    /// witness position.
    ContentModel,
    /// An attribute violation (missing required, bad type, undeclared).
    Attribute,
}

impl ViolationKind {
    /// The stable kebab-case identifier used in JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            ViolationKind::Root => "root",
            ViolationKind::UndeclaredElement => "undeclared-element",
            ViolationKind::Content => "content",
            ViolationKind::ContentModel => "content-model",
            ViolationKind::Attribute => "attribute",
        }
    }
}

/// One structured validation violation: the machine-readable form of the
/// positioned counterexample witnesses `validate` prints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// What went wrong.
    pub kind: ViolationKind,
    /// The element the violation is about.
    pub element: String,
    /// 1-based child position of the witness, when the violation points
    /// at a specific place in a child word. For a premature end this is
    /// one past the last child (where the missing child should go).
    pub position: Option<usize>,
    /// What the DTD expected there (a rendered content model, the
    /// declared root, an attribute type).
    pub expected: Option<String>,
    /// What the document actually had (the offending child or root
    /// element name, the offending attribute value); `None` when content
    /// ended early.
    pub got: Option<String>,
    /// The human-readable rendering (exactly what `validate` returns).
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl Violation {
    /// Stable one-line JSON object: `kind`, `element`, then `position` /
    /// `expected` / `got` when present, then `message`. The CLI's
    /// `validate --format json` and the serve daemon's validate endpoint
    /// both emit exactly this.
    pub fn json(&self) -> String {
        use dtdinfer_obs::json::{write_key, write_string};
        let mut out = String::from("{");
        write_key(&mut out, "kind");
        write_string(&mut out, self.kind.as_str());
        out.push(',');
        write_key(&mut out, "element");
        write_string(&mut out, &self.element);
        if let Some(position) = self.position {
            out.push(',');
            write_key(&mut out, "position");
            out.push_str(&position.to_string());
        }
        if let Some(expected) = &self.expected {
            out.push(',');
            write_key(&mut out, "expected");
            write_string(&mut out, expected);
        }
        if let Some(got) = &self.got {
            out.push(',');
            write_key(&mut out, "got");
            write_string(&mut out, got);
        }
        out.push(',');
        write_key(&mut out, "message");
        write_string(&mut out, &self.message);
        out.push('}');
        out
    }
}

/// Renders a violation list as a JSON array (one violation per line for
/// easy grepping, still a single valid JSON document).
pub fn violations_json(violations: &[Violation]) -> String {
    let mut out = String::from("[");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&v.json());
    }
    out.push_str("\n]");
    out
}

/// The counterexample witness position for a rejected child word: the
/// index of the first child at which the Glushkov simulation dies (no NFA
/// state survives), or `word.len()` when every child matches a prefix of
/// the model but the content ends before an accepting state.
fn failing_position(nfa: &Nfa, word: &Word) -> usize {
    let mut current: Vec<usize> = Vec::new();
    for (i, &sym) in word.iter().enumerate() {
        let next: Vec<usize> = if i == 0 {
            nfa.first
                .iter()
                .copied()
                .filter(|&p| nfa.sym_at[p] == sym)
                .collect()
        } else {
            let mut seen = vec![false; nfa.sym_at.len()];
            let mut out = Vec::new();
            for &p in &current {
                for &q in &nfa.follow[p] {
                    if nfa.sym_at[q] == sym && !seen[q] {
                        seen[q] = true;
                        out.push(q);
                    }
                }
            }
            out
        };
        if next.is_empty() {
            return i;
        }
        current = next;
    }
    word.len()
}

impl Dtd {
    /// Lints the DTD itself: the XML specification requires content models
    /// to be *deterministic* (one-unambiguous, §3 of the paper); every
    /// inferred SORE/CHARE satisfies this by construction, but hand-written
    /// or parsed DTDs may not. Returns one message per offending element.
    pub fn lint(&self) -> Vec<String> {
        let mut issues = Vec::new();
        for (&sym, spec) in &self.elements {
            if let ContentSpec::Children(r) = spec {
                if let Err(amb) = dtdinfer_regex::determinism::check_deterministic(r) {
                    issues.push(format!(
                        "content model of <{}> is not deterministic: competing \
                         occurrences of {:?} (XML spec appendix E)",
                        self.alphabet.name(sym),
                        self.alphabet.name(amb.symbol)
                    ));
                }
            }
        }
        issues
    }

    /// Validates one element's attributes against its `<!ATTLIST>`
    /// declarations (if any): required attributes present, values within
    /// the declared type, no undeclared attributes when a declaration
    /// exists for the element.
    fn check_attributes(
        &self,
        name: &str,
        attributes: &[(&str, std::borrow::Cow<'_, str>)],
        violations: &mut Vec<Violation>,
    ) {
        let undeclared = |violations: &mut Vec<Violation>, attr: &str| {
            violations.push(Violation {
                kind: ViolationKind::Attribute,
                element: name.to_owned(),
                position: None,
                expected: None,
                got: Some(attr.to_owned()),
                message: format!("attribute {attr:?} on <{name}> is not declared"),
            });
        };
        let Some(sym) = self.alphabet.get(name) else {
            return; // undeclared element is reported by check_element
        };
        let Some(defs) = self.attlists.get(&sym) else {
            if !attributes.is_empty() && self.elements.contains_key(&sym) {
                for (attr, _) in attributes {
                    undeclared(violations, attr);
                }
            }
            return;
        };
        for def in defs {
            let observed = attributes.iter().find(|(a, _)| a == &def.name);
            match observed {
                Some((_, value)) => {
                    if !def.accepts(value) {
                        violations.push(Violation {
                            kind: ViolationKind::Attribute,
                            element: name.to_owned(),
                            position: None,
                            expected: Some(def.ty.to_string()),
                            got: Some(format!("{}=\"{value}\"", def.name)),
                            message: format!(
                                "attribute {}=\"{}\" on <{name}> violates type {}",
                                def.name, value, def.ty
                            ),
                        });
                    }
                }
                None => {
                    if def.default == crate::attlist::AttDefault::Required {
                        violations.push(Violation {
                            kind: ViolationKind::Attribute,
                            element: name.to_owned(),
                            position: None,
                            expected: Some(def.name.clone()),
                            got: None,
                            message: format!(
                                "required attribute {:?} missing on <{name}>",
                                def.name
                            ),
                        });
                    }
                }
            }
        }
        for (attr, _) in attributes {
            if !defs.iter().any(|d| &d.name == attr) {
                undeclared(violations, attr);
            }
        }
    }
}

/// Splits an ATTLIST body into tokens, keeping parenthesized enumerations
/// and quoted default values as single tokens.
fn tokenize_attlist(body: &str) -> impl Iterator<Item = String> + '_ {
    let mut tokens: Vec<String> = Vec::new();
    let mut rest = body.trim_start();
    while !rest.is_empty() {
        let token_end = if rest.starts_with('(') {
            rest.find(')').map(|i| i + 1).unwrap_or(rest.len())
        } else if let Some(stripped) = rest.strip_prefix('"') {
            stripped.find('"').map(|i| i + 2).unwrap_or(rest.len())
        } else if let Some(stripped) = rest.strip_prefix('\'') {
            stripped.find('\'').map(|i| i + 2).unwrap_or(rest.len())
        } else {
            rest.find(char::is_whitespace).unwrap_or(rest.len())
        };
        // Enumerations may contain internal whitespace; normalize it away.
        tokens.push(
            rest[..token_end]
                .split_whitespace()
                .collect::<Vec<_>>()
                .join(" "),
        );
        rest = rest[token_end..].trim_start();
    }
    tokens.into_iter()
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER_DTD: &str = r#"
<!-- refinfo from the Protein Sequence Database -->
<!ELEMENT refinfo (authors, citation, (volume | month), year, pages?,
                   (title | description)?, xrefs?)>
<!ELEMENT authors (author+)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT citation (#PCDATA)>
<!ELEMENT volume (#PCDATA)>
<!ELEMENT month (#PCDATA)>
<!ELEMENT year (#PCDATA)>
<!ELEMENT pages (#PCDATA)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT description (#PCDATA)>
<!ELEMENT xrefs EMPTY>
"#;

    #[test]
    fn parse_paper_dtd() {
        let dtd = Dtd::parse(PAPER_DTD).unwrap();
        assert_eq!(dtd.elements.len(), 11);
        let refinfo = dtd.alphabet.get("refinfo").unwrap();
        assert_eq!(dtd.root, Some(refinfo));
        match &dtd.elements[&refinfo] {
            ContentSpec::Children(r) => assert_eq!(r.symbols().len(), 9),
            other => panic!("{other:?}"),
        }
        let xrefs = dtd.alphabet.get("xrefs").unwrap();
        assert_eq!(dtd.elements[&xrefs], ContentSpec::Empty);
    }

    #[test]
    fn serialize_round_trips() {
        let dtd = Dtd::parse(PAPER_DTD).unwrap();
        let text = dtd.serialize();
        let dtd2 = Dtd::parse(&text).unwrap();
        assert_eq!(dtd2.elements.len(), dtd.elements.len());
        let text2 = dtd2.serialize();
        assert_eq!(text, text2, "serialize is a fixpoint");
    }

    #[test]
    fn validate_accepts_conforming_document() {
        let dtd = Dtd::parse(PAPER_DTD).unwrap();
        let doc = "<refinfo><authors><author>A</author></authors>\
                   <citation>c</citation><volume>1</volume><year>2006</year></refinfo>";
        assert_eq!(dtd.validate(doc).unwrap(), Vec::<String>::new());
    }

    #[test]
    fn validate_rejects_volume_and_month_together() {
        // The §1.1 motivating example: the tightened content model forbids
        // volume and month from occurring together.
        let dtd = Dtd::parse(PAPER_DTD).unwrap();
        let doc = "<refinfo><authors><author>A</author></authors>\
                   <citation>c</citation><volume>1</volume><month>5</month>\
                   <year>2006</year></refinfo>";
        let violations = dtd.validate(doc).unwrap();
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("refinfo"));
    }

    #[test]
    fn validate_reports_witness_position() {
        // The violation message must name the failing child and its
        // position, not just that the word was rejected.
        let dtd = Dtd::parse(PAPER_DTD).unwrap();
        let doc = "<refinfo><authors><author>A</author></authors>\
                   <citation>c</citation><volume>1</volume><month>5</month>\
                   <year>2006</year></refinfo>";
        let violations = dtd.validate(doc).unwrap();
        assert_eq!(violations.len(), 1);
        // (volume | month) allows exactly one of the two: the simulation
        // dies at the fourth child, <month>.
        assert!(
            violations[0].contains("mismatch at child 4 (<month>)"),
            "{}",
            violations[0]
        );
    }

    #[test]
    fn validate_reports_premature_end_witness() {
        let dtd = Dtd::parse("<!ELEMENT a (b, c)><!ELEMENT b EMPTY><!ELEMENT c EMPTY>").unwrap();
        let violations = dtd.validate("<a><b/></a>").unwrap();
        assert_eq!(violations.len(), 1);
        assert!(
            violations[0].contains("content ends after child 1 (<b>), more children expected"),
            "{}",
            violations[0]
        );
        let empty = dtd.validate("<a></a>").unwrap();
        assert!(
            empty[0].contains("content is empty, more children expected"),
            "{}",
            empty[0]
        );
    }

    #[test]
    fn validate_rejects_wrong_root_and_undeclared() {
        let dtd = Dtd::parse("<!ELEMENT a (b)><!ELEMENT b EMPTY>").unwrap();
        let violations = dtd.validate("<c><b/></c>").unwrap();
        assert!(violations.iter().any(|v| v.contains("root")));
        assert!(violations.iter().any(|v| v.contains("undeclared")));
    }

    #[test]
    fn structured_violations_carry_witness_fields() {
        let dtd = Dtd::parse("<!ELEMENT a (b, c)><!ELEMENT b EMPTY><!ELEMENT c EMPTY>").unwrap();
        let vs = dtd.validate_structured("<a><b/><b/></a>").unwrap();
        assert_eq!(vs.len(), 1);
        let v = &vs[0];
        assert_eq!(v.kind, ViolationKind::ContentModel);
        assert_eq!(v.element, "a");
        assert_eq!(v.position, Some(2));
        assert_eq!(v.got.as_deref(), Some("b"));
        assert_eq!(v.expected.as_deref(), Some("(b, c)"));
        assert!(
            v.message.contains("mismatch at child 2 (<b>)"),
            "{}",
            v.message
        );

        // Premature end: position points one past the last child, no `got`.
        let vs = dtd.validate_structured("<a><b/></a>").unwrap();
        assert_eq!(vs[0].position, Some(2));
        assert_eq!(vs[0].got, None);

        // Wrong root carries expected/got.
        let vs = dtd.validate_structured("<b></b>").unwrap();
        assert_eq!(vs[0].kind, ViolationKind::Root);
        assert_eq!(vs[0].expected.as_deref(), Some("a"));
        assert_eq!(vs[0].got.as_deref(), Some("b"));
    }

    #[test]
    fn violations_json_is_stable() {
        let dtd = Dtd::parse("<!ELEMENT a (b, c)><!ELEMENT b EMPTY><!ELEMENT c EMPTY>").unwrap();
        let vs = dtd.validate_structured("<a><b/><b/></a>").unwrap();
        let json = violations_json(&vs);
        assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
        assert!(
            json.contains(r#""kind":"content-model""#)
                && json.contains(r#""element":"a""#)
                && json.contains(r#""position":2"#)
                && json.contains(r#""expected":"(b, c)""#)
                && json.contains(r#""got":"b""#)
                && json.contains(r#""message":"#),
            "{json}"
        );
        assert_eq!(violations_json(&[]), "[\n]");
    }

    #[test]
    fn validate_empty_and_pcdata() {
        let dtd =
            Dtd::parse("<!ELEMENT a (b, c)><!ELEMENT b EMPTY><!ELEMENT c (#PCDATA)>").unwrap();
        assert_eq!(
            dtd.validate("<a><b/><c>text</c></a>").unwrap(),
            Vec::<String>::new()
        );
        let violations = dtd.validate("<a><b>oops</b><c><b/></c></a>").unwrap();
        assert_eq!(violations.len(), 2);
    }

    #[test]
    fn mixed_content() {
        let dtd = Dtd::parse("<!ELEMENT p (#PCDATA | em | strong)*><!ELEMENT em (#PCDATA)><!ELEMENT strong (#PCDATA)>").unwrap();
        assert_eq!(
            dtd.validate("<p>a<em>b</em>c<strong>d</strong></p>")
                .unwrap(),
            Vec::<String>::new()
        );
        let violations = dtd.validate("<p><em>x</em></p>").unwrap();
        assert!(violations.is_empty());
    }

    #[test]
    fn mixed_content_rejects_intruder() {
        let dtd = Dtd::parse(
            "<!ELEMENT p (#PCDATA | em)*><!ELEMENT em (#PCDATA)><!ELEMENT h1 (#PCDATA)>",
        )
        .unwrap();
        let violations = dtd.validate("<p><h1>big</h1></p>").unwrap();
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("h1"));
    }

    #[test]
    fn attlist_parsed_and_entities_skipped() {
        let text = r#"
<!ELEMENT a (b*)>
<!ATTLIST a id ID #REQUIRED
            color (red | blue) #IMPLIED
            note CDATA #IMPLIED>
<!ENTITY  x "y">
<!ELEMENT b EMPTY>
"#;
        let dtd = Dtd::parse(text).unwrap();
        assert_eq!(dtd.elements.len(), 2);
        let a = dtd.alphabet.get("a").unwrap();
        let defs = &dtd.attlists[&a];
        assert_eq!(defs.len(), 3);
        assert_eq!(defs[0].ty, AttType::Id);
        assert_eq!(
            defs[1].ty,
            AttType::Enumeration(vec!["red".into(), "blue".into()])
        );
        assert_eq!(defs[2].ty, AttType::CData);
    }

    #[test]
    fn attlist_serialization_round_trips() {
        let text = "<!ELEMENT a EMPTY>\n<!ATTLIST a id ID #REQUIRED>\n<!ATTLIST a kind (x | y) #IMPLIED>\n";
        let dtd = Dtd::parse(text).unwrap();
        let out = dtd.serialize();
        let dtd2 = Dtd::parse(&out).unwrap();
        assert_eq!(dtd2.serialize(), out);
        assert!(out.contains("<!ATTLIST a id ID #REQUIRED>"));
        assert!(out.contains("<!ATTLIST a kind (x | y) #IMPLIED>"));
    }

    #[test]
    fn attribute_validation() {
        let text = r#"
<!ELEMENT a EMPTY>
<!ATTLIST a id ID #REQUIRED kind (x | y) #IMPLIED>
"#;
        let dtd = Dtd::parse(text).unwrap();
        assert_eq!(
            dtd.validate(r#"<a id="n1" kind="x"/>"#).unwrap(),
            Vec::<String>::new()
        );
        // Missing required attribute.
        let v = dtd.validate(r#"<a kind="y"/>"#).unwrap();
        assert!(v.iter().any(|m| m.contains("required attribute")), "{v:?}");
        // Enumeration violation.
        let v = dtd.validate(r#"<a id="n1" kind="z"/>"#).unwrap();
        assert!(v.iter().any(|m| m.contains("violates type")), "{v:?}");
        // Undeclared attribute.
        let v = dtd.validate(r#"<a id="n1" extra="1"/>"#).unwrap();
        assert!(v.iter().any(|m| m.contains("not declared")), "{v:?}");
    }

    #[test]
    fn lint_flags_nondeterministic_models() {
        let dtd = Dtd::parse(
            "<!ELEMENT a ((b, c) | (b, d))><!ELEMENT b EMPTY><!ELEMENT c EMPTY><!ELEMENT d EMPTY>",
        )
        .unwrap();
        let issues = dtd.lint();
        assert_eq!(issues.len(), 1);
        assert!(issues[0].contains("not deterministic"), "{issues:?}");
        assert!(issues[0].contains('b'));
        // Inferred (SORE) models always pass.
        let clean = Dtd::parse(
            "<!ELEMENT a (b?, (c | d)+)><!ELEMENT b EMPTY><!ELEMENT c EMPTY><!ELEMENT d EMPTY>",
        )
        .unwrap();
        assert!(clean.lint().is_empty());
    }

    #[test]
    fn declare_api() {
        let mut dtd = Dtd::new();
        let r = parse_regex("b*", &mut dtd.alphabet).unwrap();
        dtd.declare("a", ContentSpec::Children(r));
        dtd.root = dtd.alphabet.get("a");
        assert!(dtd.serialize().contains("<!ELEMENT a (b*)>"));
    }
}
