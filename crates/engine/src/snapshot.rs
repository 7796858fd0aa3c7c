//! Versioned engine snapshots: persist an [`EngineState`] and warm-start a
//! later run from it.
//!
//! A snapshot holds facts only — the §9 "internal representation is the
//! complete memory" property, with the counted child-word multiset as
//! that memory. Every learner's output is a pure function of the facts,
//! so a loaded snapshot derives exactly what the documents it summarizes
//! would. The format is line-oriented text:
//!
//! ```text
//! #dtdinfer-engine v5
//! documents 24
//! root lib 24
//! element author
//! occurrences 23
//! text 23 64 0
//! tv A 22
//! tv B 1
//! attr id 23 64 0
//! av id b1 1
//! w 23
//! ```
//!
//! `text total viable overflowed` opens an element's text reservoir
//! (`viable` is the datatype-viability bitmask, `overflowed` 0/1) and each
//! `tv value count` line carries one retained sample; `attr name total
//! viable overflowed` / `av name value count` do the same per attribute.
//! `w count child…` rows carry the element's counted child-sequence
//! multiset, one distinct shape per row in canonical order — `w 23` above
//! records 23 empty child sequences. Free-form values (samples, attribute
//! names, element names in `element`/`root`/`w`) are percent-escaped so
//! they stay single whitespace-free tokens: `%` → `%25`, space → `%20`,
//! tab → `%09`, newline → `%0A`, carriage return → `%0D`.
//!
//! The header is mandatory. v3 and v4 files carry the same facts plus
//! learner records (`s` support-SOA, `c` CRX and, in v4, `k` k-ORE rows);
//! they load by skipping those rows, which were functions of the `w`
//! rows. In a v5 file such a row is an unknown record. v2 files have no
//! `w` rows, so their state cannot be rebuilt: they fail closed with an
//! error that asks for the documents to be re-ingested. A v2 file re-saved
//! by a v3/v4 build has the same gap behind a newer header, so each v3/v4
//! section's `s words N` row must equal the total of its `w` rows, or the
//! file fails closed the same way. Other versions
//! and missing headers are rejected with a descriptive error rather than
//! misread.

use crate::{ElementState, EngineState};
use dtdinfer_regex::alphabet::{Sym, Word};
use dtdinfer_xml::samples::{SampleBag, DEFAULT_SAMPLE_CAP};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The header every snapshot this build writes starts with.
pub const HEADER: &str = "#dtdinfer-engine v5";

/// Earlier headers whose files still load: the same facts plus learner
/// rows, which loading skips.
pub const LEGACY_HEADERS: [&str; 2] = ["#dtdinfer-engine v4", "#dtdinfer-engine v3"];

fn write_bag(out: &mut String, kind: &str, prefix: &str, bag: &SampleBag) {
    if bag.is_empty() {
        return;
    }
    let (total, viable, overflowed) = bag.export_header();
    let _ = writeln!(
        out,
        "{kind}{prefix} {total} {viable} {}",
        u8::from(overflowed)
    );
    let value_kind = match kind {
        "text" => "tv".to_owned(),
        _ => format!("av{prefix}"),
    };
    for (value, count) in bag.entries() {
        let _ = writeln!(out, "{value_kind} {} {count}", esc(value));
    }
}

/// Serializes the state. The state is canonicalized first (and sample
/// reservoirs are canonical by construction), so snapshots of the same
/// document multiset are byte-identical regardless of ingestion order or
/// sharding.
pub fn save(state: &EngineState) -> String {
    let state = state.canonicalized();
    let mut out = String::from(HEADER);
    out.push('\n');
    let _ = writeln!(out, "documents {}", state.num_documents);
    for (&root, count) in &state.roots {
        let _ = writeln!(out, "root {} {count}", esc(state.alphabet.name(root)));
    }
    for (&sym, element) in &state.elements {
        let _ = writeln!(out, "element {}", esc(state.alphabet.name(sym)));
        let _ = writeln!(out, "occurrences {}", element.occurrences);
        write_bag(&mut out, "text", "", &element.text_samples);
        for (attr, values) in &element.attributes {
            write_bag(&mut out, "attr", &format!(" {}", esc(attr)), values);
        }
        for (word, count) in element.words.iter() {
            let _ = write!(out, "w {count}");
            for &s in word {
                let _ = write!(out, " {}", esc(state.alphabet.name(s)));
            }
            out.push('\n');
        }
    }
    dtdinfer_obs::observe("engine.snapshot.bytes", out.len() as u64);
    out
}

/// Reservoir parts accumulated while a section is read; assembled into a
/// [`SampleBag`] when the section closes.
#[derive(Default)]
struct BagParts {
    total: u64,
    viable: u8,
    overflowed: bool,
    entries: Vec<(String, u64)>,
}

impl BagParts {
    fn parse_header(rest: &str) -> Result<BagParts, String> {
        let fields: Vec<&str> = rest.split(' ').collect();
        let [total, viable, overflowed] = fields.as_slice() else {
            return Err("reservoir header needs total, viability mask, overflow flag".into());
        };
        Ok(BagParts {
            total: total.parse().map_err(|e| format!("bad total: {e}"))?,
            viable: viable
                .parse()
                .map_err(|e| format!("bad viability mask: {e}"))?,
            overflowed: match *overflowed {
                "0" => false,
                "1" => true,
                other => return Err(format!("bad overflow flag {other:?}")),
            },
            entries: Vec::new(),
        })
    }

    fn push_value(&mut self, rest: &str) -> Result<(), String> {
        let (value, count) = rest
            .rsplit_once(' ')
            .ok_or("sample record needs a value and a count")?;
        let count: u64 = count.parse().map_err(|e| format!("bad count: {e}"))?;
        self.entries.push((unesc(value)?, count));
        Ok(())
    }

    fn into_bag(self) -> Result<SampleBag, String> {
        SampleBag::from_parts(
            DEFAULT_SAMPLE_CAP,
            self.total,
            self.viable,
            self.overflowed,
            self.entries,
        )
    }
}

/// The error for a snapshot whose state cannot be rebuilt from `w` rows.
fn re_ingest(what: &str) -> String {
    format!(
        "{what}, so its state cannot be rebuilt; re-ingest the documents \
         (dtdinfer snapshot save) to write a v5 snapshot"
    )
}

/// One element section being accumulated: reservoir parts and multiset
/// rows are assembled when the section closes.
struct Section {
    sym: Sym,
    element: ElementState,
    text: Option<BagParts>,
    attrs: BTreeMap<String, BagParts>,
    words: Vec<(Word, u32)>,
    /// In a v3/v4 file, the word count of the `s words N` row. A file that
    /// began as v2 was re-saved with learner rows but few or no `w` rows,
    /// so `N` must equal the total of the `w` rows for them to be the
    /// whole state.
    legacy_words: Option<u64>,
}

impl Section {
    fn close(self, state: &mut EngineState, legacy: bool) -> Result<(), String> {
        let Section {
            sym,
            mut element,
            text,
            attrs,
            words,
            legacy_words,
        } = self;
        let name = |state: &EngineState| state.alphabet.name(sym).to_owned();
        // Rows were validated (non-zero counts, well-formed) as they were
        // read; rebuilding through `insert_n` re-canonicalizes under this
        // load's interning order, and a distinct-count mismatch afterwards
        // is exactly a duplicate row.
        let distinct_rows = words.len();
        for (w, n) in words {
            element.words.insert_n(w, n);
        }
        if element.words.distinct() != distinct_rows {
            return Err(format!(
                "duplicate multiset row in element {:?}",
                name(state)
            ));
        }
        if legacy && legacy_words != Some(element.words.total()) {
            return Err(re_ingest(&format!(
                "element {:?} has {} child sequence(s) in its \"w\" rows but its \
                 learner rows count {} (a snapshot that began as v2)",
                name(state),
                element.words.total(),
                legacy_words.map_or_else(|| "none".to_owned(), |n| n.to_string()),
            )));
        }
        if let Some(parts) = text {
            element.text_samples = parts
                .into_bag()
                .map_err(|e| format!("text reservoir of {:?}: {e}", name(state)))?;
        }
        for (attr, parts) in attrs {
            let bag = parts
                .into_bag()
                .map_err(|e| format!("attribute {attr:?} reservoir of {:?}: {e}", name(state)))?;
            element.attributes.insert(attr, bag);
        }
        state.elements.insert(sym, element);
        Ok(())
    }
}

/// Parses a snapshot produced by [`save`] (v5) or by an earlier build (v3
/// or v4, whose learner rows are skipped). Rejects v2 files, which cannot
/// be rebuilt, missing headers, other versions, and malformed records
/// with a descriptive error.
pub fn load(text: &str) -> Result<EngineState, String> {
    let legacy = match text.lines().next().map(str::trim) {
        Some(HEADER) => false,
        Some(h) if LEGACY_HEADERS.contains(&h) => true,
        Some("#dtdinfer-engine v2") => {
            return Err(re_ingest(
                "snapshot version \"v2\" has no counted child-sequence rows",
            ));
        }
        Some(h) if h.starts_with("#dtdinfer-engine ") => {
            let version = h.trim_start_matches("#dtdinfer-engine ").trim();
            return Err(format!(
                "unsupported snapshot version {version:?} (this build reads v3, v4, and v5; \
                 re-ingest the documents of a v2 or older snapshot)"
            ));
        }
        _ => {
            return Err(format!(
                "not a dtdinfer engine snapshot (expected a {HEADER:?} first line)"
            ));
        }
    };
    let mut state = EngineState::new();
    let mut current: Option<Section> = None;
    for (lineno, line) in text.lines().enumerate().skip(1) {
        let err = |m: String| format!("line {}: {m}", lineno + 1);
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
        match kind {
            "documents" => {
                state.num_documents = rest
                    .parse()
                    .map_err(|e| err(format!("bad document count: {e}")))?;
            }
            "root" => {
                let (name, count) = rest
                    .rsplit_once(' ')
                    .ok_or_else(|| err("root needs a name and a count".into()))?;
                let sym = state.alphabet.intern(&unesc(name).map_err(err)?);
                let count: u64 = count.parse().map_err(|e| err(format!("bad count: {e}")))?;
                *state.roots.entry(sym).or_insert(0) += count;
            }
            "element" => {
                if let Some(section) = current.take() {
                    section.close(&mut state, legacy)?;
                }
                let sym = state.alphabet.intern(&unesc(rest).map_err(err)?);
                current = Some(Section {
                    sym,
                    element: ElementState::default(),
                    text: None,
                    attrs: BTreeMap::new(),
                    words: Vec::new(),
                    legacy_words: None,
                });
            }
            // A v5 file holds facts only.
            "s" | "c" | "k" if !legacy => return Err(err(format!("unknown record {kind:?}"))),
            "occurrences" | "text" | "tv" | "attr" | "av" | "w" | "s" | "c" | "k" => {
                let section = current
                    .as_mut()
                    .ok_or_else(|| err(format!("{kind:?} record outside an element section")))?;
                match kind {
                    // Learner records of v3/v4 files are functions of the
                    // `w` rows; only the support-SOA word count is kept,
                    // to check that the `w` rows are complete.
                    "s" => {
                        if let Some(n) = rest.strip_prefix("words ") {
                            let n = n
                                .trim()
                                .parse()
                                .map_err(|e| err(format!("bad learner word count: {e}")))?;
                            if section.legacy_words.replace(n).is_some() {
                                return Err(err("duplicate learner word count".into()));
                            }
                        }
                    }
                    "c" | "k" => {}
                    "occurrences" => {
                        section.element.occurrences = rest
                            .parse()
                            .map_err(|e| err(format!("bad occurrence count: {e}")))?;
                    }
                    "text" => {
                        if section.text.is_some() {
                            return Err(err("duplicate text reservoir".into()));
                        }
                        section.text = Some(BagParts::parse_header(rest).map_err(err)?);
                    }
                    "tv" => section
                        .text
                        .as_mut()
                        .ok_or_else(|| err("\"tv\" record before its \"text\" header".into()))?
                        .push_value(rest)
                        .map_err(err)?,
                    "attr" => {
                        let (name, header) = rest
                            .split_once(' ')
                            .ok_or_else(|| err("attr needs a name and a header".into()))?;
                        let name = unesc(name).map_err(err)?;
                        let parts = BagParts::parse_header(header).map_err(err)?;
                        if section.attrs.insert(name.clone(), parts).is_some() {
                            return Err(err(format!("duplicate attribute reservoir {name:?}")));
                        }
                    }
                    "av" => {
                        let (name, value) = rest
                            .split_once(' ')
                            .ok_or_else(|| err("av needs a name, a value and a count".into()))?;
                        let name = unesc(name).map_err(err)?;
                        section
                            .attrs
                            .get_mut(&name)
                            .ok_or_else(|| {
                                err(format!("\"av\" record before its {name:?} header"))
                            })?
                            .push_value(value)
                            .map_err(err)?;
                    }
                    _ => {
                        let mut fields = rest.split(' ').filter(|f| !f.is_empty());
                        let count: u32 = fields
                            .next()
                            .ok_or_else(|| err("multiset row needs a count".into()))?
                            .parse()
                            .map_err(|e| err(format!("bad multiset count: {e}")))?;
                        if count == 0 {
                            return Err(err("zero-count multiset row".into()));
                        }
                        let mut word = Word::new();
                        for child in fields {
                            word.push(state.alphabet.intern(&unesc(child).map_err(err)?));
                        }
                        section.words.push((word, count));
                    }
                }
            }
            other => return Err(err(format!("unknown record {other:?}"))),
        }
    }
    if let Some(section) = current.take() {
        section.close(&mut state, legacy)?;
    }
    dtdinfer_obs::observe("engine.snapshot.bytes", text.len() as u64);
    Ok(state)
}

/// Escapes a value into a single whitespace-free token.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '\t' => out.push_str("%09"),
            '\n' => out.push_str("%0A"),
            '\r' => out.push_str("%0D"),
            _ => out.push(c),
        }
    }
    out
}

/// Reverses [`esc`]; rejects truncated or non-hex escapes.
fn unesc(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let hex: String = chars.by_ref().take(2).collect();
        if hex.len() != 2 {
            return Err(format!("truncated escape in {s:?}"));
        }
        let code =
            u32::from_str_radix(&hex, 16).map_err(|_| format!("bad escape %{hex} in {s:?}"))?;
        out.push(char::from_u32(code).ok_or_else(|| format!("bad escape %{hex} in {s:?}"))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ingest;
    use dtdinfer_xml::infer::InferenceEngine;

    fn docs() -> Vec<String> {
        let mut docs = vec![
            "<r a=\"1 % two\"><x>hello world</x><y/></r>".to_owned(),
            "<r><y/><x>line\nbreak</x></r>".to_owned(),
        ];
        for i in 0..10 {
            docs.push(format!("<r><x>v{i}</x><y/><y/></r>"));
        }
        docs
    }

    #[test]
    fn round_trip_preserves_state_and_output() {
        let state = ingest(&docs(), 2).unwrap().state;
        let text = save(&state);
        let restored = load(&text).unwrap();
        assert_eq!(restored.num_documents, state.num_documents);
        assert_eq!(restored.total_sequences(), state.total_sequences());
        // Re-saving is the identity: the format is canonical.
        assert_eq!(save(&restored), text);
        for engine in [
            InferenceEngine::Crx,
            InferenceEngine::Idtd,
            InferenceEngine::IdtdNoise { threshold: 2 },
            InferenceEngine::Kore,
            InferenceEngine::Auto,
        ] {
            assert_eq!(
                restored.derive(engine).0.serialize(),
                state.derive(engine).0.serialize(),
                "{engine:?}"
            );
        }
    }

    #[test]
    fn save_load_absorb_more_equals_one_shot() {
        let docs = docs();
        let one_shot = ingest(&docs, 2).unwrap().state;
        let warm = load(&save(&ingest(&docs[..4], 2).unwrap().state)).unwrap();
        let resumed = crate::pool::ingest_into(warm, &docs[4..], 2).unwrap().state;
        for engine in [InferenceEngine::Idtd, InferenceEngine::Kore] {
            assert_eq!(
                resumed.derive(engine).0.serialize(),
                one_shot.derive(engine).0.serialize(),
                "{engine:?}"
            );
        }
        // The snapshots themselves coincide too.
        assert_eq!(save(&resumed), save(&one_shot));
    }

    #[test]
    fn snapshot_is_ingestion_order_invariant() {
        let docs = docs();
        let forward = ingest(&docs, 1).unwrap().state;
        let reversed: Vec<String> = docs.iter().rev().cloned().collect();
        let backward = ingest(&reversed, 3).unwrap().state;
        assert_eq!(save(&forward), save(&backward));
    }

    #[test]
    fn rejects_missing_header() {
        let err = load("documents 3\n").unwrap_err();
        assert!(err.contains("not a dtdinfer engine snapshot"), "{err}");
    }

    #[test]
    fn rejects_other_versions() {
        for other in ["v1", "v6"] {
            let err = load(&format!("#dtdinfer-engine {other}\ndocuments 3\n")).unwrap_err();
            assert!(err.contains("unsupported snapshot version"), "{err}");
            assert!(err.contains("v3, v4, and v5"), "{err}");
        }
    }

    /// Rewrites a v5 snapshot into the shape an earlier build wrote under
    /// `header`: the same facts, followed in every element section by
    /// learner records (`s` support-SOA, `c` CRX, `k` k-ORE rows) whose
    /// word counts match the section's `w` rows.
    fn as_legacy(v5: &str, header: &str) -> String {
        let learner_rows = |n: u64| format!("s words {n}\nc words {n}\nk edge a 0 b 1\n");
        let mut out = String::new();
        let mut section: Option<u64> = None;
        for line in v5.lines() {
            if line.starts_with("element ") {
                if let Some(n) = section.replace(0) {
                    out.push_str(&learner_rows(n));
                }
            }
            if let (Some(n), Some(w)) = (section.as_mut(), line.strip_prefix("w ")) {
                *n += w.split(' ').next().unwrap().parse::<u64>().unwrap();
            }
            out.push_str(if line == HEADER { header } else { line });
            out.push('\n');
        }
        if let Some(n) = section {
            out.push_str(&learner_rows(n));
        }
        out
    }

    #[test]
    fn v3_snapshots_load_losslessly() {
        // v3 and v4 files carry learner rows beside the facts. Every
        // learner is a function of the `w` rows, so loading skips them and
        // yields the state a v5 file would: re-saving reproduces it.
        let state = ingest(&docs(), 2).unwrap().state;
        let v5 = save(&state);
        for header in LEGACY_HEADERS {
            let legacy = as_legacy(&v5, header);
            assert!(legacy.contains("\ns words"), "{legacy}");
            let loaded = load(&legacy).unwrap();
            assert_eq!(save(&loaded), v5, "{header}");
            for engine in [InferenceEngine::Kore, InferenceEngine::Auto] {
                assert_eq!(
                    loaded.derive(engine).0.serialize(),
                    state.derive(engine).0.serialize(),
                    "{header} {engine:?}"
                );
            }
        }
    }

    #[test]
    fn v2_snapshots_fail_closed_and_ask_for_re_ingest() {
        // A v2 file has no `w` rows: nothing to rebuild the state from.
        let v5 = save(&ingest(&docs(), 2).unwrap().state);
        let v2: String = as_legacy(&v5, "#dtdinfer-engine v2")
            .lines()
            .filter(|l| !l.starts_with("w ") && !l.starts_with("k "))
            .map(|l| format!("{l}\n"))
            .collect();
        let err = load(&v2).unwrap_err();
        assert!(err.contains("\"v2\""), "{err}");
        assert!(err.contains("re-ingest"), "{err}");
    }

    #[test]
    fn legacy_sections_whose_w_rows_are_incomplete_fail_closed() {
        // A v2 file re-saved by a v3/v4 build kept its learner rows but
        // had no `w` rows; documents ingested after the upgrade added `w`
        // rows that cover only part of the data. The `s words` count
        // exposes both, so such files fail closed like v2.
        let v4 = LEGACY_HEADERS[0];
        for (bad, needle) in [
            (
                format!("{v4}\nelement a\noccurrences 5\ns words 5\ns sym b 5\nc words 5\n"),
                "has 0 child sequence(s)",
            ),
            (
                format!("{v4}\nelement a\noccurrences 5\nw 2 b\ns words 5\nc words 5\n"),
                "has 2 child sequence(s)",
            ),
            (
                format!("{v4}\nelement a\noccurrences 1\nw 1 b\nc words 1\n"),
                "learner rows count none",
            ),
        ] {
            let err = load(&bad).unwrap_err();
            assert!(err.contains(needle), "{bad:?} → {err}");
            assert!(err.contains("re-ingest"), "{bad:?} → {err}");
        }
        for (bad, needle) in [
            (format!("{v4}\ns words 1\n"), "outside an element section"),
            (format!("{v4}\nk words 1\n"), "outside an element section"),
            (
                format!("{v4}\nelement a\nw 1 b\ns words x\n"),
                "bad learner word count",
            ),
            (
                format!("{v4}\nelement a\nw 1 b\ns words 1\ns words 1\n"),
                "duplicate learner word count",
            ),
        ] {
            let err = load(&bad).unwrap_err();
            assert!(err.contains(needle), "{bad:?} → {err}");
        }
    }

    #[test]
    fn saves_hold_facts_only() {
        let v5 = save(&ingest(&docs(), 2).unwrap().state);
        assert!(v5.starts_with(HEADER), "{v5}");
        assert!(v5.contains("\nw "), "multiset rows present");
        for line in v5.lines() {
            assert!(
                !["s ", "c ", "k "].iter().any(|p| line.starts_with(p)),
                "learner row {line:?}"
            );
        }
    }

    #[test]
    fn multiset_rows_survive_round_trip() {
        let state = ingest(&docs(), 2).unwrap().state;
        let restored = load(&save(&state)).unwrap();
        let canon = state.canonicalized();
        let restored = restored.canonicalized();
        for (&sym, element) in &canon.elements {
            let name = canon.alphabet.name(sym);
            let twin = restored.alphabet.get(name).expect("same elements");
            assert_eq!(
                restored.elements[&twin].words, element.words,
                "multiset of {name}"
            );
        }
    }

    #[test]
    fn rejects_corrupt_multiset_rows() {
        for (bad, needle) in [
            (format!("{HEADER}\nelement a\nw\n"), "needs a count"),
            (format!("{HEADER}\nelement a\nw nope x\n"), "bad multiset"),
            (format!("{HEADER}\nelement a\nw 0 x\n"), "zero-count"),
            (
                format!("{HEADER}\nelement a\nw 1 x\nw 2 x\n"),
                "duplicate multiset row",
            ),
            (format!("{HEADER}\nw 1 x\n"), "outside an element section"),
            (
                format!("{HEADER}\nelement a\nw 1 x%2\n"),
                "truncated escape",
            ),
        ] {
            let err = load(&bad).unwrap_err();
            assert!(err.contains(needle), "{bad:?} → {err}");
        }
    }

    #[test]
    fn rejects_corrupted_records() {
        for (bad, needle) in [
            (
                format!("{HEADER}\ndocuments not-a-number\n"),
                "bad document count",
            ),
            (format!("{HEADER}\nfroz x\n"), "unknown record"),
            (
                format!("{HEADER}\noccurrences 3\n"),
                "outside an element section",
            ),
            (format!("{HEADER}\nelement a\nattr only-name\n"), "attr"),
            (
                format!("{HEADER}\nelement a\nattr id 3 127\n"),
                "reservoir header",
            ),
            (
                format!("{HEADER}\nelement a\ntext 3 127 2\n"),
                "bad overflow flag",
            ),
            (format!("{HEADER}\nelement a\ntv x 1\n"), "before its"),
            (format!("{HEADER}\nelement a\nav id x 1\n"), "before its"),
            (
                // Non-overflowed reservoir whose counts don't add up.
                format!("{HEADER}\nelement a\ntext 5 127 0\ntv x 1\n"),
                "text reservoir",
            ),
            // Learner records are not facts: a v5 file never carries them.
            (
                format!("{HEADER}\nelement a\ns pair x\n"),
                "unknown record \"s\"",
            ),
            (
                format!("{HEADER}\nelement a\nk edge a 0 b 1\n"),
                "unknown record \"k\"",
            ),
            (
                format!("{HEADER}\nelement a\nc words 1\n"),
                "unknown record \"c\"",
            ),
            (format!("{HEADER}\nelement a%2\n"), "truncated escape"),
        ] {
            let err = load(&bad).unwrap_err();
            assert!(err.contains(needle), "{bad:?} → {err}");
        }
    }

    #[test]
    fn rejects_truncated_reservoir_rows() {
        // A "tv" row cut mid-record (value but no count) must fail closed,
        // not default the count.
        let bad = format!("{HEADER}\nelement a\ntext 1 127 0\ntv onlyvalue\n");
        let err = load(&bad).unwrap_err();
        assert!(err.contains("needs a value and a count"), "{err}");
        // Same for attribute rows.
        let bad = format!("{HEADER}\nelement a\nattr id 1 127 0\nav id onlyvalue\n");
        let err = load(&bad).unwrap_err();
        assert!(err.contains("needs a value and a count"), "{err}");
        // A non-numeric count is named, with its line number.
        let bad = format!("{HEADER}\nelement a\ntext 1 127 0\ntv x nope\n");
        let err = load(&bad).unwrap_err();
        assert!(err.contains("bad count"), "{err}");
        assert!(err.contains("line 4"), "{err}");
    }

    #[test]
    fn rejects_bad_escape_sequences() {
        // Non-hex escape digits in a value row.
        let bad = format!("{HEADER}\nelement a\ntext 1 127 0\ntv x%zz 1\n");
        let err = load(&bad).unwrap_err();
        assert!(err.contains("bad escape %zz"), "{err}");
        // An escape that decodes to no valid scalar (a surrogate would
        // need 4 digits; here an out-of-range check via %d8 is fine, so
        // use a name with a truncated escape at end of line instead).
        let bad = format!("{HEADER}\nroot r%a 1\n");
        let err = load(&bad).unwrap_err();
        assert!(err.contains("truncated escape"), "{err}");
    }

    #[test]
    fn rejects_realistic_v1_file_with_version_message() {
        // A plausible earlier-format file: right magic prefix, older
        // version, well-formed records. The version gate must fire before
        // any record parsing, and the message must say what this build
        // reads so the user knows to re-save.
        let v1 = "#dtdinfer-engine v1\n\
                  documents 12\n\
                  root order 12\n\
                  element order\n\
                  occurrences 12\n\
                  s pair item note\n";
        let err = load(v1).unwrap_err();
        assert!(err.contains("unsupported snapshot version \"v1\""), "{err}");
        assert!(err.contains("v2"), "{err}");
    }

    #[test]
    fn snapshot_round_trips_overflowed_reservoirs() {
        let cap = dtdinfer_xml::samples::DEFAULT_SAMPLE_CAP;
        let docs: Vec<String> = (0..cap * 3)
            .map(|i| format!("<r><x>value {i}</x></r>"))
            .collect();
        let state = ingest(&docs, 2).unwrap().state;
        let restored = load(&save(&state)).unwrap();
        assert_eq!(save(&restored), save(&state));
        let x = restored.alphabet.get("x").unwrap();
        let bag = &restored.elements[&x].text_samples;
        assert!(bag.overflowed());
        assert_eq!(bag.distinct_retained(), cap);
        assert_eq!(bag.total(), (cap * 3) as u64);
    }

    #[test]
    fn escaping_round_trips() {
        for s in ["", "plain", "with space", "100%", "a\tb\nc\rd", "%20", "%%"] {
            let e = esc(s);
            assert!(!e.contains(char::is_whitespace), "{e:?}");
            assert_eq!(unesc(&e).unwrap(), s, "{s:?}");
        }
    }
}
