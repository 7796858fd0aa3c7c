//! End-to-end tests of the `dtdinfer` binary (spawned as a subprocess via
//! the path Cargo provides in `CARGO_BIN_EXE_dtdinfer`).

use std::io::Write as _;
use std::process::{Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dtdinfer"))
}

fn run_with_stdin(args: &[&str], stdin: &str) -> (String, String, bool) {
    let mut child = bin()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dtdinfer");
    child
        .stdin
        .as_mut()
        .expect("piped")
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn tempdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dtdinfer-cli-test-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn help_lists_subcommands() {
    let (stdout, _, ok) = run_with_stdin(&["--help"], "");
    assert!(ok);
    for sub in [
        "infer", "validate", "serve", "sample", "learn", "explain", "diff", "dot",
    ] {
        assert!(stdout.contains(sub), "help is missing {sub}");
    }
}

#[test]
fn unknown_subcommand_fails() {
    let (_, stderr, ok) = run_with_stdin(&["frobnicate"], "");
    assert!(!ok);
    assert!(stderr.contains("unknown subcommand"));
}

#[test]
fn learn_idtd_from_stdin() {
    let (stdout, _, ok) = run_with_stdin(&["learn"], "a b\nb\na a b\n");
    assert!(ok);
    assert_eq!(stdout.trim(), "a* b");
}

#[test]
fn learn_crx_from_stdin() {
    let (stdout, _, ok) =
        run_with_stdin(&["learn", "--engine", "crx"], "a b d\nb c d e e\nc a d e\n");
    assert!(ok);
    assert_eq!(stdout.trim(), "(a | b | c)+ d e*");
}

#[test]
fn explain_prints_figure3_derivation() {
    let words = "b a c a c d a c d e\nc b a c d b a c d e\na b c c a a d c d e\n";
    let (stdout, _, ok) = run_with_stdin(&["explain"], words);
    assert!(ok);
    assert!(stdout.contains("disjunction"), "{stdout}");
    assert!(stdout.contains("result: ((b? (a | c))+ d)+ e"), "{stdout}");
}

#[test]
fn infer_validate_round_trip() {
    let dir = tempdir();
    let doc1 = dir.join("d1.xml");
    let doc2 = dir.join("d2.xml");
    std::fs::write(&doc1, "<order><item/><item/><note>rush</note></order>").unwrap();
    std::fs::write(&doc2, "<order><item/></order>").unwrap();
    let (dtd_text, _, ok) = run_with_stdin(
        &[
            "infer",
            "--engine",
            "crx",
            doc1.to_str().unwrap(),
            doc2.to_str().unwrap(),
        ],
        "",
    );
    assert!(ok);
    assert!(
        dtd_text.contains("<!ELEMENT order (item+, note?)>"),
        "{dtd_text}"
    );
    let schema = dir.join("schema.dtd");
    std::fs::write(&schema, &dtd_text).unwrap();
    let (stdout, _, ok) = run_with_stdin(
        &[
            "validate",
            "--dtd",
            schema.to_str().unwrap(),
            doc1.to_str().unwrap(),
            doc2.to_str().unwrap(),
        ],
        "",
    );
    assert!(ok);
    assert!(stdout.contains("valid"));
    // A violating document fails with a nonzero exit code.
    let bad = dir.join("bad.xml");
    std::fs::write(&bad, "<order><note>first</note><item/></order>").unwrap();
    let (stdout, stderr, ok) = run_with_stdin(
        &[
            "validate",
            "--dtd",
            schema.to_str().unwrap(),
            bad.to_str().unwrap(),
        ],
        "",
    );
    assert!(!ok, "{stdout} {stderr}");
    assert!(stdout.contains("do not match"), "{stdout}");
    // The violation carries a counterexample witness: the first child at
    // which the content model's Glushkov simulation dies.
    assert!(stdout.contains("mismatch at child 1 (<note>)"), "{stdout}");
}

#[test]
fn validate_prints_witness_and_exit_codes() {
    let dir = tempdir();
    let schema = dir.join("wit.dtd");
    std::fs::write(
        &schema,
        "<!ELEMENT a (b, c)>\n<!ELEMENT b EMPTY>\n<!ELEMENT c EMPTY>\n",
    )
    .unwrap();
    let good = dir.join("wit-good.xml");
    std::fs::write(&good, "<a><b/><c/></a>").unwrap();
    let (stdout, _, ok) = run_with_stdin(
        &[
            "validate",
            "--dtd",
            schema.to_str().unwrap(),
            good.to_str().unwrap(),
        ],
        "",
    );
    assert!(ok, "{stdout}");
    assert!(stdout.contains("all 1 document(s) valid"), "{stdout}");
    // Wrong child at position 2 → nonzero exit and a positioned witness.
    let bad = dir.join("wit-bad.xml");
    std::fs::write(&bad, "<a><b/><b/></a>").unwrap();
    let (stdout, stderr, ok) = run_with_stdin(
        &[
            "validate",
            "--dtd",
            schema.to_str().unwrap(),
            bad.to_str().unwrap(),
        ],
        "",
    );
    assert!(!ok);
    assert!(stdout.contains("mismatch at child 2 (<b>)"), "{stdout}");
    assert!(stderr.contains("1 violation(s)"), "{stderr}");
    // Truncated content → the witness says what was expected next.
    let short = dir.join("wit-short.xml");
    std::fs::write(&short, "<a><b/></a>").unwrap();
    let (stdout, _, ok) = run_with_stdin(
        &[
            "validate",
            "--dtd",
            schema.to_str().unwrap(),
            short.to_str().unwrap(),
        ],
        "",
    );
    assert!(!ok);
    assert!(
        stdout.contains("content ends after child 1 (<b>), more children expected"),
        "{stdout}"
    );
}

#[test]
fn validate_rejects_content_models_nested_past_the_bound() {
    let dir = tempdir();
    let doc = dir.join("deep.xml");
    std::fs::write(&doc, "<r><a/></r>").unwrap();
    let validate = |depth: usize| {
        let schema = dir.join(format!("deep-{depth}.dtd"));
        std::fs::write(
            &schema,
            format!(
                "<!ELEMENT r {}a{}>\n<!ELEMENT a EMPTY>\n",
                "(".repeat(depth),
                ")".repeat(depth)
            ),
        )
        .unwrap();
        bin()
            .args(["validate", "--dtd", schema.to_str().unwrap()])
            .arg(&doc)
            .output()
            .expect("run dtdinfer")
    };
    let bound = dtdinfer_regex::parser::MAX_NESTING;
    let at_bound = validate(bound);
    let stdout = String::from_utf8_lossy(&at_bound.stdout);
    assert!(at_bound.status.success(), "{stdout}");
    assert!(stdout.contains("all 1 document(s) valid"), "{stdout}");
    // Far past the bound: a parse error naming the offending byte, not a
    // stack overflow (which aborts with status 134).
    let past = validate(200_000);
    let stderr = String::from_utf8_lossy(&past.stderr);
    assert_eq!(past.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(&format!("at byte {bound}")), "{stderr}");
}

#[test]
fn validate_format_json_emits_structured_witnesses() {
    let dir = tempdir();
    let schema = dir.join("fmt.dtd");
    std::fs::write(
        &schema,
        "<!ELEMENT a (b, c)>\n<!ELEMENT b EMPTY>\n<!ELEMENT c EMPTY>\n",
    )
    .unwrap();
    let bad = dir.join("fmt-bad.xml");
    std::fs::write(&bad, "<a><b/><b/></a>").unwrap();
    let good = dir.join("fmt-good.xml");
    std::fs::write(&good, "<a><b/><c/></a>").unwrap();
    let (stdout, stderr, ok) = run_with_stdin(
        &[
            "validate",
            "--format",
            "json",
            "--dtd",
            schema.to_str().unwrap(),
            good.to_str().unwrap(),
            bad.to_str().unwrap(),
        ],
        "",
    );
    assert!(!ok);
    assert!(stderr.contains("1 violation(s)"), "{stderr}");
    // stdout is one JSON document with the shared witness fields.
    assert!(stdout.contains("\"valid\":true"), "{stdout}");
    assert!(stdout.contains("\"valid\":false"), "{stdout}");
    assert!(stdout.contains("\"kind\":\"content-model\""), "{stdout}");
    assert!(stdout.contains("\"element\":\"a\""), "{stdout}");
    assert!(stdout.contains("\"position\":2"), "{stdout}");
    assert!(stdout.contains("\"expected\":\"(b, c)\""), "{stdout}");
    assert!(stdout.contains("\"got\":\"b\""), "{stdout}");
    assert!(stdout.contains("\"total_violations\":1"), "{stdout}");
    // The human rendering rides along inside each violation object.
    assert!(stdout.contains("mismatch at child 2 (<b>)"), "{stdout}");
    // Valid corpus in json mode: exit 0, machine-readable stdout only.
    let (stdout, _, ok) = run_with_stdin(
        &[
            "validate",
            "--format",
            "json",
            "--dtd",
            schema.to_str().unwrap(),
            good.to_str().unwrap(),
        ],
        "",
    );
    assert!(ok, "{stdout}");
    assert!(stdout.contains("\"total_violations\":0"), "{stdout}");
    assert!(!stdout.contains("document(s) valid"), "{stdout}");
    // Unknown format is rejected.
    let (_, stderr, ok) = run_with_stdin(
        &[
            "validate",
            "--format",
            "yaml",
            "--dtd",
            schema.to_str().unwrap(),
        ],
        "",
    );
    assert!(!ok);
    assert!(stderr.contains("unknown format"), "{stderr}");
}

/// A short serve lifecycle through the real binary: boot on a random
/// port, ingest over HTTP, read back the DTD, graceful shutdown, and
/// journal files on disk afterwards.
#[test]
fn serve_round_trip_through_binary() {
    use std::io::{Read as _, Write as _};
    let dir = tempdir().join("serve-data");
    std::fs::remove_dir_all(&dir).ok();
    let mut child = bin()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--data-dir",
            dir.to_str().unwrap(),
            "--workers",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    // The bound address is announced on stderr.
    let mut stderr = child.stderr.take().expect("piped stderr");
    let mut announced = String::new();
    let mut byte = [0u8; 1];
    while !announced.contains('\n') {
        if stderr.read(&mut byte).unwrap_or(0) == 0 {
            break;
        }
        announced.push(byte[0] as char);
    }
    let addr = announced
        .rsplit("http://")
        .next()
        .map(str::trim)
        .unwrap_or_default()
        .to_owned();
    assert!(addr.contains(':'), "no address in {announced:?}");
    let http = |method: &str, path: &str, body: &str| -> String {
        let mut s = std::net::TcpStream::connect(&addr).expect("connect");
        s.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        write!(
            s,
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).expect("response");
        out
    };
    let reply = http("POST", "/sessions/s/ingest", "<r><a/><b/></r>");
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    let dtd = http("GET", "/sessions/s/dtd", "");
    assert!(dtd.contains("<!ELEMENT r (a, b)>"), "{dtd}");
    let reply = http("POST", "/shutdown", "");
    assert!(reply.contains("shutting_down"), "{reply}");
    let status = child.wait().expect("serve exits");
    assert!(status.success());
    assert!(
        dir.join("s.snap").exists(),
        "shutdown flush wrote no snapshot"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn infer_xsd_output() {
    let dir = tempdir();
    let doc = dir.join("x.xml");
    std::fs::write(&doc, "<r><n>42</n><n>7</n></r>").unwrap();
    let (xsd, _, ok) = run_with_stdin(
        &["infer", "--xsd", "--engine", "crx", doc.to_str().unwrap()],
        "",
    );
    assert!(ok);
    assert!(xsd.contains("<xs:schema"), "{xsd}");
    assert!(xsd.contains("type=\"xs:integer\""), "{xsd}");
}

#[test]
fn sample_generates_members() {
    let (stdout, _, ok) =
        run_with_stdin(&["sample", "--count", "6", "--seed", "3", "(a | b)+ c"], "");
    assert!(ok);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 6);
    for line in lines {
        assert!(line.ends_with('c'), "{line:?}");
    }
}

#[test]
fn dot_emits_graphviz() {
    let (stdout, _, ok) = run_with_stdin(&["dot", "(a | b)+ c"], "");
    assert!(ok);
    assert!(stdout.starts_with("digraph"));
    assert!(stdout.contains("label=\"c\""));
}

#[test]
fn diff_reports_relations() {
    let dir = tempdir();
    let first = dir.join("first.dtd");
    let second = dir.join("second.dtd");
    std::fs::write(
        &first,
        "<!ELEMENT r (x?, y?)>\n<!ELEMENT x EMPTY>\n<!ELEMENT y EMPTY>\n",
    )
    .unwrap();
    std::fs::write(
        &second,
        "<!ELEMENT r (x | y)>\n<!ELEMENT x EMPTY>\n<!ELEMENT y EMPTY>\n",
    )
    .unwrap();
    let (stdout, _, ok) = run_with_stdin(
        &["diff", first.to_str().unwrap(), second.to_str().unwrap()],
        "",
    );
    assert!(ok);
    assert!(stdout.contains("stricter"), "{stdout}");
}

#[test]
fn incremental_state_file() {
    let dir = tempdir();
    let state = dir.join("incr.soa");
    let _ = std::fs::remove_file(&state);
    let (first, _, ok) = run_with_stdin(&["learn", "--state", state.to_str().unwrap()], "a b\nb\n");
    assert!(ok);
    assert_eq!(first.trim(), "a? b");
    let (second, _, ok) = run_with_stdin(&["learn", "--state", state.to_str().unwrap()], "a a b\n");
    assert!(ok);
    assert_eq!(second.trim(), "a* b", "state must accumulate");
}

#[test]
fn validate_lint_flags_nondeterministic_models() {
    let dir = tempdir();
    let schema = dir.join("nondet.dtd");
    std::fs::write(
        &schema,
        "<!ELEMENT a ((b, c) | (b, d))>\n<!ELEMENT b EMPTY>\n<!ELEMENT c EMPTY>\n<!ELEMENT d EMPTY>\n",
    )
    .unwrap();
    let (stdout, stderr, ok) = run_with_stdin(
        &["validate", "--dtd", schema.to_str().unwrap(), "--lint"],
        "",
    );
    assert!(!ok, "{stdout} {stderr}");
    assert!(stdout.contains("not deterministic"), "{stdout}");
    // A clean DTD passes.
    let good = dir.join("det.dtd");
    std::fs::write(
        &good,
        "<!ELEMENT a (b?, c)>\n<!ELEMENT b EMPTY>\n<!ELEMENT c EMPTY>\n",
    )
    .unwrap();
    let (stdout, _, ok) =
        run_with_stdin(&["validate", "--dtd", good.to_str().unwrap(), "--lint"], "");
    assert!(ok, "{stdout}");
    assert!(stdout.contains("deterministic"));
}

/// One XML document per sample word, each child-name sequence spelling the
/// word (so `infer` exercises the same derivations as `learn`).
fn docs_from_words(dir: &std::path::Path, words: &[&str]) -> Vec<String> {
    words
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let children: String = w.chars().map(|c| format!("<{c}/>")).collect();
            let path = dir.join(format!("w{i}.xml"));
            std::fs::write(&path, format!("<r>{children}</r>")).unwrap();
            path.to_str().unwrap().to_owned()
        })
        .collect()
}

#[test]
fn unknown_options_are_rejected() {
    for args in [
        vec!["infer", "--bogus", "x.xml"],
        vec!["sample", "--frequency", "3", "(a | b)"],
        vec!["validate", "--dtd", "s.dtd", "--strict", "x.xml"],
        vec!["stats", "--wat", "x.xml"],
    ] {
        let (stdout, stderr, ok) = run_with_stdin(&args, "");
        assert!(!ok, "{args:?} must fail: {stdout}");
        assert!(stderr.contains("unknown option"), "{args:?}: {stderr}");
    }
}

#[test]
fn infer_metrics_emits_json_with_derivation_counters() {
    let dir = tempdir();
    // The paper's Figure 2 sample: iDTD needs the enable-disjunction
    // repair, so the repair counters are non-zero.
    let mut args = vec!["infer".to_owned(), "--metrics".to_owned(), "-".to_owned()];
    args.extend(docs_from_words(&dir, &["bacacdacde", "cbacdbacde"]));
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let (stdout, stderr, ok) = run_with_stdin(&argv, "");
    assert!(ok, "{stderr}");
    // The DTD comes first; the metrics snapshot is the final line.
    assert!(stdout.starts_with("<!ELEMENT"), "{stdout}");
    let json = stdout.lines().last().expect("metrics line");
    assert!(json.starts_with("{\"counters\":{"), "{json}");
    assert!(json.ends_with("}}"), "{json}");
    // Rewrite-rule counts by name.
    assert!(
        json.contains("\"core.rewrite.rule.disjunction\":"),
        "{json}"
    );
    assert!(
        json.contains("\"core.rewrite.rule.concatenation\":"),
        "{json}"
    );
    // Repair counts (Figure 2 requires at least one enable-disjunction).
    let repair = json
        .split("\"core.idtd.repair.enable-disjunction\":")
        .nth(1)
        .unwrap_or_else(|| panic!("{json}"));
    let count: u64 = repair
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap();
    assert!(count >= 1, "Figure 2 needs a repair: {json}");
    // Per-element and pipeline timings land in the histograms.
    assert!(json.contains("\"xml.infer_dtd.ns\":{\"count\":1"), "{json}");
    assert!(json.contains("\"core.idtd.ns\":"), "{json}");
    assert!(json.contains("\"xml.element.expr_size\":"), "{json}");
}

#[test]
fn stats_prints_per_element_report() {
    let dir = tempdir();
    let files = docs_from_words(&dir, &["ab", "b", "aab"]);
    let mut args = vec!["stats".to_owned()];
    args.extend(files);
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let (stdout, stderr, ok) = run_with_stdin(&argv, "");
    assert!(ok, "{stderr}");
    assert!(stdout.contains("element"), "{stdout}");
    assert!(stdout.contains("repairs"), "{stdout}");
    assert!(stdout.contains("idtd"), "{stdout}");
    assert!(stdout.lines().any(|l| l.starts_with('r')), "{stdout}");
    assert!(stdout.contains("document(s)"), "{stdout}");
}

#[test]
fn trace_writes_json_lines_and_verbose_reports_progress() {
    let dir = tempdir();
    let files = docs_from_words(&dir, &["bacacdacde", "cbacdbacde"]);
    let trace_path = dir.join("trace.jsonl");
    let mut args = vec![
        "infer".to_owned(),
        "-v".to_owned(),
        "--trace".to_owned(),
        trace_path.to_str().unwrap().to_owned(),
    ];
    args.extend(files);
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let (_, stderr, ok) = run_with_stdin(&argv, "");
    assert!(ok, "{stderr}");
    assert!(stderr.contains("parsed"), "{stderr}");
    assert!(stderr.contains("element r engine=idtd"), "{stderr}");
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    assert!(!trace.is_empty());
    for line in trace.lines() {
        assert!(
            line.starts_with("{\"span\":") || line.starts_with("{\"event\":"),
            "{line}"
        );
    }
    assert!(trace.contains("{\"event\":\"core.idtd.repair\""), "{trace}");
    assert!(trace.contains("\"span\":\"xml.infer_dtd\""), "{trace}");
}

#[test]
fn metrics_and_trace_on_stdout_keep_a_fixed_order() {
    let dir = tempdir();
    let mut args = vec![
        "infer".to_owned(),
        "--metrics".to_owned(),
        "-".to_owned(),
        "--trace".to_owned(),
        "-".to_owned(),
    ];
    args.extend(docs_from_words(&dir, &["bacacdacde", "cbacdbacde"]));
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let (stdout, stderr, ok) = run_with_stdin(&argv, "");
    assert!(ok, "{stderr}");
    // Pinned interleaving: the DTD leads, the trace block follows, and the
    // single-line metrics object is always the very last line.
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines[0].starts_with("<!ELEMENT"), "{stdout}");
    let first_trace = lines
        .iter()
        .position(|l| l.starts_with("{\"span\":") || l.starts_with("{\"event\":"))
        .unwrap_or_else(|| panic!("no trace lines: {stdout}"));
    let metrics = lines
        .iter()
        .position(|l| l.starts_with("{\"counters\":{"))
        .unwrap_or_else(|| panic!("no metrics line: {stdout}"));
    assert_eq!(metrics, lines.len() - 1, "metrics must be last: {stdout}");
    for (i, line) in lines.iter().enumerate().skip(first_trace) {
        if i < metrics {
            assert!(
                line.starts_with("{\"span\":") || line.starts_with("{\"event\":"),
                "line {i} between trace start and metrics is not a trace entry: {line}"
            );
        }
    }
}

#[test]
fn chrome_trace_format_emits_trace_events_with_distinct_tids() {
    let dir = tempdir();
    let trace_path = dir.join("trace-chrome.json");
    let mut args = vec![
        "infer".to_owned(),
        "--jobs".to_owned(),
        "4".to_owned(),
        "--trace".to_owned(),
        trace_path.to_str().unwrap().to_owned(),
        "--trace-format".to_owned(),
        "chrome".to_owned(),
    ];
    args.extend(docs_from_words(
        &dir,
        &["bacacdacde", "cbacdbacde", "ab", "b"],
    ));
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let (stdout, stderr, ok) = run_with_stdin(&argv, "");
    assert!(ok, "{stderr}");
    assert!(stdout.starts_with("<!ELEMENT"), "{stdout}");
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    // Chrome trace-event shape: a JSON array of complete ("X") and
    // instant ("i") events carrying pid/tid rows.
    assert!(trace.starts_with("[\n"), "{trace}");
    assert!(trace.ends_with("\n]\n"), "{trace}");
    assert!(trace.contains("\"ph\":\"X\""), "{trace}");
    assert!(trace.contains("\"pid\":1"), "{trace}");
    assert!(
        trace.contains("\"name\":\"engine.shard\""),
        "worker spans present: {trace}"
    );
    let tids: std::collections::BTreeSet<u64> = trace
        .match_indices("\"tid\":")
        .map(|(i, m)| {
            trace[i + m.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse()
                .expect("numeric tid")
        })
        .collect();
    assert!(
        tids.len() >= 2,
        "--jobs 4 must record at least two distinct thread ids, got {tids:?}: {trace}"
    );
}

#[test]
fn trace_format_flag_is_validated() {
    let dir = tempdir();
    let files = docs_from_words(&dir, &["ab"]);
    // chrome without --trace is rejected before any work happens.
    let (_, stderr, ok) = run_with_stdin(
        &["infer", "--trace-format", "chrome", files[0].as_str()],
        "",
    );
    assert!(!ok);
    assert!(
        stderr.contains("--trace-format requires --trace"),
        "{stderr}"
    );
    // Unknown formats are named in the error.
    let (_, stderr, ok) = run_with_stdin(
        &[
            "infer",
            "--trace",
            "-",
            "--trace-format",
            "perfetto",
            files[0].as_str(),
        ],
        "",
    );
    assert!(!ok);
    assert!(stderr.contains("unknown trace format"), "{stderr}");
    // An explicit jsonl with --trace is fine.
    let (stdout, stderr, ok) = run_with_stdin(
        &[
            "infer",
            "--trace",
            "-",
            "--trace-format",
            "jsonl",
            files[0].as_str(),
        ],
        "",
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("{\"span\":"), "{stdout}");
}

#[test]
fn fuzz_smoke_is_clean_and_deterministic() {
    let dir = tempdir();
    let corpus = dir.join("fuzz-corpus");
    let args = [
        "fuzz",
        "--seed",
        "11",
        "--cases",
        "25",
        "--corpus-dir",
        corpus.to_str().unwrap(),
    ];
    let (stdout, stderr, ok) = run_with_stdin(&args, "");
    assert!(ok, "{stdout}{stderr}");
    assert!(stdout.contains("25 case(s), 0 violation(s)"), "{stdout}");
    // Every oracle appears in the counter table and actually ran.
    for oracle in [
        "membership.idtd",
        "theorem5.sore-recovery",
        "identity.shards",
    ] {
        assert!(stdout.contains(oracle), "{stdout}");
    }
    // A clean run persists nothing.
    assert!(!corpus.exists() || std::fs::read_dir(&corpus).unwrap().next().is_none());
    // Byte-identical report for the same seed.
    let (stdout2, _, ok2) = run_with_stdin(&args, "");
    assert!(ok2);
    assert_eq!(
        stdout, stdout2,
        "fuzz report must be deterministic in the seed"
    );
}

#[test]
fn fuzz_planted_bug_reduces_and_replays() {
    let dir = tempdir();
    let corpus = dir.join("planted-corpus");
    let (stdout, stderr, ok) = run_with_stdin(
        &[
            "fuzz",
            "--seed",
            "42",
            "--cases",
            "6",
            "--plant-bug",
            "repeated-sibling",
            "--corpus-dir",
            corpus.to_str().unwrap(),
        ],
        "",
    );
    // The planted bug must fire, exit nonzero, and persist a reduction.
    assert!(!ok, "{stdout}{stderr}");
    assert!(stdout.contains("reduced regression written"), "{stdout}");
    let entries: Vec<_> = std::fs::read_dir(&corpus).unwrap().collect();
    assert!(!entries.is_empty());
    // Replaying the persisted case without the planted bug is clean: the
    // defect was in the (synthetic) checker, not the pipeline.
    let case = entries[0].as_ref().unwrap().path();
    let (stdout, stderr, ok) = run_with_stdin(&["fuzz", "--replay", case.to_str().unwrap()], "");
    assert!(ok, "{stdout}{stderr}");
    assert!(stdout.contains("clean"), "{stdout}");
}

#[test]
fn learn_accepts_metrics_flag() {
    let dir = tempdir();
    let metrics_path = dir.join("learn-metrics.json");
    let (stdout, stderr, ok) = run_with_stdin(
        &["learn", "--metrics", metrics_path.to_str().unwrap()],
        "a b\nb\n",
    );
    assert!(ok, "{stderr}");
    assert_eq!(stdout.trim(), "a? b");
    let json = std::fs::read_to_string(&metrics_path).unwrap();
    assert!(json.contains("\"core.idtd.runs\":1"), "{json}");
}
