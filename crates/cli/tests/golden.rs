//! Golden-output regression tests: the DTD, XSD and contextual types
//! inferred from the shipped corpora are pinned byte-for-byte against
//! `testdata/golden/`, for the sequential path and every `--jobs` count.
//!
//! These files were produced by the pre-streaming extractor (unbounded
//! sample collection, owned parser events); the streaming pipeline must
//! reproduce them exactly.

use std::path::PathBuf;
use std::process::Command;

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

/// The XML files of a shipped corpus, sorted for a stable argument order.
fn corpus(dir: &str) -> Vec<String> {
    let mut files: Vec<String> = std::fs::read_dir(repo_path(dir))
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|e| e.unwrap().path().to_str().unwrap().to_owned())
        .filter(|p| p.ends_with(".xml"))
        .collect();
    files.sort();
    files
}

/// The shipped book catalogs, sorted for a stable argument order.
fn testdata() -> Vec<String> {
    corpus("testdata/books")
}

fn infer_files(files: &[String], extra: &[&str]) -> Vec<u8> {
    let refs: Vec<&str> = files.iter().map(String::as_str).collect();
    let out = Command::new(env!("CARGO_BIN_EXE_dtdinfer"))
        .args([&["infer"][..], extra, &refs].concat())
        .output()
        .expect("spawn dtdinfer");
    assert!(
        out.status.success(),
        "infer {extra:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn infer(extra: &[&str]) -> Vec<u8> {
    infer_files(&testdata(), extra)
}

fn golden(name: &str) -> Vec<u8> {
    std::fs::read(repo_path("testdata/golden").join(name))
        .unwrap_or_else(|e| panic!("testdata/golden/{name}: {e}"))
}

#[test]
fn idtd_dtd_matches_golden_for_every_job_count() {
    let expected = golden("books.idtd.dtd");
    assert_eq!(infer(&[]), expected, "sequential");
    for jobs in ["1", "2", "4", "8"] {
        assert_eq!(infer(&["--jobs", jobs]), expected, "--jobs {jobs}");
    }
}

#[test]
fn crx_dtd_matches_golden_for_every_job_count() {
    let expected = golden("books.crx.dtd");
    assert_eq!(infer(&["--engine", "crx"]), expected, "sequential");
    for jobs in ["1", "4"] {
        assert_eq!(
            infer(&["--engine", "crx", "--jobs", jobs]),
            expected,
            "--jobs {jobs}"
        );
    }
}

#[test]
fn idtd_xsd_matches_golden_for_every_job_count() {
    let expected = golden("books.idtd.xsd");
    assert_eq!(infer(&["--xsd"]), expected, "sequential");
    for jobs in ["1", "2", "4", "8"] {
        assert_eq!(infer(&["--xsd", "--jobs", jobs]), expected, "--jobs {jobs}");
    }
}

#[test]
fn kore_dtd_matches_golden_for_every_job_count() {
    let expected = golden("books.kore.dtd");
    assert_eq!(infer(&["--engine", "kore"]), expected, "sequential");
    for jobs in ["1", "2", "4", "8"] {
        assert_eq!(
            infer(&["--engine", "kore", "--jobs", jobs]),
            expected,
            "--jobs {jobs}"
        );
    }
}

#[test]
fn auto_dtd_matches_golden_for_every_job_count() {
    let expected = golden("books.auto.dtd");
    assert_eq!(infer(&["--engine", "auto"]), expected, "sequential");
    for jobs in ["1", "2", "4", "8"] {
        assert_eq!(
            infer(&["--engine", "auto", "--jobs", jobs]),
            expected,
            "--jobs {jobs}"
        );
    }
}

/// The repeating-children corpus in `testdata/kore/` is where the k-ORE
/// engine earns its keep: iDTD can only answer `(chorus | verse)+`, while
/// kore (and auto, via the MDL chooser) recover `(chorus, verse, chorus?)`.
/// Each engine's output is pinned byte-for-byte across every job count
/// *and* across document permutations — ingestion order must not matter.
#[test]
fn kore_corpus_matches_golden_across_jobs_and_permutations() {
    let files = corpus("testdata/kore");
    let mut reversed = files.clone();
    reversed.reverse();
    for engine in ["idtd", "kore", "auto"] {
        let expected = golden(&format!("songs.{engine}.dtd"));
        assert_eq!(
            infer_files(&files, &["--engine", engine]),
            expected,
            "{engine} sequential"
        );
        for jobs in ["1", "2", "4", "8"] {
            assert_eq!(
                infer_files(&files, &["--engine", engine, "--jobs", jobs]),
                expected,
                "{engine} --jobs {jobs}"
            );
        }
        assert_eq!(
            infer_files(&reversed, &["--engine", engine, "--jobs", "4"]),
            expected,
            "{engine} reversed file order"
        );
    }
}

/// The `stats` element table without its time column, and without the
/// shard tables `--jobs` appends after it.
fn stats_table(stdout: &[u8]) -> String {
    let text = String::from_utf8_lossy(stdout);
    let mut table = String::new();
    for line in text.lines() {
        if let Some(cut) = line.find(", inference ") {
            table.push_str(&line[..cut]);
            table.push('\n');
            break;
        }
        // The time column is last: a space and 10 right-aligned characters.
        let cut = line.char_indices().rev().nth(10).map_or(0, |(i, _)| i);
        table.push_str(line[..cut].trim_end());
        table.push('\n');
    }
    table
}

/// `testdata/wide/` holds 50 documents sampled (seed 6) from the wide
/// generated schema `random_dtd(3, Shape::LargeAlphabet)`, the schema of
/// the `wide-warm-start` benchmark. Unlike books and songs it drives the
/// repair-heavy path: one element repeats a child four times (k = 4),
/// iDTD repairs fire, and auto picks both SORE and k-ORE models. Every
/// engine's DTD and the per-element `stats` counts are pinned across job
/// counts and document permutations.
#[test]
fn wide_corpus_matches_golden_across_jobs_and_permutations() {
    let files = corpus("testdata/wide");
    let mut reversed = files.clone();
    reversed.reverse();
    let (even, odd): (Vec<_>, Vec<_>) = files
        .iter()
        .cloned()
        .enumerate()
        .partition(|(i, _)| i % 2 == 0);
    let interleaved: Vec<String> = odd.into_iter().chain(even).map(|(_, f)| f).collect();
    for engine in ["idtd", "kore", "auto"] {
        let expected = golden(&format!("wide.{engine}.dtd"));
        for jobs in ["1", "2", "4"] {
            assert_eq!(
                infer_files(&files, &["--engine", engine, "--jobs", jobs]),
                expected,
                "{engine} --jobs {jobs}"
            );
        }
        for (order, docs) in [("reversed", &reversed), ("interleaved", &interleaved)] {
            assert_eq!(
                infer_files(docs, &["--engine", engine, "--jobs", "2"]),
                expected,
                "{engine} {order} file order"
            );
        }
    }

    let expected = String::from_utf8(golden("wide.auto.stats")).expect("utf-8 golden");
    for verdict in ["auto-sore", "auto-kore"] {
        assert!(
            expected.contains(verdict),
            "the corpus no longer yields {verdict}"
        );
    }
    let stats = |docs: &[String], extra: &[&str]| {
        let refs: Vec<&str> = docs.iter().map(String::as_str).collect();
        let out = Command::new(env!("CARGO_BIN_EXE_dtdinfer"))
            .args([&["stats", "--engine", "auto"][..], extra, &refs].concat())
            .output()
            .expect("spawn dtdinfer");
        assert!(out.status.success(), "stats {extra:?} failed");
        stats_table(&out.stdout)
    };
    assert_eq!(stats(&files, &[]), expected, "stats");
    for jobs in ["1", "2", "4"] {
        assert_eq!(
            stats(&files, &["--jobs", jobs]),
            expected,
            "stats --jobs {jobs}"
        );
    }
    assert_eq!(
        stats(&reversed, &["--jobs", "2"]),
        expected,
        "stats reversed"
    );
}

/// `--contextual` runs on the one extractor and the one derive path, so
/// its output is pinned like every other golden: across job counts and
/// under reversed document order.
#[test]
fn contextual_matches_golden_across_jobs_and_permutations() {
    for (dir, name, extra) in [
        ("testdata/books", "books.contextual.txt", &[][..]),
        ("testdata/kore", "songs.contextual.txt", &[][..]),
        ("testdata/wide", "wide.contextual.txt", &[][..]),
        ("testdata/wide", "wide.contextual.xsd", &["--xsd"][..]),
    ] {
        let files = corpus(dir);
        let mut reversed = files.clone();
        reversed.reverse();
        let expected = golden(name);
        let args = [&["--contextual"][..], extra].concat();
        assert_eq!(infer_files(&files, &args), expected, "{name} sequential");
        for jobs in ["1", "2", "4", "8"] {
            let sharded = [&args[..], &["--jobs", jobs]].concat();
            assert_eq!(
                infer_files(&files, &sharded),
                expected,
                "{name} --jobs {jobs}"
            );
        }
        assert_eq!(infer_files(&reversed, &args), expected, "{name} reversed");
    }
}

/// In the books and songs corpora every element has a single parent, so
/// contextual inference must give each element exactly the content spec
/// plain inference gives it, for every engine: one derive path.
#[test]
fn single_parent_contexts_equal_the_plain_dtd() {
    for dir in ["testdata/books", "testdata/kore"] {
        let files = corpus(dir);
        for engine in ["crx", "idtd", "idtd-noise:2", "kore", "auto"] {
            let dtd = String::from_utf8(infer_files(&files, &["--engine", engine])).unwrap();
            let mut plain: Vec<String> = dtd
                .lines()
                .filter_map(|l| l.strip_prefix("<!ELEMENT ")?.strip_suffix('>'))
                .map(str::to_owned)
                .collect();
            let typed = infer_files(&files, &["--contextual", "--engine", engine]);
            let mut contextual: Vec<String> = String::from_utf8(typed)
                .unwrap()
                .lines()
                .map(|l| {
                    let (element, rest) = l.split_once(" (under ").expect("a type line");
                    let (_, spec) = rest.split_once("): ").expect("a type line");
                    format!("{element} {spec}")
                })
                .collect();
            plain.sort();
            contextual.sort();
            assert_eq!(contextual, plain, "{dir} --engine {engine}");
        }
    }
}

/// `testdata/snapshots/books.v4.snap` was written by a v4 build (the last
/// format with learner rows) from `testdata/books/*.xml`. Loading it must
/// derive the goldens for every engine, and re-saving it must write what
/// a fresh save of the same documents writes.
#[test]
fn committed_v4_snapshot_loads_to_the_goldens() {
    use dtdinfer_engine::pool::ingest_source;
    use dtdinfer_engine::snapshot;
    use dtdinfer_engine::source::PathSource;
    use dtdinfer_engine::EngineState;

    let path = repo_path("testdata/snapshots/books.v4.snap");
    let v4 = std::fs::read_to_string(&path).expect("committed v4 snapshot");
    assert!(v4.starts_with("#dtdinfer-engine v4\n"));
    assert!(v4.contains("\nk "), "the fixture carries learner rows");
    let load = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_dtdinfer"))
            .args([&["snapshot", "load"][..], extra, &[path.to_str().unwrap()]].concat())
            .output()
            .expect("spawn dtdinfer");
        assert!(
            out.status.success(),
            "snapshot load {extra:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    for engine in ["idtd", "crx", "kore", "auto"] {
        let expected = golden(&format!("books.{engine}.dtd"));
        assert_eq!(load(&["--engine", engine]), expected, "{engine}");
    }
    assert_eq!(load(&["--xsd"]), golden("books.idtd.xsd"), "xsd");

    let loaded = snapshot::load(&v4).expect("v4 loads");
    let paths = testdata().into_iter().map(PathBuf::from).collect();
    let fresh = ingest_source(EngineState::new(), &PathSource::new(paths), 1)
        .expect("books parse")
        .state;
    let resaved = snapshot::save(&loaded);
    assert!(resaved.starts_with(snapshot::HEADER));
    assert_eq!(resaved, snapshot::save(&fresh));
}
