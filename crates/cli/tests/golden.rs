//! Golden-output regression tests: the DTD and XSD inferred from the
//! shipped book catalogs are pinned byte-for-byte against
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
