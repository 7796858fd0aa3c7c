//! Set-up: everything a run prepares on disk before it measures.
//!
//! The generated corpus is written once, one file per document. Then the
//! program's part of set-up runs several times, and its median time is
//! the `setup_s` metric: build and save the warm-start snapshot, build one
//! store per serve session and compact it to a snapshot, and boot the
//! daemon over those sessions (recovery included) and shut it down.
//! Writing the corpus files is left out of `setup_s`: that time is the
//! host file system's, not the program's.

use crate::server::Server;
use crate::workload::{Inputs, SESSIONS};
use dtdinfer_engine::journal::Store;
use dtdinfer_engine::{pool, snapshot};
use std::path::{Path, PathBuf};

/// The on-disk state one set-up leaves.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Corpus files, in corpus order.
    pub files: Vec<PathBuf>,
    /// The warm-start snapshot (the corpus minus its delta).
    pub base_snapshot: PathBuf,
    /// Where warm starts write their updated snapshot.
    pub warm_out: PathBuf,
    /// The daemon's data directory, holding one snapshot per session.
    pub serve_dir: PathBuf,
    /// Scratch directory for journal replays and the access log.
    pub scratch: PathBuf,
}

/// The name of serve session `i`.
pub fn session_name(i: usize) -> String {
    format!("s{i}")
}

fn io_error(p: &Path, e: std::io::Error) -> String {
    format!("{}: {e}", p.display())
}

/// Writes the corpus under `dir`, one file per document, and returns the
/// paths in corpus order. Ends with a `sync`, so the kernel's write-back
/// of thousands of fresh files does not land inside the measured time.
pub fn write_corpus(inputs: &Inputs, dir: &Path) -> Result<Vec<PathBuf>, String> {
    std::fs::create_dir_all(dir).map_err(|e| io_error(dir, e))?;
    let mut files = Vec::with_capacity(inputs.corpus.len());
    for (i, doc) in inputs.corpus.iter().enumerate() {
        let path = dir.join(format!("d{i:05}.xml"));
        std::fs::write(&path, doc).map_err(|e| io_error(&path, e))?;
        files.push(path);
    }
    // Best effort: without `sync` the run is only noisier.
    let _ = std::process::Command::new("sync").status();
    Ok(files)
}

/// The program's part of set-up, into `dir`, over the corpus `files`.
pub fn prepare(
    inputs: &Inputs,
    files: &[PathBuf],
    dir: &Path,
    workers: usize,
) -> Result<Prepared, String> {
    let serve_dir = dir.join("serve");
    let scratch = dir.join("scratch");
    for d in [&serve_dir, &scratch] {
        std::fs::create_dir_all(d).map_err(|e| io_error(d, e))?;
    }
    let base = pool::ingest(inputs.base(), 1).map_err(|e| e.to_string())?;
    let base_snapshot = dir.join("base.snap");
    std::fs::write(&base_snapshot, snapshot::save(&base.state))
        .map_err(|e| io_error(&base_snapshot, e))?;
    for i in 0..SESSIONS {
        let docs = inputs.session_docs(i);
        let state = pool::ingest(&docs, 1).map_err(|e| e.to_string())?.state;
        Store::new(&serve_dir, &session_name(i)).compact(&state)?;
    }
    Server::boot(&serve_dir, workers, None)?.shutdown()?;
    Ok(Prepared {
        files: files.to_vec(),
        base_snapshot,
        warm_out: dir.join("warm.snap"),
        serve_dir,
        scratch,
    })
}
