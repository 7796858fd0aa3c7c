//! The user paths the end-to-end metrics time, each as the CLI runs it.

use dtdinfer_engine::pool::{ingest_into, ingest_source};
use dtdinfer_engine::source::PathSource;
use dtdinfer_engine::{snapshot, EngineState};
use dtdinfer_xml::dtd::Dtd;
use dtdinfer_xml::extract::Corpus;
use dtdinfer_xml::infer::{infer_dtd_with_stats, InferenceEngine};
use std::io::Read;
use std::path::{Path, PathBuf};

/// Learner for batch inference (`infer --engine idtd`).
pub const BATCH_ENGINE: InferenceEngine = InferenceEngine::Idtd;
/// Learner for warm starts (`--engine auto`).
pub const WARM_ENGINE: InferenceEngine = InferenceEngine::Auto;

/// Plain `infer FILE…`: read each file, extract it into a `Corpus`, infer,
/// serialize.
pub fn infer_sequential(files: &[PathBuf]) -> Result<(Dtd, String), String> {
    let mut corpus = Corpus::new();
    let mut buf = String::new();
    for f in files {
        buf.clear();
        std::fs::File::open(f)
            .and_then(|mut file| file.read_to_string(&mut buf))
            .map_err(|e| format!("{}: {e}", f.display()))?;
        corpus
            .add_document_from(&buf, &f.display().to_string())
            .map_err(|e| e.to_string())?;
    }
    let (dtd, _) = infer_dtd_with_stats(&corpus, BATCH_ENGINE);
    let text = dtd.serialize();
    Ok((dtd, text))
}

/// `infer --jobs N FILE…`: stream the files through the worker pool,
/// derive, serialize.
pub fn infer_engine(files: &[PathBuf], jobs: usize) -> Result<String, String> {
    let source = PathSource::new(files.to_vec());
    let ingested = ingest_source(EngineState::new(), &source, jobs).map_err(|e| e.to_string())?;
    let (dtd, _) = ingested.state.derive(BATCH_ENGINE);
    Ok(dtd.serialize())
}

/// The warm user path: load a snapshot file, ingest a delta batch, save
/// the updated snapshot, derive, serialize.
pub fn warm_start(snap: &Path, delta: &[String], out: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(snap).map_err(|e| format!("{}: {e}", snap.display()))?;
    let state = snapshot::load(&text)?;
    let state = ingest_into(state, delta, 1)
        .map_err(|e| e.to_string())?
        .state;
    std::fs::write(out, snapshot::save(&state)).map_err(|e| format!("{}: {e}", out.display()))?;
    let (dtd, _) = state.derive(WARM_ENGINE);
    Ok(dtd.serialize())
}

/// A cold one-shot inference over in-memory documents by the sequential
/// path — the reference the benchmark checks other paths against.
pub fn infer_cold<S: AsRef<str>>(docs: &[S], engine: InferenceEngine) -> Result<String, String> {
    let mut corpus = Corpus::new();
    for doc in docs {
        corpus
            .add_document(doc.as_ref())
            .map_err(|e| e.to_string())?;
    }
    Ok(infer_dtd_with_stats(&corpus, engine).0.serialize())
}
