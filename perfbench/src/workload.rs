//! The workloads and the inputs each one generates from its seed.
//!
//! Every workload drives the same three user paths — batch inference,
//! warm start from a snapshot, and the serve daemon — so every metric is
//! defined on every workload. What differs is the input family and which
//! path gets most of the measuring time:
//!
//! * `bulk-infer`: a multi-MiB corpus of small records with few distinct
//!   child sequences. Ingestion dominates; derivation is negligible.
//! * `wide-warm-start`: documents sampled from a wide generated schema,
//!   with over a thousand distinct child sequences. Derivation and the
//!   snapshot format dominate; the daemon's per-ingest re-derive makes
//!   its serve path the derive-heavy one.

use dtdinfer_engine::{pool, snapshot, EngineState};
use dtdinfer_fuzz::schema::{random_dtd, Shape};
use dtdinfer_xml::generate::{sample_documents, GenerateConfig};

/// Which benchmark workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Ingestion-heavy batch inference over a narrow corpus.
    BulkInfer,
    /// Derivation-heavy warm start over a wide schema.
    WideWarmStart,
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 2] = [Workload::BulkInfer, Workload::WideWarmStart];

/// Input family: what the generated documents look like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `synth_corpus_bytes` records: few element names, few shapes.
    Narrow,
    /// Documents sampled from a `Shape::LargeAlphabet` schema.
    Wide,
}

/// Share of the measuring time each path gets, in seconds per second.
#[derive(Debug, Clone, Copy)]
pub struct Shares {
    /// Batch inference (sequential path and engine path).
    pub batch: f64,
    /// Warm start from a snapshot.
    pub warm: f64,
    /// The daemon under open-loop traffic.
    pub serve: f64,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkInfer => "bulk-infer",
            Workload::WideWarmStart => "wide-warm-start",
        }
    }

    /// The input family the workload generates.
    pub fn family(self) -> Family {
        match self {
            Workload::BulkInfer => Family::Narrow,
            Workload::WideWarmStart => Family::Wide,
        }
    }

    /// How the measuring time is split between the three paths: the
    /// workload's own path gets most of it.
    pub fn shares(self) -> Shares {
        match self {
            Workload::BulkInfer => Shares {
                batch: 0.55,
                warm: 0.15,
                serve: 0.3,
            },
            Workload::WideWarmStart => Shares {
                batch: 0.15,
                warm: 0.5,
                serve: 0.35,
            },
        }
    }
}

/// Size of the narrow corpus in bytes.
pub const NARROW_BYTES: usize = 4 << 20;
/// Documents in the wide corpus.
pub const WIDE_DOCS: usize = 2000;
/// The fixed wide schema: `random_dtd(WIDE_SCHEMA_SEED, LargeAlphabet)`,
/// 26 element names. The run seed picks the documents, not the schema, so
/// every seed loads derivation equally.
pub const WIDE_SCHEMA_SEED: u64 = 3;
/// Serve sessions the corpus is spread over.
pub const SESSIONS: usize = 4;
/// Documents in the serve pool (ingest and validate bodies).
pub const POOL_DOCS: usize = 2000;
/// Mixed into the run seed for the serve pool, so pool and corpus differ.
const POOL_SALT: u64 = 0x5eed_9001;

/// Everything a run feeds the program, generated from the seed alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// Which family generated the documents.
    pub family: Family,
    /// The corpus: written one file per document for batch inference;
    /// its head is the warm-start snapshot and its tail the delta.
    pub corpus: Vec<String>,
    /// How many trailing corpus documents form the warm-start delta.
    pub delta: usize,
    /// Documents the serve traffic ingests and validates (disjoint from
    /// the corpus, which preloads the sessions).
    pub pool: Vec<String>,
}

impl Inputs {
    /// Generates the inputs of `family` for `seed`.
    pub fn generate(family: Family, seed: u64) -> Inputs {
        let (corpus, pool, delta) = match family {
            Family::Narrow => (
                dtdinfer_bench::synth_corpus_bytes(NARROW_BYTES, seed),
                dtdinfer_bench::synth_corpus(POOL_DOCS, seed ^ POOL_SALT),
                256,
            ),
            Family::Wide => {
                let dtd = random_dtd(WIDE_SCHEMA_SEED, Shape::LargeAlphabet);
                let cfg = GenerateConfig::default();
                let sample = |s: u64, n: usize| {
                    sample_documents(&dtd, &cfg, s, n).expect("the wide schema is acyclic")
                };
                (
                    sample(seed, WIDE_DOCS),
                    sample(seed ^ POOL_SALT, POOL_DOCS),
                    32,
                )
            }
        };
        Inputs {
            family,
            corpus,
            delta,
            pool,
        }
    }

    /// The warm-start snapshot's documents.
    pub fn base(&self) -> &[String] {
        &self.corpus[..self.corpus.len() - self.delta]
    }

    /// The warm-start delta batch.
    pub fn delta_docs(&self) -> &[String] {
        &self.corpus[self.corpus.len() - self.delta..]
    }

    /// The corpus documents preloaded into serve session `i`.
    pub fn session_docs(&self, i: usize) -> Vec<&str> {
        self.corpus
            .iter()
            .skip(i)
            .step_by(SESSIONS)
            .map(String::as_str)
            .collect()
    }

    /// Total corpus bytes.
    pub fn corpus_bytes(&self) -> u64 {
        self.corpus.iter().map(|d| d.len() as u64).sum()
    }
}

/// What a run's inputs look like, so a change to the workload shows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Corpus documents.
    pub documents: u64,
    /// Corpus bytes.
    pub bytes: u64,
    /// Element occurrences in the corpus.
    pub elements: u64,
    /// Distinct child sequences summed over element names.
    pub distinct_words: u64,
    /// Bytes of the warm-start snapshot.
    pub snapshot_bytes: u64,
    /// Serve pool documents.
    pub pool_documents: u64,
    /// Serve pool bytes.
    pub pool_bytes: u64,
}

/// Distinct child sequences summed over the element names of `state`.
pub fn distinct_words(state: &EngineState) -> u64 {
    state
        .elements
        .values()
        .map(|e| e.words.distinct() as u64)
        .sum()
}

impl Fingerprint {
    /// Computes the fingerprint of `inputs`.
    pub fn of(inputs: &Inputs) -> Fingerprint {
        let whole = pool::ingest(&inputs.corpus, 1).expect("generated documents parse");
        let base = pool::ingest(inputs.base(), 1).expect("generated documents parse");
        Fingerprint {
            documents: inputs.corpus.len() as u64,
            bytes: inputs.corpus_bytes(),
            elements: whole.state.elements.values().map(|e| e.occurrences).sum(),
            distinct_words: distinct_words(&whole.state),
            snapshot_bytes: snapshot::save(&base.state).len() as u64,
            pool_documents: inputs.pool.len() as u64,
            pool_bytes: inputs.pool.iter().map(|d| d.len() as u64).sum(),
        }
    }

    /// One JSON line.
    pub fn json(&self, workload: Workload, seed: u64) -> String {
        format!(
            "{{\"fingerprint\": {{\"workload\": \"{}\", \"seed\": {seed}, \"documents\": {}, \"bytes\": {}, \"elements\": {}, \"distinct_words\": {}, \"snapshot_bytes\": {}, \"pool_documents\": {}, \"pool_bytes\": {}}}}}",
            workload.name(),
            self.documents,
            self.bytes,
            self.elements,
            self.distinct_words,
            self.snapshot_bytes,
            self.pool_documents,
            self.pool_bytes
        )
    }
}
