//! End-to-end and per-layer benchmark for dtdinfer.
//!
//! One run measures one workload for a fixed time and prints a JSON
//! result line: the end-to-end metrics of three user paths (batch
//! inference, warm start from a snapshot, the serve daemon), or — with
//! `--trace 1` — the per-layer ledger, timed around each layer's public
//! calls. See `README.md` beside this crate.

pub mod ledger;
pub mod loadgen;
pub mod measure;
pub mod paths;
pub mod serve_phase;
pub mod server;
pub mod setup;
pub mod stats;
pub mod workload;
