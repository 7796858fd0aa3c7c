//! The serve path: boot the daemon over the prepared sessions, drive it
//! open-loop, then check every session's schema against batch inference.

use crate::loadgen::{self, Done, Kind};
use crate::paths::infer_cold;
use crate::server::{Client, Server, SERVE_ENGINE};
use crate::setup::{session_name, Prepared};
use crate::stats::Tally;
use crate::workload::{Inputs, SESSIONS};

/// Checks that each session serves the DTD batch inference derives from
/// its preloaded documents plus every ingest it acknowledged.
pub fn check_sessions(inputs: &Inputs, addr: &str, done: &[Done]) -> Result<Tally, String> {
    let mut tally = Tally::default();
    let mut client = Client::new(addr);
    for i in 0..SESSIONS {
        let mut docs = inputs.session_docs(i);
        docs.extend(
            done.iter()
                .filter(|d| d.planned.kind == Kind::Ingest && d.planned.session == i && d.ok())
                .map(|d| inputs.pool[d.planned.doc].as_str()),
        );
        let expected = infer_cold(&docs, SERVE_ENGINE)?;
        let served = client.send("GET", &format!("/sessions/{}/dtd", session_name(i)), b"");
        let same = matches!(&served, Ok(r) if r.ok() && r.body == expected.as_bytes());
        if !same {
            eprintln!(
                "perfbench: session {} schema differs from batch inference",
                session_name(i)
            );
        }
        tally.record(same);
    }
    Ok(tally)
}

/// What one serve phase observed.
#[derive(Debug)]
pub struct ServeRun {
    /// Every planned request, finished.
    pub done: Vec<Done>,
    /// Requests plus one schema check per session.
    pub tally: Tally,
    /// The access log the daemon wrote.
    pub access_log: String,
}

/// Boots the daemon with an access log, sends `seconds` of open-loop
/// traffic at the family's rate, checks the sessions, shuts down.
pub fn run_logged(
    inputs: &Inputs,
    prepared: &Prepared,
    seed: u64,
    seconds: f64,
    workers: usize,
) -> Result<ServeRun, String> {
    let log_path = prepared.scratch.join("access.log");
    let server = Server::boot(&prepared.serve_dir, workers, Some(log_path.clone()))?;
    let plan = loadgen::plan(
        seed,
        loadgen::rate(inputs.family),
        seconds,
        inputs.pool.len(),
    );
    let done = loadgen::run(&server.addr, &plan, &inputs.pool, workers);
    let mut tally = Tally::default();
    for d in &done {
        tally.record(d.ok());
    }
    tally.add(check_sessions(inputs, &server.addr, &done)?);
    server.shutdown()?;
    let access_log =
        std::fs::read_to_string(&log_path).map_err(|e| format!("{}: {e}", log_path.display()))?;
    Ok(ServeRun {
        done,
        tally,
        access_log,
    })
}
