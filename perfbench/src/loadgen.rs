//! Open-loop traffic against the daemon.
//!
//! Requests are due on a fixed schedule (`i / rate` seconds after the
//! start) regardless of how fast replies come back, as from independent
//! users. Each request's latency is timed from when it was *due*, so a
//! stall also counts against the requests queued behind it. The generator
//! runs at most one client thread, and one connection, per core; a thread
//! that is still waiting on a reply sends its next request late, and that
//! lateness is reported so a run whose generator fell behind is flagged.

use crate::server::Client;
use crate::setup::session_name;
use crate::workload::{Family, SESSIONS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Requests at the start of each slice that are sent and checked but not
/// timed: the first requests after an idle spell find the daemon's accept
/// loop in its longest back-off and its caches cold, which a daemon under
/// steady traffic never sees.
pub const WARMUP: usize = 3;

/// A run whose p99 send lateness exceeds this fell behind its schedule and
/// is not scored.
pub const LATE_LIMIT_MS: f64 = 100.0;

/// Offered request rate per second for each input family, well below
/// what the daemon sustains on two cores.
pub fn rate(family: Family) -> f64 {
    match family {
        Family::Narrow => 200.0,
        Family::Wide => 100.0,
    }
}

/// What one request does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `POST /sessions/{s}/ingest` with one document (a write).
    Ingest,
    /// `GET /sessions/{s}/dtd` (a read).
    Dtd,
    /// `POST /sessions/{s}/validate` with one document (a read).
    Validate,
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planned {
    /// When it is due, from the start of the run.
    pub due: Duration,
    /// What it does.
    pub kind: Kind,
    /// Target session index.
    pub session: usize,
    /// Pool document it sends (ingest and validate).
    pub doc: usize,
}

/// The seeded schedule: `rate × seconds` requests, 40% single-document
/// ingests, 30% `GET /dtd`, 30% validations, spread uniformly over the
/// sessions. Ingests walk the pool in order.
pub fn plan(seed: u64, rate: f64, seconds: f64, pool_len: usize) -> Vec<Planned> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x10ad_9e11);
    let n = (rate * seconds).round().max(1.0) as usize;
    let mut next_ingest = 0usize;
    (0..n)
        .map(|i| {
            let roll = rng.gen_range(0..10u32);
            let session = rng.gen_range(0..SESSIONS);
            let (kind, doc) = match roll {
                0..=3 => {
                    next_ingest += 1;
                    (Kind::Ingest, (next_ingest - 1) % pool_len)
                }
                4..=6 => (Kind::Dtd, 0),
                _ => (Kind::Validate, rng.gen_range(0..pool_len)),
            };
            Planned {
                due: Duration::from_secs_f64(i as f64 / rate),
                kind,
                session,
                doc,
            }
        })
        .collect()
}

/// One finished request.
#[derive(Debug, Clone)]
pub struct Done {
    /// The request as planned.
    pub planned: Planned,
    /// From due time to the end of the reply.
    pub latency: Duration,
    /// From due time to when the request was actually sent.
    pub late: Duration,
    /// HTTP status, or `None` when the exchange failed.
    pub status: Option<u16>,
}

impl Done {
    /// Whether the request got a 2xx reply.
    pub fn ok(&self) -> bool {
        self.status.is_some_and(|s| (200..300).contains(&s))
    }
}

/// Sends `plan` to the daemon at `addr` from `threads` client threads.
/// Due times count from the first planned request, so a plan can be sent
/// in consecutive slices.
pub fn run(addr: &str, plan: &[Planned], pool: &[String], threads: usize) -> Vec<Done> {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(plan.len()));
    let first = plan.first().map_or(Duration::ZERO, |p| p.due);
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                let mut client = Client::new(addr);
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&planned) = plan.get(i) else { break };
                    let due = start + (planned.due - first);
                    let now = Instant::now();
                    if now < due {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    let name = session_name(planned.session);
                    let doc = pool[planned.doc].as_bytes();
                    let reply = match planned.kind {
                        Kind::Ingest => {
                            client.send("POST", &format!("/sessions/{name}/ingest"), doc)
                        }
                        Kind::Dtd => client.send("GET", &format!("/sessions/{name}/dtd"), b""),
                        Kind::Validate => {
                            client.send("POST", &format!("/sessions/{name}/validate"), doc)
                        }
                    };
                    let finished = Instant::now();
                    local.push(Done {
                        planned,
                        latency: finished.saturating_duration_since(due),
                        late: sent.saturating_duration_since(due),
                        status: reply.ok().map(|r| r.status),
                    });
                }
                done.lock().expect("no client thread panics").extend(local);
            });
        }
    });
    let mut done = done.into_inner().expect("no client thread panics");
    done.sort_by_key(|d| d.planned.due);
    done
}

/// p99 of how late the generator sent, in ms.
pub fn late_p99_ms(done: &[Done]) -> f64 {
    let late: Vec<f64> = done.iter().map(|d| crate::stats::ms(d.late)).collect();
    crate::stats::quantile(&late, 0.99)
}
