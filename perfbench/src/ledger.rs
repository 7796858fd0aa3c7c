//! The traced run: per-layer metrics, timed around the public call into
//! each layer from this file. Nothing inside the program is instrumented.
//!
//! Each traced operation runs its path one layer at a time — read, parse,
//! extract, infer, absorb, pool, derive, snapshot, journal, diff,
//! serialize, validate — and times every call. A layer whose public call
//! includes parsing (`Corpus::add_document`, `absorb_document_with`) gets
//! its self time as the call minus a parse-only pass over the same
//! documents. The ledger sums the timed calls; its unattributed share is
//! the traced wall time no call covers. The HTTP load phase is left out of
//! the ledger, since its wall time is set by the request schedule; its
//! per-layer numbers come from the daemon's access log.

use crate::loadgen::Kind;
use crate::measure::{repeat, Run};
use crate::paths::{infer_cold, infer_sequential, warm_start, BATCH_ENGINE, WARM_ENGINE};
use crate::serve_phase;
use crate::server::SERVE_ENGINE;
use crate::setup::session_name;
use crate::stats::{median, ms, quantile, Metrics, Tally};
use crate::workload::{distinct_words, SESSIONS};
use dtdinfer_engine::journal::Store;
use dtdinfer_engine::pool::{ingest, ingest_into, ingest_source};
use dtdinfer_engine::source::PathSource;
use dtdinfer_engine::{snapshot, EngineState, ParseArena};
use dtdinfer_xml::diff::diff;
use dtdinfer_xml::extract::Corpus;
use dtdinfer_xml::infer::{infer_dtd_with_stats, InferenceEngine};
use dtdinfer_xml::parser::XmlPullParser;
use std::collections::BTreeMap;
use std::io::Read;
use std::time::{Duration, Instant};

/// `ledger.unattributed_pct` stays below this on `bulk-infer` and
/// `wide-warm-start`.
pub const RESIDUAL_PCT: f64 = 5.0;

/// Traced operations run at least this often per path.
const MIN_TRACED_OPS: usize = 3;

/// Timed calls and per-operation samples.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Wall time of the traced operations.
    wall: Duration,
    /// Sum of the timed calls inside them.
    attributed: Duration,
    /// Per-operation samples by metric name.
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Ledger {
    /// Times one public call and charges it to the ledger.
    fn call<T>(&mut self, f: impl FnOnce() -> T) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let d = start.elapsed();
        self.attributed += d;
        (out, d)
    }

    /// Runs one traced operation, adding its wall time.
    fn op<T>(&mut self, f: impl FnOnce(&mut Ledger) -> T) -> T {
        let start = Instant::now();
        let out = f(self);
        self.wall += start.elapsed();
        out
    }

    /// Records one sample of `name`.
    fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// The median sample of `name` (0 when never sampled).
    fn median(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| median(v))
    }

    /// Wall time no timed call covers, in percent.
    pub fn unattributed_pct(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall == 0.0 {
            return 0.0;
        }
        (wall - self.attributed.as_secs_f64()) / wall * 100.0
    }
}

/// Parses every document without building anything: the parser's share
/// of any layer that parses.
fn parse_only(texts: &[String]) -> usize {
    let mut events = 0;
    for text in texts {
        let mut parser = XmlPullParser::new(text);
        while let Ok(Some(event)) = parser.next() {
            std::hint::black_box(&event);
            events += 1;
        }
    }
    events
}

/// One traced batch operation: the sequential path layer by layer, a
/// single-thread engine absorb, and the pooled engine path. Returns
/// whether both paths produced the same DTD.
fn batch_op(led: &mut Ledger, run: &Run) -> Result<bool, String> {
    let files = &run.prepared.files;
    let mb = run.inputs.corpus_bytes() as f64 / 1e6;
    let (texts, read) = led.call(|| {
        files
            .iter()
            .map(|f| {
                let mut buf = String::new();
                std::fs::File::open(f)
                    .and_then(|mut file| file.read_to_string(&mut buf))
                    .map(|_| buf)
                    .map_err(|e| format!("{}: {e}", f.display()))
            })
            .collect::<Result<Vec<String>, String>>()
    });
    let texts = texts?;
    let (_, parse) = led.call(|| parse_only(&texts));
    let (corpus, extract) = led.call(|| {
        let mut corpus = Corpus::new();
        for t in &texts {
            corpus.add_document(t).map_err(|e| e.to_string())?;
        }
        Ok::<_, String>(corpus)
    });
    let corpus = corpus?;
    let ((dtd, _), infer) = led.call(|| infer_dtd_with_stats(&corpus, BATCH_ENGINE));
    let (seq_text, serialize) = led.call(|| dtd.serialize());
    let (_, drop_corpus) = led.call(|| drop(corpus));
    let (absorbed, absorb) = led.call(|| {
        let mut state = EngineState::new();
        let mut arena = ParseArena::new();
        for t in &texts {
            state
                .absorb_document_with(t, &mut arena)
                .map_err(|e| e.to_string())?;
        }
        Ok::<_, String>(state)
    });
    absorbed?;
    let (_, drop_texts) = led.call(|| drop(texts));
    let (ingested, pool) = led.call(|| {
        ingest_source(
            EngineState::new(),
            &PathSource::new(files.clone()),
            run.jobs,
        )
        .map_err(|e| e.to_string())
    });
    let ingested = ingested?;
    let ((eng_dtd, _), derive) = led.call(|| ingested.state.derive(BATCH_ENGINE));
    let (eng_text, eng_serialize) = led.call(|| eng_dtd.serialize());

    led.sample("engine.source.read_ms", ms(read + drop_texts));
    led.sample("xml.parser.ms", ms(parse));
    led.sample("xml.parser.mb_per_s", mb / parse.as_secs_f64());
    led.sample("xml.extract.self_ms", ms(extract + drop_corpus) - ms(parse));
    led.sample("xml.infer.ms", ms(infer));
    led.sample("engine.absorb.self_ms", ms(absorb) - ms(parse));
    let shards = &ingested.shards;
    led.sample(
        "engine.pool.busy_ms",
        shards.iter().map(|s| s.busy_ns as f64 / 1e6).sum(),
    );
    led.sample(
        "engine.pool.util_pct",
        shards.iter().map(|s| s.utilization_pct()).sum::<f64>() / shards.len().max(1) as f64,
    );
    led.sample("engine.pool.merge_ms", ingested.merge_ns as f64 / 1e6);
    led.sample(
        "infer_jobs_mb_per_s",
        mb / (pool + derive + eng_serialize).as_secs_f64(),
    );
    led.sample(
        "engine.pool.claims",
        shards.iter().map(|s| s.claims as f64).sum(),
    );
    led.sample(
        "traced.seq_ms",
        ms(read + drop_texts + extract + drop_corpus + infer + serialize),
    );
    Ok(seq_text == eng_text)
}

/// One traced warm start: load, delta, save, then every learner over the
/// same state. Returns the auto DTD.
fn warm_op(led: &mut Ledger, run: &Run) -> Result<String, String> {
    let p = run.prepared;
    let (state, load) = led.call(|| {
        let text = std::fs::read_to_string(&p.base_snapshot)
            .map_err(|e| format!("{}: {e}", p.base_snapshot.display()))?;
        snapshot::load(&text)
    });
    let (state, delta) = led.call(|| {
        ingest_into(state?, run.inputs.delta_docs(), 1)
            .map(|i| i.state)
            .map_err(|e| e.to_string())
    });
    let state = state?;
    let (bytes, save) = led.call(|| {
        let text = snapshot::save(&state);
        std::fs::write(&p.warm_out, &text).map(|_| text.len())
    });
    let bytes = bytes.map_err(|e| format!("{}: {e}", p.warm_out.display()))?;
    let ((auto_dtd, _), auto) = led.call(|| state.derive(WARM_ENGINE));
    let (text, serialize) = led.call(|| auto_dtd.serialize());
    let ((_, idtd_reports), idtd) = led.call(|| state.derive(InferenceEngine::Idtd));
    let (_, crx) = led.call(|| state.derive(InferenceEngine::Crx));
    let (_, kore) = led.call(|| state.derive(InferenceEngine::Kore));
    led.sample("engine.snapshot.load_ms", ms(load));
    led.sample("engine.snapshot.save_ms", ms(save));
    led.sample("engine.snapshot.bytes", bytes as f64);
    led.sample("engine.derive.auto_ms", ms(auto));
    led.sample("engine.derive.idtd_ms", ms(idtd));
    led.sample("engine.derive.crx_ms", ms(crx));
    led.sample("engine.derive.kore_ms", ms(kore));
    led.sample(
        "engine.derive.distinct_words",
        distinct_words(&state) as f64,
    );
    led.sample(
        "engine.derive.repairs",
        idtd_reports.iter().map(|r| r.repairs as f64).sum(),
    );
    led.sample("xml.dtd.serialize_ms", ms(serialize));
    led.sample("traced.warm_ms", ms(load + delta + save + auto + serialize));
    Ok(text)
}

/// Replays the serve schedule's ingests and validations through the calls
/// `Session::ingest` makes — `Store::append`, `absorb_document`, `derive`,
/// `diff` — and `validate_structured`. Like the daemon at its
/// `--compact-min-bytes`, it never compacts mid-run; it compacts every
/// store once at the end, as the daemon's shutdown flush does. Returns
/// whether every call succeeded.
fn replay(led: &mut Ledger, run: &Run, budget: Duration) -> Result<bool, String> {
    let inputs = run.inputs;
    let dir = run.prepared.scratch.join("replay");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    // Session state as set-up left it; building it is not traced.
    let mut sessions = Vec::with_capacity(SESSIONS);
    for i in 0..SESSIONS {
        let state = ingest(&inputs.session_docs(i), 1)
            .map_err(|e| e.to_string())?
            .state;
        let mut store = Store::new(&dir, &session_name(i));
        store.compact(&state)?;
        let dtd = state.derive(SERVE_ENGINE).0;
        sessions.push((store, state, dtd));
    }
    let seconds = run.seconds * run.workload.shares().serve;
    let plan = crate::loadgen::plan(
        run.seed,
        crate::loadgen::rate(inputs.family),
        seconds,
        inputs.pool.len(),
    );
    let mut ok = true;
    let start = Instant::now();
    for (step, planned) in plan.iter().filter(|p| p.kind != Kind::Dtd).enumerate() {
        if step >= MIN_TRACED_OPS && start.elapsed() >= budget {
            break;
        }
        let doc = inputs.pool[planned.doc].as_str();
        let (store, state, dtd) = &mut sessions[planned.session];
        ok &= led.op(|led| {
            if planned.kind == Kind::Validate {
                let (v, t) = led.call(|| dtd.validate_structured(doc).is_ok());
                led.sample("xml.dtd.validate_us", ms(t) * 1e3);
                return v;
            }
            let (appended, append) = led.call(|| store.append(doc, state.num_documents));
            let (absorbed, _) = led.call(|| state.absorb_document(doc));
            let ((after, _), _) = led.call(|| state.derive(SERVE_ENGINE));
            let (_, diffed) = led.call(|| diff(dtd, &after));
            *dtd = after;
            led.sample("engine.journal.append_us", ms(append) * 1e3);
            led.sample("xml.diff.ms", ms(diffed));
            appended.is_ok() && absorbed.is_ok()
        });
    }
    for (store, state, _) in &mut sessions {
        ok &= led.op(|led| {
            let (compacted, t) = led.call(|| store.compact(state));
            led.sample("engine.journal.compact_ms", ms(t));
            compacted.is_ok()
        });
    }
    Ok(ok)
}

/// Reads `"key": <number>` from one access-log line.
fn field_num(line: &str, key: &str) -> Option<f64> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &line[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Reads `"key": "<string>"` from one access-log line.
fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{key}\":\""))? + key.len() + 4;
    let rest = &line[at..];
    Some(&rest[..rest.find('"')?])
}

/// Runs the traced passes and returns the per-layer metrics in
/// `BENCHMARK.json` order.
pub fn run(run: &Run) -> Result<(Tally, Metrics), String> {
    let shares = run.workload.shares();
    let mut led = Ledger::default();
    let mut tally = Tally::default();
    let mut untraced_seq = Vec::new();
    let mut untraced_warm = Vec::new();

    let budget = Duration::from_secs_f64(run.seconds * shares.batch);
    let mut failure = None;
    repeat(budget, MIN_TRACED_OPS, || {
        match led.op(|led| batch_op(led, run)) {
            Ok(same) => tally.record(same),
            Err(e) => {
                tally.record(false);
                failure = Some(e);
            }
        }
        let (_, t) = crate::stats::timed(|| infer_sequential(&run.prepared.files));
        untraced_seq.push(ms(t));
    });

    let budget = Duration::from_secs_f64(run.seconds * shares.warm);
    let cold = infer_cold(&run.inputs.corpus, WARM_ENGINE)?;
    repeat(budget, MIN_TRACED_OPS, || {
        let out = led.op(|led| warm_op(led, run));
        tally.record(out.as_deref() == Ok(cold.as_str()));
        let p = run.prepared;
        let (_, t) = crate::stats::timed(|| {
            warm_start(&p.base_snapshot, run.inputs.delta_docs(), &p.warm_out)
        });
        untraced_warm.push(ms(t));
    });
    if let Some(e) = failure {
        eprintln!("perfbench: traced batch operation failed: {e}");
    }

    let half = Duration::from_secs_f64(run.seconds * shares.serve / 2.0);
    tally.record(replay(&mut led, run, half)?);
    let served = serve_phase::run_logged(
        run.inputs,
        run.prepared,
        run.seed,
        half.as_secs_f64(),
        run.jobs,
    )?;
    tally.add(served.tally);
    let log = &served.access_log;
    let mut queue_wait = Vec::new();
    let mut in_server = Vec::new();
    let mut handle: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for line in log.lines() {
        let (Some(wait), Some(dur), Some(route)) = (
            field_num(line, "queue_wait_us"),
            field_num(line, "duration_us"),
            field_str(line, "route"),
        ) else {
            continue;
        };
        if route == "/shutdown" {
            continue;
        }
        queue_wait.push(wait / 1e3);
        in_server.push((wait + dur) / 1e3);
        handle.entry(route).or_default().push(dur / 1e3);
    }
    let timed = &served.done[crate::loadgen::WARMUP.min(served.done.len())..];
    let client_service: Vec<f64> = timed
        .iter()
        .map(|d| ms(d.latency.saturating_sub(d.late)))
        .collect();
    let latency: Vec<f64> = timed.iter().map(|d| ms(d.latency)).collect();
    let ingest_latency: Vec<f64> = timed
        .iter()
        .filter(|d| d.planned.kind == Kind::Ingest)
        .map(|d| ms(d.latency))
        .collect();
    let route_median = |route: &str| handle.get(route).map_or(0.0, |v| median(v));

    let overhead = (led.median("traced.seq_ms") + led.median("traced.warm_ms"))
        / (median(&untraced_seq) + median(&untraced_warm))
        * 100.0
        - 100.0;
    let mut m = Metrics::default();
    for (name, unit) in [
        ("xml.parser.ms", "ms"),
        ("xml.parser.mb_per_s", "MB/s"),
        ("engine.source.read_ms", "ms"),
        ("xml.extract.self_ms", "ms"),
        ("xml.infer.ms", "ms"),
        ("engine.absorb.self_ms", "ms"),
        ("engine.pool.busy_ms", "ms"),
        ("engine.pool.util_pct", "%"),
        ("engine.pool.merge_ms", "ms"),
        ("engine.pool.claims", "count"),
        ("infer_jobs_mb_per_s", "MB/s"),
        ("engine.derive.idtd_ms", "ms"),
        ("engine.derive.crx_ms", "ms"),
        ("engine.derive.kore_ms", "ms"),
        ("engine.derive.auto_ms", "ms"),
        ("engine.derive.distinct_words", "count"),
        ("engine.derive.repairs", "count"),
        ("engine.snapshot.load_ms", "ms"),
        ("engine.snapshot.save_ms", "ms"),
        ("engine.snapshot.bytes", "bytes"),
        ("engine.journal.append_us", "us"),
        ("engine.journal.compact_ms", "ms"),
        ("xml.diff.ms", "ms"),
        ("xml.dtd.serialize_ms", "ms"),
        ("xml.dtd.validate_us", "us"),
    ] {
        m.put(name, unit, led.median(name));
    }
    m.put("serve_p99_ms", "ms", quantile(&latency, 0.99));
    m.put("serve_ingest_p99_ms", "ms", quantile(&ingest_latency, 0.99));
    m.put(
        "serve.accept_delay_ms",
        "ms",
        median(&client_service) - median(&in_server),
    );
    m.put("serve.queue_wait_ms", "ms", median(&queue_wait));
    m.put(
        "serve.handle_ms.ingest",
        "ms",
        route_median("/sessions/{name}/ingest"),
    );
    m.put(
        "serve.handle_ms.dtd",
        "ms",
        route_median("/sessions/{name}/dtd"),
    );
    m.put(
        "serve.handle_ms.validate",
        "ms",
        route_median("/sessions/{name}/validate"),
    );
    m.put(
        "serve.shed",
        "count",
        served.done.iter().filter(|d| d.status == Some(503)).count() as f64,
    );
    m.put("ledger.unattributed_pct", "%", led.unattributed_pct());
    m.put("ledger.overhead_pct", "%", overhead);
    m.put(
        "loadgen.late_p99_ms",
        "ms",
        crate::loadgen::late_p99_ms(&served.done),
    );
    m.put("loadgen.sent", "count", served.done.len() as f64);
    m.put(
        "loadgen.completed",
        "count",
        served.done.iter().filter(|d| d.status.is_some()).count() as f64,
    );
    Ok((tally, m))
}
