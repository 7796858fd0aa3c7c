//! The untraced run: end-to-end metrics of the three user paths.

use crate::loadgen::{self, Done, LATE_LIMIT_MS};
use crate::paths::{infer_cold, infer_engine, infer_sequential, warm_start, WARM_ENGINE};
use crate::serve_phase;
use crate::server::Server;
use crate::setup::Prepared;
use crate::stats::{median, ms, timed, Metrics, Tally};
use crate::workload::{Inputs, Workload};
use dtdinfer_xml::dtd::Dtd;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Corpus documents validated against the batch DTD per run.
pub const VALIDATE_SAMPLE: usize = 32;

/// Everything the run needs.
pub struct Run<'a> {
    /// The workload.
    pub workload: Workload,
    /// Its generated inputs.
    pub inputs: &'a Inputs,
    /// The set-up the run measures against.
    pub prepared: &'a Prepared,
    /// The run seed.
    pub seed: u64,
    /// Measuring time, split by the workload's shares.
    pub seconds: f64,
    /// Worker threads (traced pool jobs, daemon workers, client threads).
    pub jobs: usize,
}

/// Runs `f` until `budget` has passed and it ran at least `min` times.
pub fn repeat(budget: Duration, min: usize, mut f: impl FnMut()) {
    let start = Instant::now();
    let mut n = 0;
    while n < min || start.elapsed() < budget {
        f();
        n += 1;
    }
}

/// Runs `step(0)`, `step(1)`, … in turn until each step has run for its
/// budget and at least once. The next step is always the one that has
/// used the smallest part of its budget, so the steps alternate every few
/// operations and a slow or quiet spell of the host falls on all of them
/// alike, however short it is.
pub fn interleave(budgets: &[Duration], mut step: impl FnMut(usize)) {
    let mut used = vec![Duration::ZERO; budgets.len()];
    let mut runs = vec![0usize; budgets.len()];
    loop {
        let behind = (0..budgets.len())
            .filter(|&i| runs[i] == 0 || used[i] < budgets[i])
            .min_by(|&i, &j| {
                let part = |k: usize| used[k].as_secs_f64() / budgets[k].as_secs_f64().max(1e-9);
                part(i).total_cmp(&part(j))
            });
        let Some(i) = behind else { break };
        let start = Instant::now();
        step(i);
        used[i] += start.elapsed();
        runs[i] += 1;
    }
}

/// Rounds per run: every round runs the batch and warm paths, interleaved,
/// for their shares and then one slice of the serve schedule, so the
/// serve samples are spread over the whole run too.
pub const ROUNDS: usize = 20;

/// Samples the three paths collect across rounds.
#[derive(Default)]
struct Samples {
    seq_ms: Vec<f64>,
    eng_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    warm_out: Vec<Result<String, String>>,
    reference: Option<Dtd>,
    done: Vec<Done>,
    latency_ms: Vec<f64>,
}

/// Engine jobs on the timed batch path. One job keeps the path's time a
/// matter of this program alone: with a worker per core of a shared
/// host, it also depends on whether another tenant holds the second
/// core. The traced run times the pool at `jobs = nproc`.
const ENGINE_JOBS: usize = 1;

/// One batch operation: the sequential path then the engine path over
/// the corpus files; they must agree byte for byte.
fn batch_op(run: &Run, s: &mut Samples, tally: &mut Tally) {
    let files = &run.prepared.files;
    let (seq, t_seq) = timed(|| infer_sequential(files));
    let (eng, t_eng) = timed(|| infer_engine(files, ENGINE_JOBS));
    s.seq_ms.push(ms(t_seq));
    s.eng_ms.push(ms(t_eng));
    let ok = match (seq, eng) {
        (Ok((dtd, seq)), Ok(eng)) if seq == eng => {
            s.reference.get_or_insert(dtd);
            true
        }
        _ => false,
    };
    tally.record(ok);
}

/// One warm start: load → delta → save → derive(auto) → serialize.
fn warm_op(run: &Run, s: &mut Samples) {
    let p = run.prepared;
    let (out, t) = timed(|| warm_start(&p.base_snapshot, run.inputs.delta_docs(), &p.warm_out));
    s.warm_ms.push(ms(t));
    s.warm_out.push(out);
}

/// Runs the three paths in rounds and returns the tally and the path
/// metrics, in `BENCHMARK.json` order. Checks: both batch paths agree and
/// a seeded sample of the corpus validates against their DTD; every warm
/// start equals a cold one-shot inference of the same documents; every
/// request gets a 2xx reply and every session then serves what batch
/// inference derives from the documents it acknowledged.
pub fn run(run: &Run) -> Result<(Tally, Metrics), String> {
    let shares = run.workload.shares();
    let slice = |share: f64| Duration::from_secs_f64(run.seconds * share / ROUNDS as f64);
    let inputs = run.inputs;
    let server = Server::boot(&run.prepared.serve_dir, run.jobs, None)?;
    server.pause_recording();
    let plan = loadgen::plan(
        run.seed,
        loadgen::rate(inputs.family),
        run.seconds * shares.serve,
        inputs.pool.len(),
    );
    let mut tally = Tally::default();
    let mut s = Samples::default();
    for r in 0..ROUNDS {
        interleave(&[slice(shares.batch), slice(shares.warm)], |i| match i {
            0 => batch_op(run, &mut s, &mut tally),
            _ => warm_op(run, &mut s),
        });
        let chunk = &plan[r * plan.len() / ROUNDS..(r + 1) * plan.len() / ROUNDS];
        server.resume_recording();
        let done = loadgen::run(&server.addr, chunk, &inputs.pool, run.jobs);
        s.latency_ms
            .extend(done.iter().skip(loadgen::WARMUP).map(|d| ms(d.latency)));
        s.done.extend(done);
        server.pause_recording();
    }
    for d in &s.done {
        tally.record(d.ok());
    }
    tally.add(serve_phase::check_sessions(inputs, &server.addr, &s.done)?);
    server.shutdown()?;

    let mut rng = StdRng::seed_from_u64(run.seed ^ 0x7a11_da7e);
    for _ in 0..VALIDATE_SAMPLE {
        let doc = &inputs.corpus[rng.gen_range(0..inputs.corpus.len())];
        let valid = s
            .reference
            .as_ref()
            .is_some_and(|dtd| matches!(dtd.validate_structured(doc), Ok(v) if v.is_empty()));
        tally.record(valid);
    }
    let cold = infer_cold(&inputs.corpus, WARM_ENGINE)?;
    for out in &s.warm_out {
        tally.record(out.as_deref() == Ok(cold.as_str()));
    }

    let late = loadgen::late_p99_ms(&s.done);
    eprintln!(
        "perfbench: loadgen sent {} completed {} late_p99_ms {late:.3}",
        s.done.len(),
        s.done.iter().filter(|d| d.status.is_some()).count()
    );
    if late > LATE_LIMIT_MS {
        return Err(format!(
            "invalid run: the load generator fell behind its schedule (late p99 {late:.1} ms > {LATE_LIMIT_MS} ms)"
        ));
    }
    let mb = inputs.corpus_bytes() as f64 / 1e6;
    let mut metrics = Metrics::default();
    metrics.put("infer_mb_per_s", "MB/s", mb / (median(&s.seq_ms) / 1e3));
    metrics.put(
        "infer_engine_mb_per_s",
        "MB/s",
        mb / (median(&s.eng_ms) / 1e3),
    );
    metrics.put("warm_infer_p50_ms", "ms", median(&s.warm_ms));
    metrics.put("serve_p50_ms", "ms", median(&s.latency_ms));
    Ok((tally, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_alternates_and_spends_every_budget() {
        let budgets = [Duration::from_millis(30), Duration::from_millis(10)];
        let mut order = Vec::new();
        let mut spent = [Duration::ZERO; 2];
        interleave(&budgets, |i| {
            let (_, t) = timed(|| std::thread::sleep(Duration::from_millis(2)));
            spent[i] += t;
            order.push(i);
        });
        assert_eq!(order[..2], [0, 1], "both steps start before either repeats");
        assert!(spent[0] >= budgets[0] && spent[1] >= budgets[1]);
    }

    #[test]
    fn interleave_runs_each_step_once_on_an_empty_budget() {
        let mut order = Vec::new();
        interleave(&[Duration::ZERO, Duration::ZERO], |i| order.push(i));
        assert_eq!(order, [0, 1]);
    }
}
