//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Generates the workload's inputs from the seed, sets up seven times
//! (reporting the median), measures for the given seconds, checks every
//! output, and prints one JSON result object as the last line of stdout.
//! All files live under `.bench_work/` in the current directory and are
//! removed before exit.

use dtdinfer_perfbench::ledger;
use dtdinfer_perfbench::measure::{self, Run};
use dtdinfer_perfbench::setup::{self, Prepared};
use dtdinfer_perfbench::stats::{median, peak_rss_mb, result_line, timed, Metrics};
use dtdinfer_perfbench::workload::{Fingerprint, Inputs, Workload};
use std::path::{Path, PathBuf};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn bench(args: &Args, root: &Path) -> Result<String, String> {
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let inputs = Inputs::generate(args.workload.family(), args.seed);
    let files = setup::write_corpus(&inputs, &root.join("corpus"))?;
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut prepared: Option<(Prepared, PathBuf)> = None;
    for k in 0..SETUPS {
        if let Some((_, dir)) = prepared.take() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let dir = root.join(format!("setup-{k}"));
        let (p, t) = timed(|| setup::prepare(&inputs, &files, &dir, jobs));
        setup_times.push(t.as_secs_f64());
        prepared = Some((p?, dir));
    }
    let (prepared, _) = prepared.expect("at least one set-up");
    println!(
        "{}",
        Fingerprint::of(&inputs).json(args.workload, args.seed)
    );
    let run = Run {
        workload: args.workload,
        inputs: &inputs,
        prepared: &prepared,
        seed: args.seed,
        seconds: args.seconds,
        jobs,
    };
    eprintln!(
        "perfbench: {} seed {} for {} s on {jobs} core(s){}",
        args.workload.name(),
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" }
    );
    if args.trace {
        let (tally, metrics) = ledger::run(&run)?;
        return Ok(result_line(tally, &metrics));
    }
    let (tally, paths) = measure::run(&run)?;
    let mut metrics = Metrics::default();
    metrics.put("setup_s", "s", median(&setup_times));
    metrics.put(
        "success_ratio",
        "ratio",
        (tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64,
    );
    metrics.put("peak_rss_mb", "MB", peak_rss_mb());
    metrics.0.extend(paths.0);
    Ok(result_line(tally, &metrics))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload bulk-infer|wide-warm-start --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(".bench_work");
    let root = work.join(format!("{}-{}", args.workload.name(), std::process::id()));
    let outcome = bench(&args, &root);
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(&work);
    match outcome {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
