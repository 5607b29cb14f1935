//! `ifs-perfbench` — the end-to-end benchmark of the serving pipeline.
//!
//! ```text
//! ifs-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!               --serve PATH/TO/ifs-serve --out DIR [--host-json JSON]
//!               [--corrupt-expected]
//! ```
//!
//! With `--trace 0` a run is [`SEGMENTS`] segments. Each writes the
//! workload's fleet into a fresh `ifs-store` log, boots the shipped
//! `ifs-serve` from it (`--log`), and drives it over loopback for its share
//! of `S` seconds, bit-checking every answer; the run prints the
//! end-to-end metrics. With `--trace 1` it measures the untraced pipeline
//! on one boot for half the time, then replays the workload in-process
//! with spans (see `trace.rs`) and prints the per-layer metrics.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The full result —
//! host, shape, and each metric's median and quartiles over its
//! repetitions — goes to `DIR/<workload>-seed<N>-trace<T>.json`, and the
//! traced run's spans to `DIR/spans-<workload>.tsv`.
//!
//! `--corrupt-expected` flips one bit of one expected answer; the run must
//! then fail (the benchmark's self-test).

mod drive;
mod trace;
mod workload;

use drive::{
    answer_once, drive_all, reload_freshness, server_stats, Failure, ServeProcess, Side, Tally,
    Window,
};
use ifs_store::{LogOp, SketchLog};
use ifs_util::stats::quantile;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Inputs, Workload};

/// Segments per untraced run: each boots the server afresh (a set-up;
/// `setup_s` is their median) and measures an equal share of the time,
/// so one unlucky boot moves the run's medians little.
const SEGMENTS: usize = 20;

/// Share of each segment's time spent on hot reloads of the largest
/// fleet frame, on a workload without a writer.
const RELOAD_SHARE: f64 = 0.1;

/// Load before each segment's measured part.
const WARMUP: Duration = Duration::from_millis(250);

/// How `SketchLog::append` persists records today: written, never synced.
const FLUSH_POLICY: &str = "none (append writes, no fsync)";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    serve: PathBuf,
    out: PathBuf,
    host_json: String,
    corrupt_expected: bool,
}

const USAGE: &str = "usage: ifs-perfbench --workload fleet-zipf|wide-scan|ingest-reload \
                     --seed N --seconds S --trace 0|1 --serve PATH --out DIR \
                     [--host-json JSON] [--corrupt-expected]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut serve = None;
    let mut out = None;
    let mut host_json = "{}".to_owned();
    let mut corrupt_expected = false;
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| iter.next().ok_or(format!("{name} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--serve" => serve = Some(PathBuf::from(value("--serve")?)),
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--host-json" => host_json = value("--host-json")?,
            "--corrupt-expected" => corrupt_expected = true,
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    let missing = |what: &str| format!("{what} is required\n{USAGE}");
    let seconds: u64 = seconds.ok_or_else(|| missing("--seconds"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds,
        trace,
        serve: serve.ok_or_else(|| missing("--serve"))?,
        out: out.ok_or_else(|| missing("--out"))?,
        host_json,
        corrupt_expected,
    })
}

/// A server booted from a freshly written log.
struct Booted {
    proc: ServeProcess,
    log: SketchLog,
}

/// One set-up: write the fleet into a fresh log, spawn `ifs-serve --log`,
/// and wait for its first correctly answered query. Returns the server
/// and the set-up's seconds.
fn boot(inputs: &Inputs, args: &Args, rep: usize) -> Result<(Booted, f64), Failure> {
    let path = args.out.join(format!("{}-{rep}.log", args.workload.name()));
    let _ = std::fs::remove_file(&path);
    let store = |e: ifs_store::StoreError| Failure::Broken(e.to_string());
    let t = Instant::now();
    let mut log = SketchLog::create(&path).map_err(store)?;
    for (id, frame) in &inputs.frames {
        log.append(LogOp::Put, *id, frame).map_err(store)?;
    }
    let proc = ServeProcess::spawn(&args.serve, &path, &inputs.shape)?;
    answer_once(&proc.addr, &inputs.plans[0][0])?;
    Ok((Booted { proc, log }, t.elapsed().as_secs_f64()))
}

/// What the untraced measurement saw, over all its segments.
#[derive(Default)]
struct Measured {
    /// Answered reader queries per second, one value per [`drive::SLICE`].
    qps: Vec<f64>,
    /// Round trips in ns, one list per segment.
    latencies: Vec<Vec<u64>>,
    tally: Tally,
    /// Freshness samples in ns, one list per segment.
    freshness: Vec<Vec<u64>>,
    lateness: Vec<u64>,
    /// Per segment: the server's peak RSS, and queries per dispatch.
    peak_rss_mib: Vec<f64>,
    queries_per_dispatch: Vec<f64>,
}

/// Drives a booted server for `seconds` after a short warm-up, adding
/// what it saw to `m`.
fn measure(
    inputs: &Inputs,
    booted: &mut Booted,
    seconds: f64,
    m: &mut Measured,
) -> Result<(), Failure> {
    let win = Window::new(WARMUP, Duration::from_secs_f64(seconds));
    let (sides, _) = drive_all(&booted.proc.addr, inputs, &mut booted.log, win, None)?;
    let mut all_queries = 0u64;
    let mut qps: Vec<f64> = Vec::new();
    let mut latencies: Vec<u64> = Vec::new();
    for side in sides {
        match side {
            Side::Reader(r) => {
                qps.resize(r.per_slice.len(), 0.0);
                for (q, n) in qps.iter_mut().zip(&r.per_slice) {
                    *q += *n as f64 / drive::SLICE.as_secs_f64();
                }
                latencies.extend(r.latencies_ns);
                m.tally.add(r.tally);
                all_queries += r.all_queries;
            }
            Side::Writer(w) => {
                m.tally.add(w.tally);
                m.freshness.push(w.freshness_ns);
                m.lateness.extend(w.lateness_ns);
                all_queries += w.all_queries;
            }
        }
    }
    m.qps.extend(qps);
    m.latencies.push(latencies);
    let stats = server_stats(&booted.proc.addr)?;
    // The set-up's readiness query is one more dispatch the server counted.
    let first = inputs.plans[0][0].itemsets.len() as u64;
    m.queries_per_dispatch.push((all_queries + first) as f64 / stats.served_batches.max(1) as f64);
    m.peak_rss_mib.push(booted.proc.peak_rss_mib()?);
    Ok(())
}

/// Median and quartiles (linearly interpolated).
fn spread(values: &[f64]) -> (f64, f64, f64) {
    (quantile(values, 0.5), quantile(values, 0.25), quantile(values, 0.75))
}

fn ms(ns: &[u64], q: f64) -> f64 {
    let v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e6).collect();
    quantile(&v, q)
}

/// One reported metric with the repetitions behind it.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    reps: Vec<f64>,
}

fn metric(name: &'static str, value: f64, unit: &'static str, reps: Vec<f64>) -> Metric {
    Metric { name, value, unit, reps }
}

/// Samples a p99 window must hold, so that ten lie beyond its p99.
const P99_WINDOW: usize = 1000;

/// The p99 of each window of consecutive segments that together hold at
/// least [`P99_WINDOW`] samples (a short remainder joins the last
/// window). The median over windows is reported: a burst of contention on
/// a shared host then moves one window's tail, not the run's.
fn windowed_p99(segments: &[Vec<u64>]) -> Vec<f64> {
    let mut windows: Vec<Vec<u64>> = Vec::new();
    let mut current: Vec<u64> = Vec::new();
    for segment in segments {
        current.extend(segment);
        if current.len() >= P99_WINDOW {
            windows.push(std::mem::take(&mut current));
        }
    }
    match windows.last_mut() {
        Some(last) => last.extend(current),
        None if !current.is_empty() => windows.push(current),
        None => {}
    }
    windows.iter().map(|w| ms(w, 0.99)).collect()
}

fn end_to_end(setups: &[f64], m: &Measured) -> Result<Vec<Metric>, Failure> {
    let all: Vec<u64> = m.latencies.iter().flatten().copied().collect();
    if all.len() < 1000 {
        return Err(Failure::Broken(format!(
            "{} latency samples: fewer than 10 beyond the p99; run longer",
            all.len()
        )));
    }
    let per_segment = |samples: &[Vec<u64>], q: f64| -> Vec<f64> {
        samples.iter().filter(|s| !s.is_empty()).map(|s| ms(s, q)).collect()
    };
    // Freshness: from a generation's due time to its correct probe answer;
    // without a writer, from a hot reload's send to its probe's answer.
    let freshness: Vec<u64> = m.freshness.iter().flatten().copied().collect();
    let query_p99 = windowed_p99(&m.latencies);
    let answered = 1.0 - m.tally.failed as f64 / m.tally.attempted.max(1) as f64;
    Ok(vec![
        metric("queries_per_s", quantile(&m.qps, 0.5), "1/s", m.qps.clone()),
        metric("query_p50_ms", ms(&all, 0.5), "ms", per_segment(&m.latencies, 0.5)),
        metric("query_p99_ms", quantile(&query_p99, 0.5), "ms", query_p99),
        metric("answered_ratio", answered, "ratio", vec![answered]),
        metric("peak_rss_mib", quantile(&m.peak_rss_mib, 0.5), "MiB", m.peak_rss_mib.clone()),
        metric("setup_s", quantile(setups, 0.5), "s", setups.to_vec()),
        metric("freshness_p50_ms", ms(&freshness, 0.5), "ms", per_segment(&m.freshness, 0.5)),
        // A p95, not a p99: a 20 s run holds about 1000 writer generations,
        // and a p99 resting on ten of them moved by up to a quarter
        // between runs on an idle host.
        metric("freshness_p95_ms", ms(&freshness, 0.95), "ms", per_segment(&m.freshness, 0.95)),
    ])
}

fn json_num(v: f64) -> Result<String, Failure> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(Failure::Broken(format!("a metric is not finite ({v})")))
    }
}

/// The result file and the final line.
fn report(
    args: &Args,
    inputs: &Inputs,
    metrics: &[Metric],
    tally: Tally,
    extra: &str,
) -> Result<String, Failure> {
    let mut line_metrics = Vec::new();
    let mut file_metrics = Vec::new();
    for m in metrics {
        let v = json_num(m.value)?;
        line_metrics.push(format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit));
        let (median, q1, q3) = spread(&m.reps);
        file_metrics.push(format!(
            "    \"{}\": {{\"value\": {v}, \"unit\": \"{}\", \"median\": {}, \"q1\": {}, \
             \"q3\": {}, \"repetitions\": {}}}",
            m.name,
            m.unit,
            json_num(median)?,
            json_num(q1)?,
            json_num(q3)?,
            m.reps.len()
        ));
    }
    let shape = &inputs.shape;
    let error_ratio = tally.failed as f64 / tally.attempted.max(1) as f64;
    let file = format!(
        "{{\n  \"bench\": \"perfbench\",\n  \"mode\": \"release\",\n  \"workload\": \"{}\",\n  \
         \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"host\": {},\n  \
         \"server\": {{\"workers\": {}, \"threads\": {}, \"flush_policy\": \"{FLUSH_POLICY}\"}},\n  \
         \"shape\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"overloaded\": {},\n  \
         \"error_ratio\": {},\n{extra}  \"metrics\": {{\n{}\n  }}\n}}\n",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.host_json,
        shape.server_workers,
        shape.server_threads,
        shape.to_json(),
        tally.attempted,
        tally.failed,
        tally.overloaded,
        json_num(error_ratio)?,
        file_metrics.join(",\n")
    );
    let path = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, file).map_err(|e| Failure::Broken(format!("{}: {e}", path.display())))?;
    println!(
        "{}: attempted {}, failed {}, error_ratio {error_ratio} (result in {})",
        args.workload.name(),
        tally.attempted,
        tally.failed,
        path.display()
    );
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        line_metrics.join(", ")
    ))
}

fn run(args: &Args) -> Result<String, Failure> {
    let seconds = args.seconds as f64;
    // Enough writer generations for the longest window the run drives.
    let segment_s = (seconds / SEGMENTS as f64).max(drive::SLICE.as_secs_f64());
    let longest = if args.trace { (seconds / 2.0).max(1.0) } else { segment_s };
    let generations = ((longest + WARMUP.as_secs_f64()) / 0.02).ceil() as usize + 8;
    let t = Instant::now();
    let mut inputs = workload::generate(args.workload, args.seed, generations);
    let input_s = t.elapsed().as_secs_f64();
    if args.corrupt_expected {
        let expected = &mut inputs.plans[0][0].expected;
        let last_payload_byte = expected.len() - 9;
        expected[last_payload_byte] ^= 1;
    }
    let shape = &inputs.shape;
    println!(
        "{} seed {}: rows {}, dims {}, sketches {}, budget_bits {}, batch {} queries of {} items, \
         {} connections x pipeline {}, server --workers {} --threads {}, writer {}",
        args.workload.name(),
        args.seed,
        shape.rows,
        shape.dims,
        shape.sketches,
        shape.budget_bits,
        shape.batch_queries,
        shape.items_per_query,
        shape.connections,
        shape.pipeline,
        shape.server_workers,
        shape.server_threads,
        if shape.writer_period_ms > 0 {
            format!(
                "every {} ms ({} rows into s={})",
                shape.writer_period_ms, shape.writer_batch_rows, shape.writer_sample_rows
            )
        } else {
            "none".into()
        }
    );
    println!("inputs and expected answers made in {input_s:.3} s (not timed)");
    let has_writer = inputs.writer.is_some();
    if args.trace {
        let (mut booted, _) = boot(&inputs, args, 0)?;
        let mut m = Measured::default();
        measure(&inputs, &mut booted, (seconds / 2.0).max(1.0), &mut m)?;
        drop(booted);
        let untraced = trace::Untraced {
            queries_per_s: quantile(&m.qps, 0.5),
            queries_per_dispatch: m.queries_per_dispatch[0],
        };
        let spans = args.out.join(format!("spans-{}.tsv", args.workload.name()));
        let (layers, tally) =
            trace::traced_run(&inputs, args.seed, seconds, &args.out, &spans, &untraced)?;
        let metrics: Vec<Metric> =
            layers.into_iter().map(|(name, v, unit)| metric(name, v, unit, vec![v])).collect();
        let mut all = m.tally;
        all.add(tally);
        return report(args, &inputs, &metrics, all, "");
    }
    // Without a writer, freshness is a hot reload of the largest frame,
    // probed with the first request of the plan that queries it.
    let reload = if has_writer {
        None
    } else {
        let (id, frame) =
            inputs.frames.iter().max_by_key(|(_, f)| f.len()).expect("a fleet is never empty");
        let probe = inputs.plans[0].iter().find(|q| q.id == *id).ok_or_else(|| {
            Failure::Broken(format!("no request of the plan queries sketch {id}"))
        })?;
        Some((frame, probe))
    };
    let mut setups = Vec::with_capacity(SEGMENTS);
    let mut m = Measured::default();
    for segment in 0..SEGMENTS {
        let (mut booted, setup_s) = boot(&inputs, args, segment)?;
        setups.push(setup_s);
        if let Some((frame, probe)) = reload {
            let budget = Duration::from_secs_f64(RELOAD_SHARE * segment_s);
            m.freshness.push(reload_freshness(&booted.proc.addr, frame, probe, budget)?);
        }
        measure(&inputs, &mut booted, segment_s, &mut m)?;
        let log = booted.log.path().to_owned();
        drop(booted);
        let _ = std::fs::remove_file(log);
    }
    let metrics = end_to_end(&setups, &m)?;
    let all_p99 = |samples: &[Vec<u64>]| {
        let all: Vec<u64> = samples.iter().flatten().copied().collect();
        if all.is_empty() {
            0.0
        } else {
            ms(&all, 0.99)
        }
    };
    let lateness = format!(
        "  \"writer_lateness_ms\": {{\"p50\": {}, \"p99\": {}, \"max\": {}}},\n  \
         \"queries_per_dispatch\": {},\n  \"query_p99_over_all_ms\": {},\n  \
         \"freshness_p99_over_all_ms\": {},\n",
        json_num(if m.lateness.is_empty() { 0.0 } else { ms(&m.lateness, 0.5) })?,
        json_num(if m.lateness.is_empty() { 0.0 } else { ms(&m.lateness, 0.99) })?,
        json_num(m.lateness.iter().max().map_or(0.0, |&n| n as f64 / 1e6))?,
        json_num(quantile(&m.queries_per_dispatch, 0.5))?,
        json_num(all_p99(&m.latencies))?,
        json_num(all_p99(&m.freshness))?
    );
    if has_writer {
        println!(
            "writer: {} generations due in the window, lateness p50 {:.3} ms, max {:.3} ms",
            m.freshness.iter().map(Vec::len).sum::<usize>(),
            ms(&m.lateness, 0.5),
            m.lateness.iter().max().map_or(0.0, |&n| n as f64 / 1e6)
        );
    }
    for mt in &metrics {
        println!("{:<18} {:>14.6} {}", mt.name, mt.value, mt.unit);
    }
    report(args, &inputs, &metrics, m.tally, &lateness)
}

/// Removes the run's logs; they can be tens of MiB.
fn clean(out: &Path) {
    if let Ok(entries) = std::fs::read_dir(out) {
        for e in entries.flatten() {
            if e.path().extension().is_some_and(|x| x == "log") {
                let _ = std::fs::remove_file(e.path());
            }
        }
    }
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("ifs-perfbench: refusing to report from a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("ifs-perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("ifs-perfbench: {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let result = run(&args);
    clean(&args.out);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(Failure::Wrong(msg)) => {
            eprintln!("ifs-perfbench: wrong answer: {msg}");
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            ExitCode::from(1)
        }
        Err(Failure::Broken(msg)) => {
            eprintln!("ifs-perfbench: {msg}");
            ExitCode::from(2)
        }
    }
}
