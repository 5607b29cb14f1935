//! The load generator: the `ifs-serve` child process, the closed-loop
//! readers, and the open-loop writer of ingest-reload.
//!
//! Every response is compared byte for byte with the frame computed during
//! set-up. A different frame that is a typed refusal counts as a failed
//! attempt; any other difference fails the run.

use crate::trace::Span;
use crate::trace::Spans;
use crate::workload::{Inputs, Query, Shape, WriterInputs, WriterState};
use ifs_core::Snapshot;
use ifs_serve::net::read_frame_into;
use ifs_serve::{Request, Response, ServedSketch};
use ifs_store::{LogOp, SketchLog};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Why a run stopped.
#[derive(Debug)]
pub enum Failure {
    /// The server sent an answer that differs from the expected one.
    Wrong(String),
    /// The benchmark could not run (spawn, connect, transport).
    Broken(String),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Wrong(m) => write!(f, "wrong answer: {m}"),
            Failure::Broken(m) => write!(f, "{m}"),
        }
    }
}

fn broken(context: &str) -> impl Fn(std::io::Error) -> Failure + '_ {
    move |e| Failure::Broken(format!("{context}: {e}"))
}

/// The shipped `ifs-serve` binary, booted from a sketch log. Dropping it
/// kills the process and waits for it.
pub struct ServeProcess {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl ServeProcess {
    pub fn spawn(bin: &Path, log: &Path, shape: &Shape) -> Result<Self, Failure> {
        let mut child = Command::new(bin)
            .arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--log")
            .arg(log)
            .arg("--workers")
            .arg(shape.server_workers.to_string())
            .arg("--threads")
            .arg(shape.server_threads.to_string())
            .arg("--budget-bits")
            .arg(shape.budget_bits.to_string())
            .env_remove("IFS_THREADS")
            .env_remove("IFS_SERVE_WORKERS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(broken("spawn ifs-serve"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        // "ifs-serve listening on ADDR (pooled, N workers)"
        let addr = line.split_whitespace().nth(3).map(str::to_owned);
        match (read, addr) {
            (Ok(_), Some(addr)) if line.starts_with("ifs-serve listening on") => {
                Ok(Self { child, _stdout: stdout, addr })
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(Failure::Broken(format!("ifs-serve did not start (printed {line:?})")))
            }
        }
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, Failure> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(broken(&path))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| Failure::Broken(format!("{path}: no VmHWM line")))
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One connection's read and write halves; reads are buffered so frame
/// parsing costs no extra system calls.
struct Conn {
    rd: BufReader<TcpStream>,
    wr: TcpStream,
    frame: Vec<u8>,
}

impl Conn {
    fn open(addr: &str) -> Result<Self, Failure> {
        let stream = TcpStream::connect(addr).map_err(broken(addr))?;
        stream.set_nodelay(true).map_err(broken(addr))?;
        let rd = BufReader::with_capacity(1 << 16, stream.try_clone().map_err(broken(addr))?);
        Ok(Self { rd, wr: stream, frame: Vec::new() })
    }

    fn send(&mut self, bytes: &[u8]) -> Result<(), Failure> {
        self.wr.write_all(bytes).map_err(broken("send"))
    }

    /// The next response frame, left in `self.frame`.
    fn recv(&mut self) -> Result<(), Failure> {
        match read_frame_into(&mut self.rd, &mut self.frame) {
            Ok(Some(Ok(()))) => Ok(()),
            Ok(Some(Err(e))) => Err(Failure::Broken(format!("unframeable response: {e}"))),
            Ok(None) => Err(Failure::Broken("server closed the connection".into())),
            Err(e) => Err(Failure::Broken(format!("recv: {e}"))),
        }
    }

    /// Whether the last frame is `expected`; a typed refusal is `Ok(Err)`
    /// with whether it may be retried, any other difference fails.
    fn check(&self, expected: &[u8], what: &str) -> Result<Result<(), bool>, Failure> {
        if self.frame == expected {
            return Ok(Ok(()));
        }
        match Response::from_bytes(&self.frame) {
            Ok(Response::Error(e)) => Ok(Err(e.is_retryable())),
            other => Err(Failure::Wrong(format!("{what}: got {other:?}"))),
        }
    }
}

/// Sends one query and waits for its answer; the set-up's readiness probe.
pub fn answer_once(addr: &str, query: &Query) -> Result<(), Failure> {
    let mut conn = Conn::open(addr)?;
    conn.send(&query.bytes)?;
    conn.recv()?;
    match conn.check(&query.expected, "first query")? {
        Ok(()) => Ok(()),
        Err(_) => Err(Failure::Broken("the first query was refused".into())),
    }
}

/// Reloads per call even when one takes longer than the budget.
const MIN_RELOADS: usize = 5;

/// Hot-reloads `frame` under `query`'s sketch id, again and again for
/// `budget` (at least [`MIN_RELOADS`] times); each time from sending the
/// `Load` until `query` is answered correctly. Returns the ns per reload:
/// the freshness of a workload without a writer.
pub fn reload_freshness(
    addr: &str,
    frame: &[u8],
    query: &Query,
    budget: Duration,
) -> Result<Vec<u64>, Failure> {
    let mut conn = Conn::open(addr)?;
    let load = Request::Load { id: query.id, threads: 0, frame: frame.to_vec() }.to_bytes();
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_RELOADS || start.elapsed() < budget {
        let t = Instant::now();
        conn.send(&load)?;
        conn.recv()?;
        if !matches!(Response::from_bytes(&conn.frame), Ok(Response::Reloaded { .. })) {
            return Err(Failure::Wrong(format!("reload of sketch {} refused", query.id)));
        }
        conn.send(&query.bytes)?;
        conn.recv()?;
        if conn.check(&query.expected, "probe after reload")?.is_err() {
            return Err(Failure::Broken("the probe after a reload was refused".into()));
        }
        samples.push(t.elapsed().as_nanos() as u64);
    }
    Ok(samples)
}

/// Asks the server for its counters.
pub fn server_stats(addr: &str) -> Result<ifs_serve::ServerStats, Failure> {
    let mut conn = Conn::open(addr)?;
    conn.send(&Request::Stats.to_bytes())?;
    conn.recv()?;
    match Response::from_bytes(&conn.frame) {
        Ok(Response::Stats(s)) => Ok(s),
        other => Err(Failure::Broken(format!("stats: got {other:?}"))),
    }
}

/// The timed window of one run: load starts at `start`, samples count
/// from `measure_from`, and no request is sent at or after `end`.
#[derive(Clone, Copy)]
pub struct Window {
    pub start: Instant,
    pub measure_from: Instant,
    pub end: Instant,
}

impl Window {
    pub fn new(warmup: Duration, measure: Duration) -> Self {
        let start = Instant::now();
        Self { start, measure_from: start + warmup, end: start + warmup + measure }
    }

    fn measured(&self, t: Instant) -> bool {
        t >= self.measure_from && t < self.end
    }

    /// Whole slices in the measured part.
    fn slices(&self) -> usize {
        (self.end.duration_since(self.measure_from).as_secs_f64() / SLICE.as_secs_f64()) as usize
    }

    fn slice(&self, t: Instant) -> usize {
        (t.duration_since(self.measure_from).as_secs_f64() / SLICE.as_secs_f64()) as usize
    }
}

/// The unit a window is cut into for per-slice throughput.
pub const SLICE: Duration = Duration::from_millis(250);

/// Requests attempted and failed inside the window.
#[derive(Default, Debug, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// `Overloaded` refusals (also counted in `failed`).
    pub overloaded: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.overloaded += other.overloaded;
    }
}

/// What the readers measured, summed over their connections.
#[derive(Default)]
pub struct ReaderOutcome {
    /// Round trips in ns of requests sent inside the window.
    pub latencies_ns: Vec<u64>,
    /// Answered queries per whole [`SLICE`] of the window.
    pub per_slice: Vec<u64>,
    /// Answered queries received inside the window.
    pub queries: u64,
    pub tally: Tally,
    /// Answered queries and requests over the whole run, warm-up included
    /// (what the server's dispatch counter saw).
    pub all_queries: u64,
    pub all_requests: u64,
}

/// One closed-loop reader connection.
struct Reader<'p> {
    conn: Conn,
    plan: &'p [Query],
    outstanding: VecDeque<(usize, Instant)>,
    retry: VecDeque<usize>,
    next: usize,
    seq: u64,
}

/// Drives closed-loop readers, one connection per plan, all from this
/// thread: each keeps up to `depth` requests in flight, cycling through
/// its plan, until the window ends. Connection `i` is numbered
/// `first_conn + i` in spans and messages.
pub fn run_readers(
    addr: &str,
    plans: &[Vec<Query>],
    depth: usize,
    win: Window,
    first_conn: u64,
    mut spans: Option<&mut Spans>,
) -> Result<ReaderOutcome, Failure> {
    let mut readers = plans
        .iter()
        .map(|plan| {
            Ok(Reader {
                conn: Conn::open(addr)?,
                plan,
                outstanding: VecDeque::with_capacity(depth),
                retry: VecDeque::new(),
                next: 0,
                seq: 0,
            })
        })
        .collect::<Result<Vec<_>, Failure>>()?;
    let slices = win.slices();
    let mut out = ReaderOutcome { per_slice: vec![0; slices], ..ReaderOutcome::default() };
    loop {
        if Instant::now() < win.end {
            for r in &mut readers {
                while r.outstanding.len() < depth {
                    let idx = r.retry.pop_front().unwrap_or_else(|| {
                        r.next += 1;
                        (r.next - 1) % r.plan.len()
                    });
                    r.conn.send(&r.plan[idx].bytes)?;
                    let sent = Instant::now();
                    if win.measured(sent) {
                        out.tally.attempted += 1;
                    }
                    r.outstanding.push_back((idx, sent));
                }
            }
        }
        let mut waiting = false;
        for (c, r) in readers.iter_mut().enumerate() {
            let Some((idx, sent)) = r.outstanding.pop_front() else { continue };
            waiting = true;
            r.conn.recv()?;
            let recv = Instant::now();
            let conn_id = first_conn + c as u64;
            r.seq += 1;
            if let Some(spans) = spans.as_deref_mut() {
                spans.record("client.request", sent, recv, 0, conn_id << 40 | r.seq);
            }
            let query = &r.plan[idx];
            let what = || format!("connection {conn_id}, request {idx}");
            if let Err(retryable) = r.conn.check(&query.expected, &what())? {
                if win.measured(sent) {
                    out.tally.failed += 1;
                    out.tally.overloaded += u64::from(retryable);
                }
                if retryable {
                    r.retry.push_back(idx);
                }
                continue;
            }
            let n = query.itemsets.len() as u64;
            out.all_queries += n;
            out.all_requests += 1;
            if win.measured(sent) {
                out.latencies_ns.push(recv.duration_since(sent).as_nanos() as u64);
            }
            if win.measured(recv) {
                out.queries += n;
                if let Some(bucket) = out.per_slice.get_mut(win.slice(recv)) {
                    *bucket += n;
                }
            }
        }
        if !waiting {
            return Ok(out);
        }
    }
}

/// What the writer measured.
#[derive(Default)]
pub struct WriterOutcome {
    /// Due time to correct probe answer, per generation due in the window.
    pub freshness_ns: Vec<u64>,
    /// How late each of those generations started, in ns.
    pub lateness_ns: Vec<u64>,
    pub generations: u64,
    pub tally: Tally,
    pub all_queries: u64,
    pub all_requests: u64,
    pub frame_bytes: u64,
}

/// The open-loop writer: one generation every `period_ms` from the
/// window's start, each folded, finished, encoded, appended to `log`,
/// loaded under the live id, and probed. With `spans`, every step is a
/// span, and each frame is also decoded once off the request path so the
/// snapshot layer's decode cost is measured on the frames it reloads.
pub fn run_writer(
    addr: &str,
    inputs: &WriterInputs,
    log: &mut SketchLog,
    win: Window,
    mut spans: Option<&mut Spans>,
) -> Result<WriterOutcome, Failure> {
    let mut conn = Conn::open(addr)?;
    let mut out = WriterOutcome::default();
    let mut state = WriterState::new(inputs.seed, inputs.dims, inputs.params.clone());
    let period = Duration::from_millis(inputs.period_ms);
    for g in 0.. {
        let due = win.start + period * g as u32;
        if due >= win.end {
            break;
        }
        let expected = inputs.expected_probe.get(g).ok_or_else(|| {
            Failure::Broken("the writer outran its precomputed generations".into())
        })?;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let begun = Instant::now();
        let measured = win.measured(due);
        let gen_span = spans.as_deref_mut().map_or(0, |s| s.id());
        let batch = &inputs.batches[g % inputs.batches.len()];
        let sketch = state.next_generation(batch, |name, a, b| {
            if let Some(s) = spans.as_deref_mut() {
                s.record(name, a, b, gen_span, g as u64);
            }
        });
        let t = Instant::now();
        let frame = sketch.snapshot_bytes();
        let t_encoded = Instant::now();
        if let Some(s) = spans.as_deref_mut() {
            s.record("snapshot.encode", t, t_encoded, gen_span, g as u64);
            let sketch = ServedSketch::admit(&frame, 1)
                .map_err(|e| Failure::Wrong(format!("generation {g} does not decode: {e}")))?;
            s.record("snapshot.decode", t_encoded, Instant::now(), gen_span, g as u64);
            drop(sketch);
        }
        let t = Instant::now();
        log.append(LogOp::Put, inputs.live_id, &frame)
            .map_err(|e| Failure::Broken(format!("append: {e}")))?;
        let t_appended = Instant::now();
        if let Some(s) = spans.as_deref_mut() {
            s.record("store.append", t, t_appended, gen_span, g as u64);
        }
        out.frame_bytes += frame.len() as u64;
        let frame_bits = frame.len() as u64 * 8;
        conn.send(&Request::Load { id: inputs.live_id, threads: 0, frame }.to_bytes())?;
        conn.recv()?;
        let t_loaded = Instant::now();
        let size_bits = match Response::from_bytes(&conn.frame) {
            Ok(Response::Loaded { size_bits, .. } | Response::Reloaded { size_bits, .. }) => {
                size_bits
            }
            other => return Err(Failure::Wrong(format!("load of generation {g}: got {other:?}"))),
        };
        if size_bits != frame_bits {
            return Err(Failure::Wrong(format!("load of generation {g}: {size_bits} bits")));
        }
        conn.send(&inputs.probe)?;
        conn.recv()?;
        let answered = Instant::now();
        if let Some(s) = spans.as_deref_mut() {
            s.record("client.load", t_appended, t_loaded, gen_span, g as u64);
            s.record("client.probe", t_loaded, answered, gen_span, g as u64);
            s.push(gen_span, "writer.generation", begun, answered, 0, g as u64);
        }
        let refused = conn.check(expected, &format!("probe of generation {g}"))?.is_err();
        out.generations += 1;
        out.all_requests += 2;
        out.all_queries += u64::from(!refused) * inputs.probe_queries;
        if measured {
            out.tally.attempted += 2;
            out.tally.failed += u64::from(refused);
            if !refused {
                out.freshness_ns.push(answered.duration_since(due).as_nanos() as u64);
                out.lateness_ns.push(begun.duration_since(due).as_nanos() as u64);
            }
        }
    }
    Ok(out)
}

/// One client thread's outcome.
pub enum Side {
    Reader(ReaderOutcome),
    Writer(WriterOutcome),
}

/// Drives a workload's connections: the readers from this thread, and
/// the writer, if the workload has one, from a second. With
/// `trace_base`, both record spans.
pub fn drive_all(
    addr: &str,
    inputs: &Inputs,
    log: &mut SketchLog,
    win: Window,
    trace_base: Option<Instant>,
) -> Result<(Vec<Side>, Vec<Span>), Failure> {
    let depth = inputs.shape.pipeline;
    let mut readers = trace_base.map(|b| Spans::new(b, 2));
    let mut writer = trace_base.map(|b| Spans::new(b, 3));
    let (r, w) = std::thread::scope(|scope| {
        let w = inputs
            .writer
            .as_ref()
            .map(|w| scope.spawn(|| run_writer(addr, w, log, win, writer.as_mut())));
        let r = run_readers(addr, &inputs.plans, depth, win, 1, readers.as_mut());
        (r, w.map(|h| h.join().expect("writer thread panicked")))
    });
    let mut sides = vec![Side::Reader(r?)];
    if let Some(w) = w {
        sides.push(Side::Writer(w?));
    }
    let spans = [readers, writer].into_iter().flatten().flat_map(|s| s.spans).collect();
    Ok((sides, spans))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, Workload};
    use ifs_serve::{serve_pooled, PoolConfig, ServeConfig, SketchServer};
    use std::net::TcpListener;

    /// Serves `inputs`' fleet in-process and drives its readers briefly.
    fn drive_once(inputs: &Inputs) -> Result<ReaderOutcome, Failure> {
        let server = SketchServer::new(ServeConfig {
            budget_bits: inputs.shape.budget_bits,
            ..ServeConfig::default()
        });
        for (id, frame) in &inputs.frames {
            server.load_frame(*id, 0, frame).expect("generated frames load");
        }
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound").to_string();
        let config = PoolConfig { workers: 1, ..PoolConfig::default() };
        std::thread::scope(|scope| {
            let served =
                scope.spawn(|| serve_pooled(&server, &listener, &config, Some(inputs.plans.len())));
            let win = Window::new(Duration::ZERO, Duration::from_millis(300));
            let outcome = run_readers(&addr, &inputs.plans, inputs.shape.pipeline, win, 1, None);
            served.join().expect("server thread").expect("server serves");
            outcome
        })
    }

    #[test]
    fn a_flipped_expected_bit_fails_the_run() {
        let mut inputs = generate(Workload::FleetZipf, 7, 0);
        let clean = drive_once(&inputs).expect("untouched expectations pass");
        assert!(clean.all_requests > 0 && clean.tally.failed == 0);
        let expected = &mut inputs.plans[0][0].expected;
        let last_payload_byte = expected.len() - 9;
        expected[last_payload_byte] ^= 1;
        assert!(matches!(drive_once(&inputs), Err(Failure::Wrong(_))));
    }
}
