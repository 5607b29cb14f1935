//! The traced mode: the same workload replayed in-process, with a span
//! around every call into a layer, and the per-layer metrics derived from
//! the spans' self times and counts.
//!
//! Three phases, all on the seed's inputs:
//!
//! 1. **Boot.** The fleet is appended to a fresh log, the log is reopened
//!    (the recovery scan) and materialized, and every live frame is
//!    decoded, re-encoded (and compared with the frame), and admitted.
//! 2. **Pooled serving.** One real [`PoolWorker`] serves the workload's
//!    loopback connections, each stream wrapped in [`TimedStream`], so
//!    socket time is measured at the `net` boundary and every other layer
//!    shows up as the self time of `pool.pass`. The load generator and the
//!    writer are the untraced run's, with spans.
//! 3. **Layer replay.** The readers' requests, taken in the pool's
//!    sub-round shape (each connection's next `pipeline` requests, grouped
//!    by sketch and mode), go through each layer's public function in the
//!    order the pool calls them: `Request::from_bytes`,
//!    `SketchServer::sketch`, `ServedSketch::validate`,
//!    `ServedSketch::answer`, `Response::encode_into`. Each group's batch
//!    is then run again through `Database::frequencies_with_threads`, at
//!    the sketch's thread count (a child span of `sketch.answer`) and at
//!    one thread, for the engine's own numbers.

use crate::drive::{drive_all, Failure, Side, Tally, Window, WriterOutcome};
use crate::workload::{writer_inputs, Inputs, Query, WriterState};
use ifs_core::{Parallel, Snapshot};
use ifs_database::{Database, Itemset};
use ifs_serve::{
    Answers, EncodeBuf, PoolConfig, PoolWorker, QueryMode, Request, Response, ServeConfig,
    ServedSketch, SketchServer,
};
use ifs_store::{LogOp, SketchLog};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One recorded span; times are ns since the run's clock base.
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    /// Request (or generation, or sketch) id the span belongs to.
    pub req: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// One thread's span buffer. Ids carry the thread's tag in their top bits,
/// so buffers from different threads merge without collisions.
pub struct Spans {
    base: Instant,
    next: u64,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(base: Instant, tag: u64) -> Self {
        Self { base, next: tag << 48, spans: Vec::new() }
    }

    /// A fresh span id, for a parent recorded after its children.
    pub fn id(&mut self) -> u64 {
        self.next += 1;
        self.next
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.base).as_nanos() as u64
    }

    pub fn push(
        &mut self,
        id: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        req: u64,
    ) {
        let (start, end) = (self.ns(start), self.ns(end));
        self.spans.push(Span { id, name, start, end, parent, req });
    }

    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        req: u64,
    ) -> u64 {
        let id = self.id();
        self.push(id, name, start, end, parent, req);
        id
    }
}

/// Shared by one worker's streams: the span buffer, the pass the worker
/// is in, and the bytes moved.
struct NetCtx {
    spans: Spans,
    pass: u64,
    bytes: u64,
}

/// What the traced worker saw besides its spans.
#[derive(Default)]
struct PoolTally {
    bytes: u64,
    /// Socket time of idle passes, by call name. An idle pass keeps its
    /// own span, but its `net` children (polls that found nothing) are
    /// folded into these totals, so the trace stays small.
    idle_net_ns: HashMap<&'static str, u64>,
}

/// A stream that records every `read` and `write` call as a `net` span,
/// child of the pool pass that made it.
struct TimedStream {
    inner: TcpStream,
    ctx: Rc<RefCell<NetCtx>>,
}

impl TimedStream {
    fn timed(
        &mut self,
        name: &'static str,
        op: impl FnOnce(&mut TcpStream) -> io::Result<usize>,
    ) -> io::Result<usize> {
        let t0 = Instant::now();
        let r = op(&mut self.inner);
        let t1 = Instant::now();
        let mut ctx = self.ctx.borrow_mut();
        let pass = ctx.pass;
        ctx.spans.record(name, t0, t1, pass, 0);
        if let Ok(n) = r {
            ctx.bytes += n as u64;
        }
        r
    }
}

impl Read for TimedStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.timed("net.read", |s| s.read(buf))
    }
}

impl Write for TimedStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.timed("net.write", |s| s.write(buf))
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Serves `conns` connections from `listener` with one traced
/// [`PoolWorker`], polling like `serve_pooled`'s workers, until every
/// connection has closed. Returns the spans and what else it counted.
fn serve_traced(
    server: &SketchServer,
    listener: &TcpListener,
    conns: usize,
    base: Instant,
) -> io::Result<(Spans, PoolTally)> {
    let config = PoolConfig { workers: 1, ..PoolConfig::default() };
    let ctx = Rc::new(RefCell::new(NetCtx { spans: Spans::new(base, 7), pass: 0, bytes: 0 }));
    let mut worker = PoolWorker::new(server, &config);
    // Accept with a deadline: a client that failed before connecting must
    // not leave this thread waiting forever.
    listener.set_nonblocking(true)?;
    let deadline = Instant::now() + Duration::from_secs(10);
    while worker.len() < conns {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nodelay(true)?;
                stream.set_nonblocking(true)?;
                worker.push(TimedStream { inner: stream, ctx: Rc::clone(&ctx) });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock && Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(e),
        }
    }
    let mut tally = PoolTally::default();
    while !worker.is_empty() {
        let (id, before) = {
            let mut c = ctx.borrow_mut();
            let id = c.spans.id();
            c.pass = id;
            (id, c.spans.spans.len())
        };
        let t0 = Instant::now();
        let did = worker.pass();
        let t1 = Instant::now();
        let mut c = ctx.borrow_mut();
        if !did {
            for polled in c.spans.spans.drain(before..) {
                *tally.idle_net_ns.entry(polled.name).or_default() += polled.dur();
            }
        }
        c.spans.push(id, if did { "pool.pass" } else { "pool.idle_pass" }, t0, t1, 0, 0);
        drop(c);
        if !did {
            std::thread::sleep(config.idle_sleep);
        }
    }
    drop(worker);
    let ctx = Rc::try_unwrap(ctx).ok().expect("the worker dropped its streams").into_inner();
    tally.bytes = ctx.bytes;
    Ok((ctx.spans, tally))
}

/// Counts the layer replay makes where the work happens.
#[derive(Default)]
struct ReplayCounts {
    requests: u64,
    queries: u64,
    resolves: u64,
    hits: u64,
    overloaded: u64,
    evictions: u64,
    engine_calls: u64,
    engine_parallel: u64,
    engine_queries: u64,
    engine_words: u64,
}

fn engine_of(sketch: &ServedSketch) -> Option<(&Database, usize)> {
    match sketch {
        ServedSketch::Subsample(s) => Some((s.sample(), s.threads())),
        ServedSketch::ReleaseDb(s) => Some((s.database(), s.threads())),
        ServedSketch::AnswersIndicator(_) | ServedSketch::AnswersEstimator(_) => None,
    }
}

fn mode_tag(mode: QueryMode) -> u8 {
    match mode {
        QueryMode::Estimate => 1,
        QueryMode::Indicator => 2,
    }
}

/// Phase 3: the readers' requests through each layer's public function,
/// one pool-shaped sub-round at a time, for `budget` or
/// [`REPLAY_REQUESTS`], whichever ends first.
fn replay_layers(
    server: &SketchServer,
    plans: &[Vec<Query>],
    depth: usize,
    budget: Duration,
    spans: &mut Spans,
) -> Result<ReplayCounts, Failure> {
    let broken = |what: &str, e: &dyn std::fmt::Display| Failure::Broken(format!("{what}: {e}"));
    let mut counts = ReplayCounts::default();
    let evictions_before = server.stats().evictions;
    let mut cursors = vec![0usize; plans.len()];
    let mut buf = EncodeBuf::new();
    let deadline = Instant::now() + budget;
    let mut round = 0u64;
    while Instant::now() < deadline && counts.requests < REPLAY_REQUESTS {
        let mut taken: Vec<&Query> = Vec::with_capacity(plans.len() * depth);
        for (plan, cursor) in plans.iter().zip(&mut cursors) {
            for _ in 0..depth {
                taken.push(&plan[*cursor % plan.len()]);
                *cursor += 1;
            }
        }
        let root = spans.id();
        let t_root = Instant::now();
        let mut groups: BTreeMap<(u64, u8), Vec<usize>> = BTreeMap::new();
        let mut decoded = Vec::with_capacity(taken.len());
        for (i, query) in taken.iter().enumerate() {
            let t = Instant::now();
            let request = Request::from_bytes(&query.bytes).map_err(|e| broken("decode", &e))?;
            spans.record("protocol.decode", t, Instant::now(), root, i as u64);
            let Request::Query { id, mode, queries } = request else {
                return Err(Failure::Broken("the plan holds only queries".into()));
            };
            groups.entry((id, mode_tag(mode))).or_default().push(i);
            decoded.push((mode, queries));
        }
        let mut engine_jobs: Vec<(Arc<ServedSketch>, Vec<Itemset>, u64)> = Vec::new();
        for ((id, _), members) in groups {
            let mode = decoded[members[0]].0;
            counts.resolves += 1;
            counts.hits += u64::from(server.hot_ids().contains(&id));
            let t = Instant::now();
            let sketch = server.sketch(id).map_err(|e| broken("resolve", &e))?;
            spans.record("server.resolve", t, Instant::now(), root, id);
            for &m in &members {
                let t = Instant::now();
                sketch.validate(&decoded[m].1).map_err(|e| broken("validate", &e))?;
                spans.record("sketch.validate", t, Instant::now(), root, m as u64);
            }
            let Ok(slot) = server.try_begin_batch() else {
                counts.overloaded += 1;
                continue;
            };
            let all: Vec<Itemset> =
                members.iter().flat_map(|&m| decoded[m].1.iter().cloned()).collect();
            let answer_span = spans.id();
            let t = Instant::now();
            let answers = sketch.answer(mode, &all).map_err(|e| broken("answer", &e))?;
            spans.push(answer_span, "sketch.answer", t, Instant::now(), root, id);
            drop(slot);
            let mut at = 0;
            for &m in &members {
                let n = decoded[m].1.len();
                let response = match &answers {
                    Answers::Estimates(v) => Response::Estimates(v[at..at + n].to_vec()),
                    Answers::Indicators(v) => Response::Indicators(v[at..at + n].to_vec()),
                };
                at += n;
                let t = Instant::now();
                let bytes = response.encode_into(&mut buf);
                spans.record("protocol.encode", t, Instant::now(), root, m as u64);
                if bytes != taken[m].expected.as_slice() {
                    return Err(Failure::Wrong(format!(
                        "layer replay: sketch {id} answered wrong"
                    )));
                }
            }
            engine_jobs.push((sketch, all, answer_span));
        }
        spans.push(root, "replay.subround", t_root, Instant::now(), 0, round);
        round += 1;
        counts.requests += taken.len() as u64;
        counts.queries += taken.iter().map(|q| q.itemsets.len() as u64).sum::<u64>();
        for (sketch, all, answer_span) in engine_jobs {
            let Some((db, threads)) = engine_of(&sketch) else { continue };
            // Alternate which thread count runs first, so neither always
            // finds the tid words already in cache.
            for pass in [round % 2, (round + 1) % 2] {
                let t = Instant::now();
                if pass == 0 {
                    std::hint::black_box(db.frequencies_with_threads(&all, threads));
                    spans.record("engine.batch", t, Instant::now(), answer_span, 0);
                } else {
                    std::hint::black_box(db.frequencies_with_threads(&all, 1));
                    spans.record("engine.batch_t1", t, Instant::now(), 0, 0);
                }
            }
            let words_per_col = db.rows().div_ceil(64) as u64;
            counts.engine_calls += 1;
            counts.engine_parallel += u64::from(threads.min(all.len()) > 1);
            counts.engine_queries += all.len() as u64;
            counts.engine_words += all.iter().map(|q| q.len() as u64 * words_per_col).sum::<u64>();
        }
    }
    counts.evictions = server.stats().evictions - evictions_before;
    Ok(counts)
}

/// Span totals by name: count, total duration, total self time.
#[derive(Default, Clone, Copy)]
struct Totals {
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

fn totals(spans: &[Span]) -> HashMap<&'static str, Totals> {
    let mut children: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *children.entry(s.parent).or_default() += s.dur();
    }
    let mut out: HashMap<&'static str, Totals> = HashMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur();
        t.self_ns += s.dur().saturating_sub(children.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Share of the client-seen latency during which no layer of the server
/// was working: for each request, the part of its round trip that no
/// pool pass (with its `net` children) covers, summed over requests.
fn unaccounted(requests: &[&Span], passes: &[&Span]) -> f64 {
    // Passes run one after another on one thread, so they are disjoint
    // and sorted by start; prefix sums give covered time in a range.
    let mut prefix = Vec::with_capacity(passes.len() + 1);
    prefix.push(0u64);
    for p in passes {
        prefix.push(prefix.last().copied().unwrap_or(0) + p.dur());
    }
    let covered_before = |t: u64| -> u64 {
        let i = passes.partition_point(|p| p.end <= t);
        let partial = passes.get(i).map_or(0, |p| t.saturating_sub(p.start).min(p.dur()));
        prefix[i] + partial
    };
    let (mut latency, mut covered) = (0u64, 0u64);
    for r in requests {
        latency += r.dur();
        covered += covered_before(r.end) - covered_before(r.start);
    }
    if latency == 0 {
        return 1.0;
    }
    1.0 - covered as f64 / latency as f64
}

/// The traced phases' lengths: a fraction of `--seconds`, capped so the
/// spans held in memory stay bounded.
const POOLED_WARMUP: Duration = Duration::from_millis(500);
const POOLED_MEASURE: Duration = Duration::from_secs(4);
const REPLAY: Duration = Duration::from_secs(3);
const REPLAY_REQUESTS: u64 = 20_000;

/// The per-layer metrics, in the order BENCHMARK.json lists them.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Everything the traced run needs from the untraced run before it.
pub struct Untraced {
    pub queries_per_s: f64,
    pub queries_per_dispatch: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Runs the boot, pooled-serving, and layer-replay phases, their lengths
/// set from `seconds` and capped, writes the spans to `span_file`, and
/// derives the per-layer metrics.
pub fn traced_run(
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
    work_dir: &Path,
    span_file: &Path,
    untraced: &Untraced,
) -> Result<(Metrics, Tally), Failure> {
    let shape = &inputs.shape;
    let base = Instant::now();
    let io = |what: &'static str| move |e: io::Error| Failure::Broken(format!("{what}: {e}"));
    let store = |e: ifs_store::StoreError| Failure::Broken(e.to_string());
    let mut all: Vec<Span> = Vec::new();

    // Phase 1: boot. With a writer, the writer's own appends, encodes,
    // and decodes are the store and snapshot numbers, so the fleet's are
    // recorded under boot names.
    let has_writer = inputs.writer.is_some();
    let (append, decode, encode) = if has_writer {
        ("boot.append", "boot.decode", "boot.encode")
    } else {
        ("store.append", "snapshot.decode", "snapshot.encode")
    };
    let mut spans = Spans::new(base, 1);
    let log_path = work_dir.join(format!("trace-{}.log", shape.workload.name()));
    let _ = std::fs::remove_file(&log_path);
    let mut log = SketchLog::create(&log_path).map_err(store)?;
    for (id, frame) in &inputs.frames {
        let t = Instant::now();
        log.append(LogOp::Put, *id, frame).map_err(store)?;
        spans.record(append, t, Instant::now(), 0, *id);
    }
    drop(log);
    let t = Instant::now();
    let (mut log, _) = SketchLog::open(&log_path).map_err(store)?;
    spans.record("store.open", t, Instant::now(), 0, 0);
    let t = Instant::now();
    let live = log.materialize().map_err(store)?;
    spans.record("store.materialize", t, Instant::now(), 0, 0);
    let server = SketchServer::new(ServeConfig {
        budget_bits: shape.budget_bits,
        default_threads: shape.server_threads,
        ..ServeConfig::default()
    });
    for (id, frame) in &live {
        let t = Instant::now();
        let sketch = ServedSketch::admit(frame, shape.server_threads)
            .map_err(|e| Failure::Wrong(format!("log frame {id} does not decode: {e}")))?;
        let t_decoded = Instant::now();
        spans.record(decode, t, t_decoded, 0, *id);
        let again = match &sketch {
            ServedSketch::Subsample(s) => s.snapshot_bytes(),
            ServedSketch::ReleaseDb(s) => s.snapshot_bytes(),
            ServedSketch::AnswersIndicator(s) => s.snapshot_bytes(),
            ServedSketch::AnswersEstimator(s) => s.snapshot_bytes(),
        };
        spans.record(encode, t_decoded, Instant::now(), 0, *id);
        if &again != frame {
            return Err(Failure::Wrong(format!("sketch {id} re-encodes to different bytes")));
        }
        server.load_frame(*id, 0, frame).map_err(|e| Failure::Broken(e.to_string()))?;
    }
    // Without a writer on the serving path, the streaming layer is timed
    // on the writer's build steps off the path.
    let calibration = if has_writer { None } else { Some(writer_inputs(seed, 0, 0)) };
    if let Some(w) = &calibration {
        let mut state = WriterState::new(w.seed, w.dims, w.params.clone());
        for (g, batch) in w.batches.iter().enumerate() {
            state.next_generation(batch, |name, a, b| {
                spans.record(name, a, b, 0, g as u64);
            });
        }
    }
    all.append(&mut spans.spans);

    // Phase 2: pooled serving.
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io("bind"))?;
    let addr = listener.local_addr().map_err(io("bind"))?.to_string();
    let win = Window::new(
        Duration::from_secs_f64(0.1 * seconds).min(POOLED_WARMUP),
        Duration::from_secs_f64(0.4 * seconds).min(POOLED_MEASURE),
    );
    let (sides, client_spans, worker) = std::thread::scope(|scope| {
        let worker = scope.spawn(|| serve_traced(&server, &listener, shape.connections, base));
        let driven = drive_all(&addr, inputs, &mut log, win, Some(base));
        let worker = worker.join().expect("worker thread panicked");
        driven.map(|(sides, spans)| (sides, spans, worker))
    })?;
    all.extend(client_spans);
    let (worker_spans, pool) = worker.map_err(io("serve"))?;
    all.extend(worker_spans.spans);
    let mut reader_queries = 0u64;
    let mut requests = 0u64;
    let mut queries = 0u64;
    let mut tally = Tally::default();
    let mut writer: Option<WriterOutcome> = None;
    for side in sides {
        match side {
            Side::Reader(r) => {
                reader_queries += r.queries;
                requests += r.all_requests;
                queries += r.all_queries;
                tally.add(r.tally);
            }
            Side::Writer(w) => {
                requests += w.all_requests;
                queries += w.all_queries;
                tally.add(w.tally);
                writer = Some(w);
            }
        }
    }
    let traced_qps = reader_queries as f64 / win.end.duration_since(win.measure_from).as_secs_f64();

    // Phase 3: the layer replay.
    let mut spans = Spans::new(base, 4);
    let counts = replay_layers(
        &server,
        &inputs.plans,
        shape.pipeline,
        Duration::from_secs_f64(0.25 * seconds).min(REPLAY),
        &mut spans,
    )?;
    all.append(&mut spans.spans);

    let frame_bytes_appended = crate::workload::total_frame_bytes(&inputs.frames)
        + writer.as_ref().map_or(0, |w| w.frame_bytes);
    let log_bytes = log.len_bytes();
    drop(log);
    let _ = std::fs::remove_file(&log_path);
    write_spans(span_file, &mut all).map_err(io("write spans"))?;

    let t = totals(&all);
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    let us = |ns: u64| ns as f64 / 1e3;
    let mean_us = |name: &str| ratio(us(get(name).total_ns), get(name).count as f64);
    let mut requests_sorted: Vec<&Span> =
        all.iter().filter(|s| s.name == "client.request").collect();
    requests_sorted.sort_by_key(|s| s.start);
    let mut passes: Vec<&Span> =
        all.iter().filter(|s| s.name == "pool.pass" || s.name == "pool.idle_pass").collect();
    passes.sort_by_key(|s| s.start);
    let busy = get("pool.pass");
    let idle = get("pool.idle_pass");
    let engine = get("engine.batch");
    let fold = get("ingest.fold");
    let rows_folded = fold.count as f64 * crate::workload::WRITER_BATCH_ROWS as f64;
    let (frames_n, frames_b) = match &writer {
        Some(w) => (w.generations as f64, w.frame_bytes as f64),
        None => {
            (inputs.frames.len() as f64, crate::workload::total_frame_bytes(&inputs.frames) as f64)
        }
    };
    let req = requests as f64;
    let net_ns = |name: &str| get(name).total_ns + pool.idle_net_ns.get(name).copied().unwrap_or(0);
    let metrics = vec![
        ("net.read_us_per_req", ratio(us(net_ns("net.read")), req), "us"),
        ("net.write_us_per_req", ratio(us(net_ns("net.write")), req), "us"),
        ("net.wire_bytes_per_query", ratio(pool.bytes as f64, queries as f64), "B"),
        ("protocol.decode_us_per_req", mean_us("protocol.decode"), "us"),
        ("protocol.encode_us_per_req", mean_us("protocol.encode"), "us"),
        ("pool.queries_per_dispatch", untraced.queries_per_dispatch, "count"),
        (
            "pool.idle_pass_ratio",
            ratio(idle.count as f64, (idle.count + busy.count) as f64),
            "ratio",
        ),
        ("pool.pass_self_us", ratio(us(busy.self_ns), busy.count as f64), "us"),
        ("server.resolve_us", mean_us("server.resolve"), "us"),
        ("hot.hit_ratio", ratio(counts.hits as f64, counts.resolves as f64), "ratio"),
        (
            "hot.evictions_per_kquery",
            ratio(counts.evictions as f64 * 1e3, counts.queries as f64),
            "count",
        ),
        (
            "server.overload_retries_per_kreq",
            ratio(
                (tally.overloaded + counts.overloaded) as f64 * 1e3,
                (requests + counts.requests) as f64,
            ),
            "count",
        ),
        (
            "sketch.validate_us_per_query",
            ratio(us(get("sketch.validate").total_ns), counts.queries as f64),
            "us",
        ),
        ("sketch.answer_us_per_batch", mean_us("sketch.answer"), "us"),
        ("engine.batch_us", mean_us("engine.batch"), "us"),
        (
            "engine.tid_words_per_query",
            ratio(counts.engine_words as f64, counts.engine_queries as f64),
            "words",
        ),
        (
            "engine.threads_speedup",
            ratio(get("engine.batch_t1").total_ns as f64, engine.total_ns as f64),
            "x",
        ),
        (
            "engine.parallel_dispatch_ratio",
            ratio(counts.engine_parallel as f64, counts.engine_calls as f64),
            "ratio",
        ),
        (
            "bits.gwords_per_s",
            ratio(counts.engine_words as f64, engine.total_ns as f64),
            "Gwords/s",
        ),
        ("snapshot.encode_us", mean_us("snapshot.encode"), "us"),
        ("snapshot.decode_us", mean_us("snapshot.decode"), "us"),
        ("snapshot.frame_bytes", ratio(frames_b, frames_n), "B"),
        ("ingest.fold_us_per_krow", ratio(us(fold.total_ns), rows_folded / 1e3), "us"),
        ("ingest.merge_us", mean_us("ingest.merge"), "us"),
        ("ingest.finish_us", mean_us("ingest.finish"), "us"),
        ("store.append_us", mean_us("store.append"), "us"),
        ("store.open_ms", mean_us("store.open") / 1e3, "ms"),
        ("store.materialize_ms", mean_us("store.materialize") / 1e3, "ms"),
        (
            "store.bytes_per_frame_byte",
            ratio(log_bytes as f64, frame_bytes_appended as f64),
            "ratio",
        ),
        ("trace.unaccounted_ratio", unaccounted(&requests_sorted, &passes), "ratio"),
        ("trace.overhead_ratio", ratio(traced_qps, untraced.queries_per_s), "ratio"),
    ];
    Ok((metrics, tally))
}

/// Spans written out per traced run; the metrics use all of them.
const SPANS_WRITTEN: usize = 500_000;

/// Writes the first [`SPANS_WRITTEN`] spans by start time as
/// tab-separated lines, after a comment line giving the total recorded.
fn write_spans(path: &Path, spans: &mut [Span]) -> io::Result<()> {
    spans.sort_by_key(|s| s.start);
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "# {} spans recorded, first {} by start written", spans.len(), SPANS_WRITTEN)?;
    writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\treq")?;
    for s in spans.iter().take(SPANS_WRITTEN) {
        writeln!(out, "{}\t{}\t{}\t{}\t{}\t{}", s.id, s.name, s.start, s.end, s.parent, s.req)?;
    }
    out.flush()
}
