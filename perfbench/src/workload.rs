//! The three workloads: their shapes, and every input a run sends, made
//! from the seed before anything is timed.
//!
//! Expected answers are computed here, in-process, by the same dispatch the
//! server runs ([`ServedSketch::answer`] on an admitted frame), and stored
//! as the exact response frame the server must send back. Checking a served
//! answer is then one byte comparison: the load generator does no engine
//! work while it measures.

use ifs_core::{
    MergeableSketch, ReleaseAnswersEstimator, ReleaseAnswersIndicator, ReleaseDb, Snapshot,
    StreamingBuild, Subsample, SubsampleBuilder, SubsampleParams,
};
use ifs_database::{generators, Itemset};
use ifs_serve::{Answers, QueryMode, Request, Response, ServedSketch};
use ifs_util::Rng64;
use std::time::Instant;

/// Which traffic mix a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 64 small sketches under Zipf popularity; the hot set holds a quarter.
    FleetZipf,
    /// One large `ReleaseDb` and a large `Subsample`; engine-bound batches.
    WideScan,
    /// A streaming writer reloading a live sketch beside a fleet reader.
    IngestReload,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::FleetZipf, Workload::WideScan, Workload::IngestReload];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetZipf => "fleet-zipf",
            Workload::WideScan => "wide-scan",
            Workload::IngestReload => "ingest-reload",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Small-fleet sketch shape: the demo fleet of `ifs-loadgen`, per sketch.
const SMALL_ROWS: usize = 400;
const SMALL_DIMS: usize = 48;
const SMALL_DENSITY: f64 = 0.25;
const SMALL_SAMPLE_ROWS: usize = 64;
const SMALL_ANSWERS_K: usize = 2;
const SMALL_SKETCHES: usize = 64;
const EPSILON: f64 = 0.1;

/// Wide-scan shape.
const WIDE_ROWS: usize = 131_072;
const WIDE_DIMS: usize = 128;
const WIDE_DENSITY: f64 = 0.1;
const WIDE_SAMPLE_ROWS: usize = 16_384;

/// Writer shape (ingest-reload).
const WRITER_DIMS: usize = 128;
const WRITER_DENSITY: f64 = 0.1;
pub const WRITER_BATCH_ROWS: usize = 4096;
const WRITER_SAMPLE_ROWS: usize = 4096;
const WRITER_PERIOD_MS: u64 = 20;
/// Distinct row batches the writer cycles through.
const WRITER_BATCH_POOL: usize = 16;
const PROBE_QUERIES: usize = 8;

/// Requests generated per reader connection; the connection cycles
/// through them in order.
const SMALL_PLAN: usize = 4096;
const WIDE_PLAN: usize = 512;

/// The fixed shape of a workload, printed and recorded by every run.
#[derive(Debug, Clone)]
pub struct Shape {
    pub workload: Workload,
    pub rows: usize,
    pub dims: usize,
    pub sketches: usize,
    pub budget_bits: u64,
    pub batch_queries: usize,
    pub items_per_query: &'static str,
    pub connections: usize,
    pub pipeline: usize,
    pub server_workers: usize,
    pub server_threads: usize,
    /// Writer period in ms; 0 when the workload has no writer.
    pub writer_period_ms: u64,
    pub writer_batch_rows: usize,
    pub writer_sample_rows: usize,
}

impl Shape {
    /// Reader connections: the writer, if any, takes the other one.
    pub fn readers(&self) -> usize {
        if self.writer_period_ms > 0 {
            self.connections - 1
        } else {
            self.connections
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"rows\": {}, \"dims\": {}, \"sketches\": {}, \"budget_bits\": {}, \
             \"batch_queries\": {}, \"items_per_query\": \"{}\", \"connections\": {}, \
             \"pipeline\": {}, \"server_workers\": {}, \"server_threads\": {}, \
             \"writer_period_ms\": {}, \"writer_batch_rows\": {}, \"writer_sample_rows\": {}}}",
            self.rows,
            self.dims,
            self.sketches,
            self.budget_bits,
            self.batch_queries,
            self.items_per_query,
            self.connections,
            self.pipeline,
            self.server_workers,
            self.server_threads,
            self.writer_period_ms,
            self.writer_batch_rows,
            self.writer_sample_rows
        )
    }
}

/// One pre-encoded query request and the exact response frame it must get.
pub struct Query {
    /// The sketch the request queries.
    pub id: u64,
    pub itemsets: Vec<Itemset>,
    pub bytes: Vec<u8>,
    pub expected: Vec<u8>,
}

/// What the ingest-reload writer needs: its row batches, its probe, and
/// the probe's expected response for every generation it may reach.
pub struct WriterInputs {
    pub live_id: u64,
    pub seed: u64,
    pub dims: usize,
    pub params: SubsampleParams,
    pub period_ms: u64,
    pub batches: Vec<Vec<Itemset>>,
    pub probe: Vec<u8>,
    pub probe_queries: u64,
    pub expected_probe: Vec<Vec<u8>>,
}

/// Everything a run sends, made from the seed.
pub struct Inputs {
    pub shape: Shape,
    /// The fleet, `(id, frame)` in id order, as written to the log.
    pub frames: Vec<(u64, Vec<u8>)>,
    /// One request cycle per reader connection.
    pub plans: Vec<Vec<Query>>,
    pub writer: Option<WriterInputs>,
}

/// A well-mixed per-purpose seed, so every sketch and stream is
/// independent of the others under one run seed.
pub fn derive_seed(seed: u64, purpose: u64) -> u64 {
    let mut z = seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn small_frame(index: usize, seed: u64) -> Vec<u8> {
    let sketch_seed = derive_seed(seed, 0x100 + index as u64);
    let mut rng = Rng64::seeded(sketch_seed);
    let db = generators::uniform(SMALL_ROWS, SMALL_DIMS, SMALL_DENSITY, &mut rng);
    match index % 4 {
        0 => ReleaseDb::build(&db, EPSILON).snapshot_bytes(),
        1 => {
            Subsample::with_sample_count_seeded(&db, SMALL_SAMPLE_ROWS, EPSILON, sketch_seed ^ 0x51)
                .snapshot_bytes()
        }
        2 => ReleaseAnswersIndicator::build(&db, SMALL_ANSWERS_K, EPSILON).snapshot_bytes(),
        _ => ReleaseAnswersEstimator::build(&db, SMALL_ANSWERS_K, EPSILON).snapshot_bytes(),
    }
}

fn small_fleet(seed: u64) -> Vec<(u64, Vec<u8>)> {
    (0..SMALL_SKETCHES).map(|i| (i as u64, small_frame(i, seed))).collect()
}

fn fleet_bits(frames: &[(u64, Vec<u8>)]) -> u64 {
    frames.iter().map(|(_, f)| f.len() as u64 * 8).sum()
}

fn supported_modes(sketch: &ServedSketch) -> &'static [QueryMode] {
    match sketch {
        ServedSketch::Subsample(_) | ServedSketch::ReleaseDb(_) => {
            &[QueryMode::Estimate, QueryMode::Indicator]
        }
        ServedSketch::AnswersIndicator(_) => &[QueryMode::Indicator],
        ServedSketch::AnswersEstimator(_) => &[QueryMode::Estimate],
    }
}

/// The exact frame the server answers `answers` with.
pub fn response_bytes(answers: Answers) -> Vec<u8> {
    match answers {
        Answers::Estimates(v) => Response::Estimates(v),
        Answers::Indicators(v) => Response::Indicators(v),
    }
    .to_bytes()
}

/// Zipf(1) sampler over the small fleet. Popularity rank `r` goes to a
/// sketch of kind `r % 4` (ids are dealt by kind, `id % 4`), shuffled
/// within the kind by seed: every seed gets the same mix of kinds at each
/// popularity, so seeds differ in data, not in workload shape.
struct Zipf {
    cdf: Vec<f64>,
    ids: Vec<u64>,
}

impl Zipf {
    fn new(n: usize, rng: &mut Rng64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / (r + 1) as f64;
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        let mut by_kind: Vec<Vec<u64>> =
            (0..4).map(|k| (0..n as u64).filter(|id| id % 4 == k).collect()).collect();
        for ids in &mut by_kind {
            rng.shuffle(ids);
        }
        let ids = (0..n).map(|r| by_kind[r % 4][r / 4]).collect();
        Self { cdf, ids }
    }

    fn sample(&self, rng: &mut Rng64) -> u64 {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.ids[rank]
    }
}

/// Query itemsets for one request against `sketch`.
fn itemsets_for(
    sketch: &ServedSketch,
    count: usize,
    items: impl Fn(&mut Rng64) -> usize,
    rng: &mut Rng64,
) -> Vec<Itemset> {
    let dims = sketch.dims();
    (0..count)
        .map(|_| {
            let len = sketch.required_len().unwrap_or_else(|| items(rng));
            Itemset::new(rng.distinct_sorted(dims, len).iter().map(|&i| i as u32).collect())
        })
        .collect()
}

fn make_query(oracle: &[ServedSketch], id: u64, mode: QueryMode, itemsets: Vec<Itemset>) -> Query {
    let answers = oracle[id as usize].answer(mode, &itemsets).expect("generated queries are valid");
    let expected = response_bytes(answers);
    let bytes = Request::Query { id, mode, queries: itemsets.clone() }.to_bytes();
    Query { id, itemsets, bytes, expected }
}

/// Admits every fleet frame at one engine thread: answers are bit-identical
/// at every thread count, so this is the oracle for any server setting.
fn oracle(frames: &[(u64, Vec<u8>)]) -> Vec<ServedSketch> {
    frames
        .iter()
        .map(|(_, f)| ServedSketch::admit(f, 1).expect("generated frames are servable"))
        .collect()
}

/// Zipf-popular 8-query requests over the small fleet.
fn zipf_plans(oracle: &[ServedSketch], seed: u64, connections: usize) -> Vec<Vec<Query>> {
    let mut popularity = Rng64::seeded(derive_seed(seed, 0x21));
    let zipf = Zipf::new(oracle.len(), &mut popularity);
    (0..connections)
        .map(|c| {
            let mut rng = Rng64::seeded(derive_seed(seed, 0x30 + c as u64));
            (0..SMALL_PLAN)
                .map(|_| {
                    let id = zipf.sample(&mut rng);
                    let sketch = &oracle[id as usize];
                    let modes = supported_modes(sketch);
                    let mode = modes[rng.below(modes.len())];
                    let itemsets = itemsets_for(sketch, 8, |r| r.below(4), &mut rng);
                    make_query(oracle, id, mode, itemsets)
                })
                .collect()
        })
        .collect()
}

/// The writer's rows, probe, and per-generation expected probe answers.
/// The expected answers come from replaying the writer's exact build
/// sequence here, so the timed writer only builds and compares bytes.
pub fn writer_inputs(seed: u64, live_id: u64, generations: usize) -> WriterInputs {
    let mut rng = Rng64::seeded(derive_seed(seed, 0x40));
    let batches: Vec<Vec<Itemset>> = (0..WRITER_BATCH_POOL)
        .map(|_| {
            let db = generators::uniform(WRITER_BATCH_ROWS, WRITER_DIMS, WRITER_DENSITY, &mut rng);
            (0..db.rows()).map(|r| db.row_itemset(r)).collect()
        })
        .collect();
    let probe_items: Vec<Itemset> = (0..PROBE_QUERIES)
        .map(|i| {
            let len = 1 + i % 2;
            Itemset::new(rng.distinct_sorted(WRITER_DIMS, len).iter().map(|&x| x as u32).collect())
        })
        .collect();
    let probe =
        Request::Query { id: live_id, mode: QueryMode::Estimate, queries: probe_items.clone() }
            .to_bytes();
    let params = SubsampleParams { sample_rows: WRITER_SAMPLE_ROWS, epsilon: EPSILON };
    let builder_seed = derive_seed(seed, 0x41);
    let mut writer = WriterState::new(builder_seed, WRITER_DIMS, params.clone());
    let expected_probe = (0..generations)
        .map(|g| {
            let sketch = writer.next_generation(&batches[g % batches.len()], |_, _, _| {});
            let served = ServedSketch::Subsample(sketch);
            response_bytes(served.answer(QueryMode::Estimate, &probe_items).expect("valid probe"))
        })
        .collect();
    WriterInputs {
        live_id,
        seed: builder_seed,
        dims: WRITER_DIMS,
        params,
        period_ms: WRITER_PERIOD_MS,
        batches,
        probe,
        probe_queries: PROBE_QUERIES as u64,
        expected_probe,
    }
}

/// The writer's running streaming build. Each generation folds one batch
/// into a partial build at the running row offset, merges it in, and
/// finishes a copy; `record(step, start, end)` sees each step's times.
pub struct WriterState {
    seed: u64,
    dims: usize,
    params: SubsampleParams,
    running: Option<SubsampleBuilder>,
    rows: u64,
}

/// Names of the writer's build steps, in order.
const FOLD: &str = "ingest.fold";
const MERGE: &str = "ingest.merge";
const FINISH: &str = "ingest.finish";

impl WriterState {
    pub fn new(seed: u64, dims: usize, params: SubsampleParams) -> Self {
        Self { seed, dims, params, running: None, rows: 0 }
    }

    pub fn next_generation(
        &mut self,
        batch: &[Itemset],
        mut record: impl FnMut(&'static str, Instant, Instant),
    ) -> Subsample {
        let t0 = Instant::now();
        let mut partial = SubsampleBuilder::begin_at(self.dims, self.seed, &self.params, self.rows);
        partial.observe_rows(batch);
        let t1 = Instant::now();
        record(FOLD, t0, t1);
        match &mut self.running {
            Some(head) => head.merge(partial).expect("writer partials are contiguous"),
            None => self.running = Some(partial),
        }
        self.rows += batch.len() as u64;
        let t2 = Instant::now();
        record(MERGE, t1, t2);
        let sketch = self.running.as_ref().expect("merged above").clone().finish();
        record(FINISH, t2, Instant::now());
        sketch
    }
}

/// Makes every input of `workload` from `seed`. `generations` bounds how
/// many writer generations a run can reach.
pub fn generate(workload: Workload, seed: u64, generations: usize) -> Inputs {
    match workload {
        Workload::FleetZipf => {
            let frames = small_fleet(seed);
            let oracle = oracle(&frames);
            let shape = Shape {
                workload,
                rows: SMALL_ROWS,
                dims: SMALL_DIMS,
                sketches: frames.len(),
                budget_bits: fleet_bits(&frames) / 4,
                batch_queries: 8,
                items_per_query: "0-3 (k=2 for answer stores)",
                connections: 2,
                pipeline: 8,
                server_workers: 1,
                server_threads: 1,
                writer_period_ms: 0,
                writer_batch_rows: 0,
                writer_sample_rows: 0,
            };
            let plans = zipf_plans(&oracle, seed, shape.readers());
            Inputs { shape, frames, plans, writer: None }
        }
        Workload::WideScan => {
            let mut rng = Rng64::seeded(derive_seed(seed, 0x200));
            let db = generators::uniform(WIDE_ROWS, WIDE_DIMS, WIDE_DENSITY, &mut rng);
            let frames = vec![
                (0, ReleaseDb::build(&db, EPSILON).snapshot_bytes()),
                (
                    1,
                    Subsample::with_sample_count_seeded(
                        &db,
                        WIDE_SAMPLE_ROWS,
                        EPSILON,
                        derive_seed(seed, 0x201),
                    )
                    .snapshot_bytes(),
                ),
            ];
            drop(db);
            let oracle = oracle(&frames);
            let shape = Shape {
                workload,
                rows: WIDE_ROWS,
                dims: WIDE_DIMS,
                sketches: frames.len(),
                budget_bits: ifs_serve::ServeConfig::default().budget_bits,
                batch_queries: 64,
                items_per_query: "1-3",
                connections: 2,
                pipeline: 2,
                server_workers: 1,
                server_threads: 2,
                writer_period_ms: 0,
                writer_batch_rows: 0,
                writer_sample_rows: 0,
            };
            let plans = (0..shape.readers())
                .map(|c| {
                    let mut rng = Rng64::seeded(derive_seed(seed, 0x230 + c as u64));
                    (0..WIDE_PLAN)
                        .map(|_| {
                            let id = rng.below(oracle.len()) as u64;
                            let mode = [QueryMode::Estimate, QueryMode::Indicator][rng.below(2)];
                            let itemsets = itemsets_for(
                                &oracle[id as usize],
                                64,
                                |r| 1 + r.below(3),
                                &mut rng,
                            );
                            make_query(&oracle, id, mode, itemsets)
                        })
                        .collect()
                })
                .collect();
            Inputs { shape, frames, plans, writer: None }
        }
        Workload::IngestReload => {
            let frames = small_fleet(seed);
            let oracle = oracle(&frames);
            let shape = Shape {
                workload,
                rows: SMALL_ROWS,
                dims: SMALL_DIMS,
                sketches: frames.len(),
                budget_bits: ifs_serve::ServeConfig::default().budget_bits,
                batch_queries: 8,
                items_per_query: "0-3 (k=2 for answer stores)",
                connections: 2,
                pipeline: 8,
                server_workers: 1,
                server_threads: 1,
                writer_period_ms: WRITER_PERIOD_MS,
                writer_batch_rows: WRITER_BATCH_ROWS,
                writer_sample_rows: WRITER_SAMPLE_ROWS,
            };
            let plans = zipf_plans(&oracle, seed, shape.readers());
            let writer = writer_inputs(seed, frames.len() as u64, generations);
            Inputs { shape, frames, plans, writer: Some(writer) }
        }
    }
}

/// Bytes of the fleet as it is written to the log.
pub fn total_frame_bytes(frames: &[(u64, Vec<u8>)]) -> u64 {
    frames.iter().map(|(_, f)| f.len() as u64).sum()
}
