//! Streaming ingestion: fold-and-merge sketch builds (DESIGN.md §9).
//!
//! The paper defines its sketches over a fixed database, but the lower
//! bounds are motivated by streaming and distributed summarization — and
//! the Count-Min/Count-Sketch literature treats sketches as fold-and-merge
//! objects. This module is the build-side counterpart of the §7/§8 query
//! contracts: **streaming and merging are execution strategies, never
//! approximations.** A one-shot build is *re-expressed* as a fold over the
//! rows, so a serially folded build, a build streamed in arbitrary batches,
//! and a sharded build merged from per-shard partials are all bit-identical
//! — by construction, not by accident.
//!
//! Two traits carry the contract:
//!
//! * [`StreamingBuild`] — `begin(dims, seed)` / `observe_row(&row)` /
//!   `finish() → sketch`. Rows arrive as [`Itemset`]s (a row's set of
//!   1-attributes); `finish` consumes the builder.
//! * [`MergeableSketch`] — `merge(&mut self, other)` combines two partial
//!   builds (or, for sketches like `ReleaseDb` and the plain Count-Min /
//!   Count-Sketch counters, two finished sketches). Merging is always
//!   **associative**; it is **commutative** only where a sketch's docs
//!   promise it (counter-wise adds are, row-order-preserving builders are
//!   not). Incompatible or order-violating merges are *refused* with a
//!   [`MergeError`] rather than silently producing a different sketch.
//!
//! Which in-repo sketches are mergeable, and how, is tabulated in
//! DESIGN.md §9; constructions that are inherently offline (the quantized
//! `ReleaseAnswers*` stores) refuse at the type level by not implementing
//! [`MergeableSketch`] on the finished sketch — only their *builders*
//! (which still hold raw supports) merge.

use ifs_database::{Database, Itemset};
use ifs_util::threads::parallel_map_indexed;

/// Row-count granularity at which partial builds align: the same constant
/// as the columnar engine's row blocks (§8), so a sharded build's merge
/// boundaries coincide with the engine's block boundaries.
pub use ifs_database::BLOCK_ROWS as INGEST_CHUNK_ROWS;

/// Why two partial builds (or sketches) refused to merge.
///
/// A refusal is part of the correctness contract: every accepted merge is
/// bit-identical to the one-pass build over the concatenated rows, so any
/// combination that *cannot* honor that promise must error instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// Structural parameters differ (dimensions, seeds, widths, ε, …); the
    /// string names the mismatch.
    Incompatible(String),
    /// The builders do not cover adjacent row ranges in order: `other` was
    /// expected to start at global row `expected` but starts at `got`.
    /// Order-sensitive builders (row samplers, database concatenation)
    /// refuse out-of-order merges instead of silently permuting rows.
    NonContiguous {
        /// Global row index at which `other` was expected to start.
        expected: u64,
        /// Global row index at which `other` actually starts.
        got: u64,
    },
    /// The construction is inherently order-dependent or offline, so *no*
    /// merge can be bit-identical to a one-pass build (e.g. Count-Min with
    /// conservative update); the string explains why.
    Unmergeable(String),
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::Incompatible(what) => write!(f, "incompatible merge: {what}"),
            MergeError::NonContiguous { expected, got } => write!(
                f,
                "non-contiguous merge: other partial build starts at row {got}, expected {expected}"
            ),
            MergeError::Unmergeable(why) => write!(f, "unmergeable construction: {why}"),
        }
    }
}

impl std::error::Error for MergeError {}

/// A sketch (or partial build) that can absorb another of the same type.
///
/// Contract: if `a`, `b`, `c` are partial builds over adjacent row ranges
/// (in order), then `a.merge(b)?; a.merge(c)?` and
/// `b.merge(c)?; a.merge(b)?` finish to the same bits as the one-pass
/// build over the full range — merging is associative. Commutativity is
/// promised only by implementations whose docs say so.
pub trait MergeableSketch: Sized {
    /// Absorbs `other` into `self`. On `Err`, `self` is unchanged.
    fn merge(&mut self, other: Self) -> Result<(), MergeError>;
}

/// A single-pass, incremental sketch build over a stream of database rows.
///
/// The one-shot constructors of every in-repo sketch are re-expressed as
/// `begin` + `observe_row` per row + `finish`, which is what makes
/// streamed and one-shot builds bit-identical *by construction* rather
/// than by test alone (the same move §7 makes for batched queries).
pub trait StreamingBuild: Sized {
    /// Build-time parameters that are not `(dims, seed)` — sample counts,
    /// ε, sketch widths.
    type Params: Clone;

    /// The finished sketch type.
    type Output;

    /// Starts a partial build whose first observed row has global index
    /// `row_offset` — the entry point for per-shard builds that will be
    /// [merged](MergeableSketch) back in row order. Builders whose merge
    /// is commutative may ignore the offset.
    fn begin_at(dims: usize, seed: u64, params: &Self::Params, row_offset: u64) -> Self;

    /// Starts a build at the head of the stream (`row_offset = 0`).
    fn begin(dims: usize, seed: u64, params: &Self::Params) -> Self {
        Self::begin_at(dims, seed, params, 0)
    }

    /// Folds one arriving row (its set of 1-attributes) into the build.
    fn observe_row(&mut self, row: &Itemset);

    /// Number of rows folded into this partial build so far.
    fn rows_seen(&self) -> u64;

    /// Completes the build. Panics if this partial build does not start at
    /// the stream head (merge partials in row order first).
    fn finish(self) -> Self::Output;

    /// Convenience: folds every row of `rows` in order.
    fn observe_rows<'a, I: IntoIterator<Item = &'a Itemset>>(&mut self, rows: I) {
        for row in rows {
            self.observe_row(row);
        }
    }
}

/// One-pass serial fold of an entire database: `begin`, observe every row
/// in order, `finish`. This *is* the definition of the one-shot build for
/// every streaming-enabled sketch, so it is the reference the merged and
/// batched paths are measured against.
pub fn fold_database<B: StreamingBuild>(db: &Database, seed: u64, params: &B::Params) -> B::Output {
    let mut builder = B::begin(db.dims(), seed, params);
    for r in 0..db.rows() {
        builder.observe_row(&db.row_itemset(r));
    }
    builder.finish()
}

/// Sharded build: split the rows into [`INGEST_CHUNK_ROWS`]-row chunks,
/// fold each chunk into its own partial build on the §8 work queue
/// (`threads` workers racing for chunk indices), then merge the partials
/// in row order and finish.
///
/// The chunk layout is a function of the row count alone — `threads`
/// decides how many workers drain the queue, never where boundaries fall —
/// and every accepted merge is bit-identical to the one-pass fold, so the
/// output equals [`fold_database`] at every thread count.
///
/// Panics if a merge is refused; chunked partials of one database are
/// compatible and contiguous by construction, so a refusal here is an
/// implementation bug, not an input error.
pub fn build_sharded<B>(db: &Database, seed: u64, params: &B::Params, threads: usize) -> B::Output
where
    B: StreamingBuild + MergeableSketch + Send,
    B::Params: Sync,
{
    let n = db.rows();
    let chunks = n.div_ceil(INGEST_CHUNK_ROWS);
    if chunks <= 1 {
        return fold_database::<B>(db, seed, params);
    }
    let partials = parallel_map_indexed(chunks, threads, |i| {
        let start = i * INGEST_CHUNK_ROWS;
        let end = (start + INGEST_CHUNK_ROWS).min(n);
        let mut b = B::begin_at(db.dims(), seed, params, start as u64);
        for r in start..end {
            b.observe_row(&db.row_itemset(r));
        }
        b
    });
    let mut iter = partials.into_iter();
    let mut head = iter.next().expect("chunks >= 1");
    for partial in iter {
        head.merge(partial).expect("chunked partials merge by construction");
    }
    head.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_error_messages_are_descriptive() {
        let e = MergeError::NonContiguous { expected: 64, got: 0 };
        let s = e.to_string();
        assert!(s.contains("starts at row 0") && s.contains("expected 64"), "{s}");
        assert!(MergeError::Incompatible("width 8 vs 16".into()).to_string().contains("width"));
        assert!(MergeError::Unmergeable("conservative update".into())
            .to_string()
            .contains("conservative"));
    }

    /// A minimal order-insensitive builder exercising the trait plumbing
    /// (fold == sharded at every thread count) without any sketch logic.
    #[derive(Debug, PartialEq)]
    struct WeightSum {
        dims: usize,
        weight: u64,
        rows: u64,
    }

    impl StreamingBuild for WeightSum {
        type Params = ();
        type Output = (u64, u64);

        fn begin_at(dims: usize, _seed: u64, _params: &(), _row_offset: u64) -> Self {
            Self { dims, weight: 0, rows: 0 }
        }

        fn observe_row(&mut self, row: &Itemset) {
            assert!(row.max_item().is_none_or(|m| (m as usize) < self.dims));
            self.weight += row.len() as u64;
            self.rows += 1;
        }

        fn rows_seen(&self) -> u64 {
            self.rows
        }

        fn finish(self) -> (u64, u64) {
            (self.weight, self.rows)
        }
    }

    impl MergeableSketch for WeightSum {
        fn merge(&mut self, other: Self) -> Result<(), MergeError> {
            if other.dims != self.dims {
                return Err(MergeError::Incompatible(format!(
                    "dims {} vs {}",
                    self.dims, other.dims
                )));
            }
            self.weight += other.weight;
            self.rows += other.rows;
            Ok(())
        }
    }

    #[test]
    fn sharded_build_equals_serial_fold() {
        let mut rng = ifs_util::Rng64::seeded(0xF01D);
        let db = ifs_database::generators::uniform(1000, 9, 0.3, &mut rng);
        let serial = fold_database::<WeightSum>(&db, 0, &());
        assert_eq!(serial.1, 1000);
        for threads in [1usize, 2, 4] {
            assert_eq!(build_sharded::<WeightSum>(&db, 0, &(), threads), serial);
        }
    }

    #[test]
    fn observe_rows_folds_in_order() {
        let rows = vec![Itemset::new(vec![0, 1]), Itemset::empty(), Itemset::singleton(2)];
        let mut b = WeightSum::begin(3, 0, &());
        b.observe_rows(&rows);
        assert_eq!(b.rows_seen(), 3);
        assert_eq!(b.finish(), (3, 3));
    }
}
