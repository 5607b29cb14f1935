//! Thread-count plumbing for the parallel execution layer (DESIGN.md §8).
//!
//! Every parallel code path in the workspace takes an explicit thread-count
//! knob defaulting to 1, and its results are required to be bit-identical
//! to the serial path at every thread count. This module holds the helpers
//! that keep that knob consistent across crates: clamping, the
//! `IFS_THREADS` environment override the integration suites (and CI's
//! determinism matrix) use to re-run every test under a different worker
//! count, and the one function that spawns engine threads
//! ([`parallel_for_each_mut`]) behind every "race for work, each result in
//! its own slot" site: columnar row-block builds, query-log chunks, chunked
//! sketch builds, and eclat's per-prefix mining ([`parallel_map_indexed`]).

use std::sync::Mutex;

/// Hard cap on worker threads: far above any sensible setting, low enough
/// that a typo (`IFS_THREADS=1000000`) cannot exhaust the process.
pub const MAX_THREADS: usize = 256;

/// Normalizes a requested thread count: `0` means "one thread" (the serial
/// path), and requests above [`MAX_THREADS`] are clamped down.
#[inline]
pub fn clamp_threads(threads: usize) -> usize {
    threads.clamp(1, MAX_THREADS)
}

/// A worker-count environment value that did not parse as an integer.
///
/// Carries the variable name and the offending value so a boundary that
/// refuses to start (a long-running server, say) can name exactly what
/// was malformed; the [`Display`](std::fmt::Display) text is the same
/// sentence [`parse_threads`] panics with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadsParseError {
    /// The environment variable that carried the value.
    pub var: String,
    /// The malformed value, verbatim.
    pub value: String,
}

impl std::fmt::Display for ThreadsParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} must be an integer in 0..={MAX_THREADS} (0 means serial), \
             got {:?} — unset it to default to 1 thread",
            self.var, self.value
        )
    }
}

impl std::error::Error for ThreadsParseError {}

/// [`try_parse_threads`] for an arbitrarily named worker-count variable:
/// the same integer-parse-and-clamp, with the refusal naming `var`
/// instead of `IFS_THREADS`. The serving tier's `IFS_SERVE_WORKERS` knob
/// parses through here so every worker-count variable refuses with the
/// same sentence shape.
pub fn try_parse_threads_var(var: &str, value: &str) -> Result<usize, ThreadsParseError> {
    match value.trim().parse::<usize>() {
        Ok(n) => Ok(clamp_threads(n)),
        Err(_) => Err(ThreadsParseError { var: var.to_owned(), value: value.to_owned() }),
    }
}

/// Parses an `IFS_THREADS` value, clamping it like [`clamp_threads`] —
/// the non-panicking form for process boundaries.
///
/// CLI and bench tools want the [`parse_threads`] panic (fail loud, right
/// now, in the operator's face); a long-running server must instead refuse
/// to *start* with a typed error and keep its ability to report it over
/// its own channels. Both behaviors share this parse.
pub fn try_parse_threads(value: &str) -> Result<usize, ThreadsParseError> {
    try_parse_threads_var("IFS_THREADS", value)
}

/// Reads and parses an arbitrarily named worker-count environment
/// variable: `Ok(None)` when unset (the caller picks its own default),
/// `Ok(Some(clamped))` when well-formed, and a typed
/// [`ThreadsParseError`] naming the variable when set but malformed.
pub fn try_env_threads_var(var: &str) -> Result<Option<usize>, ThreadsParseError> {
    match std::env::var(var) {
        Ok(v) => try_parse_threads_var(var, &v).map(Some),
        Err(_) => Ok(None),
    }
}

/// Parses an `IFS_THREADS` value, clamping it like [`clamp_threads`].
///
/// A value that does not parse **panics**, and the message names the
/// offending value and the accepted range: silently falling back to serial
/// would skip exactly the configuration the knob exists to test, and a bare
/// parse error would leave the operator hunting for which variable was
/// malformed. Servers use [`try_parse_threads`] instead.
pub fn parse_threads(value: &str) -> usize {
    match try_parse_threads(value) {
        Ok(n) => n,
        Err(e) => panic!("{e}"),
    }
}

/// The `IFS_THREADS` environment override as a `Result`: `Ok(1)` when
/// unset, `Ok(clamped)` when well-formed, and a typed
/// [`ThreadsParseError`] when set but malformed — the startup check for
/// processes that must not die on a bad env var (see [`try_parse_threads`]).
pub fn try_env_threads() -> Result<usize, ThreadsParseError> {
    Ok(try_env_threads_var("IFS_THREADS")?.unwrap_or(1))
}

/// The thread count requested via the `IFS_THREADS` environment variable,
/// defaulting to 1 (serial) when unset.
///
/// The integration suites build their sketches and miners with this value,
/// so CI can run the same tests under `IFS_THREADS=1` and `IFS_THREADS=4`
/// and enforce the determinism contract on every push. A value that is set
/// but malformed panics via [`parse_threads`].
pub fn env_threads() -> usize {
    match std::env::var("IFS_THREADS") {
        Ok(v) => parse_threads(&v),
        Err(_) => 1,
    }
}

/// Runs `f(i, &mut items[i])` for every item with up to `threads` workers —
/// the one place the engine spawns threads.
///
/// Workers drain one shared queue of items (good load balance when
/// per-item cost varies, as with mining subtrees) and each call gets
/// exclusive access to its own item, so whatever `f` writes lands in the
/// same place at every thread count — identical to the serial loop.
/// `threads <= 1` (or a single item) runs exactly that serial loop, with no
/// queue, locks, or spawned threads.
pub fn parallel_for_each_mut<T: Send>(
    items: &mut [T],
    threads: usize,
    f: impl Fn(usize, &mut T) + Sync,
) {
    let threads = clamp_threads(threads).min(items.len().max(1));
    if threads == 1 {
        items.iter_mut().enumerate().for_each(|(i, item)| f(i, item));
        return;
    }
    let queue = Mutex::new(items.iter_mut().enumerate());
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let next = queue.lock().expect("work queue poisoned").next();
                let Some((i, item)) = next else { break };
                f(i, item);
            });
        }
    });
}

/// Maps `f` over `0..n` with up to `threads` workers, returning results in
/// index order: [`parallel_for_each_mut`] over one result slot per index,
/// so the assembled vector is identical to the serial `(0..n).map(f)` at
/// every thread count.
pub fn parallel_map_indexed<R: Send>(
    n: usize,
    threads: usize,
    f: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    parallel_for_each_mut(&mut slots, threads, |i, slot| *slot = Some(f(i)));
    slots.into_iter().map(|slot| slot.expect("worker filled slot")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_means_serial() {
        assert_eq!(clamp_threads(0), 1);
    }

    #[test]
    fn sane_values_pass_through() {
        assert_eq!(clamp_threads(1), 1);
        assert_eq!(clamp_threads(4), 4);
        assert_eq!(clamp_threads(8), 8);
    }

    #[test]
    fn absurd_values_are_capped() {
        assert_eq!(clamp_threads(usize::MAX), MAX_THREADS);
    }

    #[test]
    fn env_default_is_one() {
        // The test harness does not set IFS_THREADS for unit tests; if a
        // developer exports it the value must still be clamped and sane.
        let t = env_threads();
        assert!((1..=MAX_THREADS).contains(&t));
    }

    #[test]
    fn parse_accepts_integers_and_clamps() {
        assert_eq!(parse_threads("0"), 1);
        assert_eq!(parse_threads(" 4 "), 4);
        assert_eq!(parse_threads("999999"), MAX_THREADS);
    }

    /// The panic message must name the offending value and the accepted
    /// range, so a malformed `IFS_THREADS` in CI is diagnosable from the
    /// failure output alone.
    #[test]
    #[should_panic(expected = "in 0..=256 (0 means serial), got \"soup\"")]
    fn parse_panic_names_value_and_range() {
        parse_threads("soup");
    }

    #[test]
    #[should_panic(expected = "got \"-3\"")]
    fn parse_rejects_negative_values() {
        parse_threads("-3");
    }

    #[test]
    fn try_parse_is_the_non_panicking_form() {
        assert_eq!(try_parse_threads("0"), Ok(1));
        assert_eq!(try_parse_threads(" 4 "), Ok(4));
        assert_eq!(try_parse_threads("999999"), Ok(MAX_THREADS));
        let err = try_parse_threads("soup").expect_err("malformed value must refuse");
        assert_eq!(err.value, "soup");
        // The refusal text matches the panic text, value and range included.
        let msg = err.to_string();
        assert!(msg.contains("0..=256"), "{msg}");
        assert!(msg.contains("\"soup\""), "{msg}");
    }

    /// The named-variable form refuses with the caller's variable name,
    /// so a malformed `IFS_SERVE_WORKERS` is diagnosable without grepping
    /// for which knob produced the sentence.
    #[test]
    fn named_var_parse_names_the_variable() {
        assert_eq!(try_parse_threads_var("IFS_SERVE_WORKERS", "8"), Ok(8));
        assert_eq!(try_parse_threads_var("IFS_SERVE_WORKERS", "0"), Ok(1));
        let err = try_parse_threads_var("IFS_SERVE_WORKERS", "many").expect_err("malformed");
        assert_eq!(err.var, "IFS_SERVE_WORKERS");
        assert_eq!(err.value, "many");
        let msg = err.to_string();
        assert!(msg.contains("IFS_SERVE_WORKERS"), "{msg}");
        assert!(msg.contains("\"many\""), "{msg}");
    }

    #[test]
    fn named_env_var_is_none_when_unset() {
        assert_eq!(
            try_env_threads_var("IFS_THREADS_SURELY_UNSET_IN_ANY_HARNESS"),
            Ok(None),
            "an unset variable must let the caller pick its own default"
        );
    }

    #[test]
    fn env_try_parse_defaults_to_serial_when_unset() {
        // The harness does not set IFS_THREADS for unit tests; a developer
        // override must still land in the clamped range.
        let t = try_env_threads().expect("unset or well-formed in the test env");
        assert!((1..=MAX_THREADS).contains(&t));
    }

    #[test]
    fn parallel_map_matches_serial_map() {
        let f = |i: usize| i * i + 1;
        let serial: Vec<usize> = (0..37).map(f).collect();
        for threads in [0usize, 1, 2, 3, 8, 64] {
            assert_eq!(parallel_map_indexed(37, threads, f), serial, "threads={threads}");
        }
    }

    #[test]
    fn parallel_map_edge_sizes() {
        for n in [0usize, 1, 2] {
            let serial: Vec<usize> = (0..n).collect();
            assert_eq!(parallel_map_indexed(n, 4, |i| i), serial, "n={n}");
        }
    }

    #[test]
    fn for_each_mut_gives_every_item_its_own_index() {
        for threads in [0usize, 1, 2, 3, 8] {
            for n in [0usize, 1, 2, 37] {
                let mut items = vec![0usize; n];
                parallel_for_each_mut(&mut items, threads, |i, item| *item += i + 1);
                assert_eq!(items, (1..=n).collect::<Vec<_>>(), "threads={threads} n={n}");
            }
        }
    }

    #[test]
    fn parallel_map_balances_uneven_work() {
        // Index 0 is much slower than the rest; the queue must still fill
        // every slot with the right value.
        let out = parallel_map_indexed(16, 4, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i * 3
        });
        assert_eq!(out, (0..16).map(|i| i * 3).collect::<Vec<_>>());
    }
}
