//! Deterministic scoped-thread work sharding.
//!
//! Every expensive kernel in this crate is a *pure map over an index range*:
//! per-fault damages in [`crate::analyze_graph`], frozen-select combinations
//! in [`crate::fault_set_damage`], sampled fault pairs, and MOEA population
//! evaluation. This module shards such maps across OS threads with
//! **contiguous chunks spliced back in index order**, so the result vector is
//! bit-identical to the sequential computation for every thread count — the
//! determinism guarantee the analysis API is allowed to rely on.
//!
//! Thread count resolution:
//!
//! * [`Parallelism::new(k)`](Parallelism::new) — exactly `k` threads
//!   (`k = 0` means auto-detect);
//! * [`Parallelism::from_env`] — the `RSN_THREADS` environment variable,
//!   auto-detecting when unset, empty, or `0`;
//! * [`Parallelism::default`] — same as `from_env`, so every entry point
//!   honors `RSN_THREADS` without explicit plumbing.
//!
//! Seeds and RNG streams are never touched here: callers draw any random
//! inputs *sequentially* first and only then fan the pure evaluation out.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

/// Below this many items the sharding overhead outweighs the work and
/// [`map_indexed`] stays sequential.
const MIN_PARALLEL_ITEMS: usize = 16;

/// A panic caught inside a worker shard by one of the `try_map_*` functions.
///
/// The fallible sharded maps convert worker panics into ordinary errors via
/// `E: From<ShardPanic>` instead of re-raising them, so one poisoned closure
/// cannot take down the calling thread (or, transitively, a server worker).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPanic {
    message: String,
}

impl ShardPanic {
    /// The panic payload rendered as text (`&str`/`String` payloads are kept
    /// verbatim; anything else becomes a placeholder).
    #[must_use]
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Renders a `catch_unwind` payload into a [`ShardPanic`]. Public so
    /// serving layers that isolate panics themselves reuse the same payload
    /// rendering.
    #[must_use]
    pub fn from_payload(payload: Box<dyn std::any::Any + Send>) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        Self { message }
    }
}

impl std::fmt::Display for ShardPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker shard panicked: {}", self.message)
    }
}

impl std::error::Error for ShardPanic {}

/// A resolved worker-thread count.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Parallelism {
    threads: NonZeroUsize,
}

impl Parallelism {
    /// Exactly `threads` workers; `0` auto-detects the available hardware
    /// parallelism.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        match NonZeroUsize::new(threads) {
            Some(t) => Self { threads: t },
            None => Self::auto(),
        }
    }

    /// Single-threaded execution.
    #[must_use]
    pub fn sequential() -> Self {
        Self { threads: NonZeroUsize::MIN }
    }

    /// One worker per available hardware thread.
    #[must_use]
    pub fn auto() -> Self {
        Self { threads: std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN) }
    }

    /// Reads the `RSN_THREADS` environment variable; unset, empty, invalid,
    /// or `0` auto-detects.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("RSN_THREADS") {
            Ok(v) if !v.trim().is_empty() => match v.trim().parse::<usize>() {
                Ok(n) => Self::new(n),
                Err(_) => Self::auto(),
            },
            _ => Self::auto(),
        }
    }

    /// The number of worker threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// Whether work runs on the calling thread only.
    #[must_use]
    pub fn is_sequential(&self) -> bool {
        self.threads.get() == 1
    }
}

impl Default for Parallelism {
    /// [`Parallelism::from_env`].
    fn default() -> Self {
        Self::from_env()
    }
}

/// Maps `f` over `0..n`, sharded across the configured threads.
///
/// The output is **identical** (bit-for-bit, in order) to
/// `(0..n).map(f).collect()` for every thread count: indices are split into
/// contiguous chunks, each worker produces its chunk in order, and chunks are
/// spliced back in index order. `f` must therefore be pure with respect to
/// the index (it must not depend on evaluation order).
///
/// # Panics
///
/// Re-raises panics from worker threads on the calling thread.
pub fn map_indexed<T, F>(par: Parallelism, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = par.threads().min(n);
    if workers <= 1 || n < MIN_PARALLEL_ITEMS {
        return (0..n).map(f).collect();
    }

    // Balanced contiguous chunks: the first `rem` chunks get one extra item.
    let base = n / workers;
    let rem = n % workers;
    let bounds: Vec<(usize, usize)> = (0..workers)
        .map(|w| {
            let start = w * base + w.min(rem);
            let len = base + usize::from(w < rem);
            (start, start + len)
        })
        .collect();

    let f = &f;
    let chunks: Vec<Vec<T>> = std::thread::scope(|scope| {
        let handles: Vec<_> = bounds
            .iter()
            .map(|&(start, end)| scope.spawn(move || (start..end).map(f).collect::<Vec<T>>()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    });
    let mut out = Vec::with_capacity(n);
    for chunk in chunks {
        out.extend(chunk);
    }
    out
}

/// Maps `f` over a slice, sharded like [`map_indexed`]; output order matches
/// the input order exactly.
pub fn map_slice<'a, T, U, F>(par: Parallelism, items: &'a [T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&'a T) -> U + Sync,
{
    map_indexed(par, items.len(), |i| f(&items[i]))
}

/// [`map_indexed`] with a per-worker scratch value.
///
/// Each worker thread calls `init` exactly once and then reuses the scratch
/// across every index of its contiguous chunk — the pattern the bitset
/// reachability kernel depends on to amortize its arena allocations over a
/// whole shard instead of paying them per fault mode. The sequential path
/// (1 worker or fewer than `MIN_PARALLEL_ITEMS` items) also allocates the
/// scratch once.
///
/// The determinism contract of [`map_indexed`] carries over: `f` must be a
/// pure function of the index given a freshly initialized *or* previously
/// used scratch (the scratch is an allocation cache, never a value channel
/// between indices), so the output is bit-identical for every thread count.
///
/// # Panics
///
/// Re-raises panics from worker threads on the calling thread.
pub fn map_indexed_scratch<T, S, I, F>(par: Parallelism, n: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let workers = par.threads().min(n);
    if workers <= 1 || n < MIN_PARALLEL_ITEMS {
        let mut scratch = init();
        return (0..n).map(|i| f(&mut scratch, i)).collect();
    }

    let base = n / workers;
    let rem = n % workers;
    let bounds: Vec<(usize, usize)> = (0..workers)
        .map(|w| {
            let start = w * base + w.min(rem);
            let len = base + usize::from(w < rem);
            (start, start + len)
        })
        .collect();

    let init = &init;
    let f = &f;
    let chunks: Vec<Vec<T>> = std::thread::scope(|scope| {
        let handles: Vec<_> = bounds
            .iter()
            .map(|&(start, end)| {
                scope.spawn(move || {
                    let mut scratch = init();
                    (start..end).map(|i| f(&mut scratch, i)).collect::<Vec<T>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    });
    let mut out = Vec::with_capacity(n);
    for chunk in chunks {
        out.extend(chunk);
    }
    out
}

/// [`map_slice`] with a per-worker scratch value; see
/// [`map_indexed_scratch`] for the reuse and determinism contract.
pub fn map_slice_scratch<'a, T, U, S, I, F>(
    par: Parallelism,
    items: &'a [T],
    init: I,
    f: F,
) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &'a T) -> U + Sync,
{
    map_indexed_scratch(par, items.len(), init, |scratch, i| f(scratch, &items[i]))
}

/// Per-chunk result of a fallible sharded map.
enum ChunkOutcome<T, E> {
    /// The chunk completed every index.
    Done(Vec<T>),
    /// `f` returned an error (or the chunk panicked) at some index.
    Failed(E),
    /// The chunk bailed out early because a sibling already failed.
    Aborted,
}

/// Fallible [`map_indexed_scratch`]: stops early on the first error and
/// never panics across the shard boundary.
///
/// On success the output is bit-identical to the sequential
/// `(0..n).map(|i| f(&mut scratch, i))` run for every thread count — the
/// same contract as [`map_indexed_scratch`]. On failure the error from the
/// earliest-indexed failing chunk is returned; sibling shards observe a
/// shared abort flag (checked before each index) and stop early, so a
/// cancelled sweep stops within one unit of work per worker rather than
/// running to completion.
///
/// Panics inside `f` (or `init`) are caught per shard and converted into an
/// error via `E: From<ShardPanic>` instead of being re-raised, isolating the
/// caller from poisoned closures.
///
/// # Errors
///
/// Returns the first error produced by `f` in chunk-index order, or a
/// `ShardPanic`-derived error when a shard panicked.
pub fn try_map_indexed_scratch<T, E, S, I, F>(
    par: Parallelism,
    n: usize,
    init: I,
    f: F,
) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send + From<ShardPanic>,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> Result<T, E> + Sync,
{
    let workers = par.threads().min(n);
    if workers <= 1 || n < MIN_PARALLEL_ITEMS {
        return catch_unwind(AssertUnwindSafe(|| {
            let mut scratch = init();
            (0..n).map(|i| f(&mut scratch, i)).collect()
        }))
        .unwrap_or_else(|payload| Err(E::from(ShardPanic::from_payload(payload))));
    }

    let base = n / workers;
    let rem = n % workers;
    let bounds: Vec<(usize, usize)> = (0..workers)
        .map(|w| {
            let start = w * base + w.min(rem);
            let len = base + usize::from(w < rem);
            (start, start + len)
        })
        .collect();

    let init = &init;
    let f = &f;
    let abort = &AtomicBool::new(false);
    let chunks: Vec<ChunkOutcome<T, E>> = std::thread::scope(|scope| {
        let handles: Vec<_> = bounds
            .iter()
            .map(|&(start, end)| {
                scope.spawn(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        let mut scratch = init();
                        let mut out = Vec::with_capacity(end - start);
                        for i in start..end {
                            if abort.load(Ordering::Relaxed) {
                                return ChunkOutcome::Aborted;
                            }
                            match f(&mut scratch, i) {
                                Ok(v) => out.push(v),
                                Err(e) => return ChunkOutcome::Failed(e),
                            }
                        }
                        ChunkOutcome::Done(out)
                    }))
                    .unwrap_or_else(|payload| {
                        ChunkOutcome::Failed(E::from(ShardPanic::from_payload(payload)))
                    });
                    if matches!(outcome, ChunkOutcome::Failed(_)) {
                        abort.store(true, Ordering::Relaxed);
                    }
                    outcome
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|payload| {
                    ChunkOutcome::Failed(E::from(ShardPanic::from_payload(payload)))
                })
            })
            .collect()
    });

    let mut out = Vec::with_capacity(n);
    let mut aborted = false;
    for chunk in chunks {
        match chunk {
            ChunkOutcome::Done(items) => out.extend(items),
            ChunkOutcome::Failed(e) => return Err(e),
            ChunkOutcome::Aborted => aborted = true,
        }
    }
    if aborted {
        // A chunk aborted but no sibling reported the triggering failure:
        // impossible by construction (abort is only set after a Failed
        // outcome), kept as a defensive error rather than a panic.
        return Err(E::from(ShardPanic { message: "shard aborted without an error".into() }));
    }
    Ok(out)
}

/// Fallible [`map_slice_scratch`]; see [`try_map_indexed_scratch`] for the
/// early-stop, determinism, and panic-isolation contract.
///
/// # Errors
///
/// Returns the first error produced by `f` in chunk-index order, or a
/// `ShardPanic`-derived error when a shard panicked.
pub fn try_map_slice_scratch<'a, T, U, E, S, I, F>(
    par: Parallelism,
    items: &'a [T],
    init: I,
    f: F,
) -> Result<Vec<U>, E>
where
    T: Sync,
    U: Send,
    E: Send + From<ShardPanic>,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &'a T) -> Result<U, E> + Sync,
{
    try_map_indexed_scratch(par, items.len(), init, |scratch, i| f(scratch, &items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_means_auto() {
        assert!(Parallelism::new(0).threads() >= 1);
        assert_eq!(Parallelism::new(3).threads(), 3);
        assert!(Parallelism::sequential().is_sequential());
    }

    #[test]
    fn map_matches_sequential_for_every_thread_count() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9).rotate_left(13);
        for n in [0, 1, 15, 16, 17, 100, 1001] {
            let expected: Vec<u64> = (0..n).map(f).collect();
            for threads in [1, 2, 3, 8, 64] {
                assert_eq!(
                    map_indexed(Parallelism::new(threads), n, f),
                    expected,
                    "n={n} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn map_slice_preserves_order() {
        let items: Vec<String> = (0..200).map(|i| format!("x{i}")).collect();
        let out = map_slice(Parallelism::new(4), &items, |s| s.len());
        assert_eq!(out, items.iter().map(String::len).collect::<Vec<_>>());
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = map_indexed(Parallelism::new(64), 20, |i| i * 2);
        assert_eq!(out, (0..20).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panics_propagate() {
        map_indexed(Parallelism::new(4), 64, |i| {
            assert!(i != 40, "worker boom");
            i
        });
    }

    #[test]
    fn env_parsing() {
        // from_env reads the live environment; only check it resolves.
        assert!(Parallelism::from_env().threads() >= 1);
    }

    #[test]
    fn scratch_map_matches_sequential_for_every_thread_count() {
        // The scratch is an allocation cache only; results must match the
        // plain map bit for bit.
        let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9).rotate_left(13);
        for n in [0, 1, 15, 16, 17, 100, 1001] {
            let expected: Vec<u64> = (0..n).map(f).collect();
            for threads in [1, 2, 3, 8, 64] {
                let got =
                    map_indexed_scratch(Parallelism::new(threads), n, Vec::<u64>::new, |s, i| {
                        s.push(f(i));
                        *s.last().unwrap()
                    });
                assert_eq!(got, expected, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn scratch_is_initialized_once_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let n = 1000;
        let threads = 4;
        let out = map_indexed_scratch(
            Parallelism::new(threads),
            n,
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                0usize
            },
            |uses, i| {
                *uses += 1;
                i
            },
        );
        assert_eq!(out, (0..n).collect::<Vec<_>>());
        assert_eq!(inits.load(Ordering::SeqCst), threads, "one scratch per worker");
    }

    #[test]
    fn map_slice_scratch_preserves_order() {
        let items: Vec<String> = (0..200).map(|i| format!("x{i}")).collect();
        let out = map_slice_scratch(Parallelism::new(4), &items, || (), |(), s| s.len());
        assert_eq!(out, items.iter().map(String::len).collect::<Vec<_>>());
    }

    #[derive(Debug, PartialEq, Eq)]
    enum TryErr {
        Bad(usize),
        Panicked(String),
    }

    impl From<ShardPanic> for TryErr {
        fn from(p: ShardPanic) -> Self {
            TryErr::Panicked(p.message().to_string())
        }
    }

    #[test]
    fn try_map_ok_matches_sequential_for_every_thread_count() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9).rotate_left(13);
        for n in [0, 1, 15, 16, 17, 100, 1001] {
            let expected: Vec<u64> = (0..n).map(f).collect();
            for threads in [1, 2, 3, 8, 64] {
                let got: Result<Vec<u64>, TryErr> =
                    try_map_indexed_scratch(Parallelism::new(threads), n, || (), |(), i| Ok(f(i)));
                assert_eq!(got.unwrap(), expected, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn try_map_surfaces_an_error_and_stops() {
        // Sequential execution pins the exact error; parallel runs may race
        // the abort flag, so they only guarantee *some* failing index.
        let got: Result<Vec<usize>, TryErr> = try_map_indexed_scratch(
            Parallelism::sequential(),
            1000,
            || (),
            |(), i| if i >= 7 { Err(TryErr::Bad(i)) } else { Ok(i) },
        );
        assert_eq!(got, Err(TryErr::Bad(7)));
        for threads in [2, 4, 8] {
            let got: Result<Vec<usize>, TryErr> = try_map_indexed_scratch(
                Parallelism::new(threads),
                1000,
                || (),
                |(), i| if i >= 7 { Err(TryErr::Bad(i)) } else { Ok(i) },
            );
            assert!(matches!(got, Err(TryErr::Bad(i)) if i >= 7), "threads={threads}: {got:?}");
        }
    }

    #[test]
    fn try_map_converts_worker_panics_into_errors() {
        for threads in [1, 4] {
            let got: Result<Vec<usize>, TryErr> = try_map_indexed_scratch(
                Parallelism::new(threads),
                64,
                || (),
                |(), i| {
                    assert!(i != 40, "shard boom");
                    Ok(i)
                },
            );
            assert_eq!(got, Err(TryErr::Panicked("shard boom".to_string())), "threads={threads}");
        }
    }

    #[test]
    fn try_map_slice_scratch_preserves_order() {
        let items: Vec<String> = (0..200).map(|i| format!("x{i}")).collect();
        let out: Result<Vec<usize>, TryErr> =
            try_map_slice_scratch(Parallelism::new(4), &items, || (), |(), s| Ok(s.len()));
        assert_eq!(out.unwrap(), items.iter().map(String::len).collect::<Vec<_>>());
    }
}
