//! The one parallel scan: partition, run under the governor, merge into
//! an exact prefix.
//!
//! Every ordered multi-source scan — the product-kernel RPQ sweep
//! ([`crate::eval::Evaluator`]), the packed-adjacency sweep and the
//! wedge triangle count ([`crate::scale`]) and the leapfrog triejoin in
//! `kgq-rdf` — runs through [`partitioned`]. The caller names how many
//! *units* its domain has (64-source batches, apexes, first-variable
//! candidates) and how many *parts* to cut it into; `partitioned` splits
//! `0..units` into contiguous ranges (exact in u128 arithmetic), runs one
//! part per range and concatenates what the parts push in range order.
//! Answers are therefore identical at every thread count, including one.
//! The order-free sums ([`crate::count::count_paths_naive`],
//! [`crate::approx::approx_count_amplified`]) fan out on their own.
//!
//! The merge rule: parts are settled in range order. Each part runs
//! panic-isolated (a panic becomes [`EvalError::Panic`]) and does not
//! start once the shared [`Governor`] has tripped. A part that is
//! interrupted keeps what it pushed, and the answer ends there, tagged
//! [`crate::govern::Completion::Partial`] with the reason. When the
//! caller asks for admission, merged items are charged to the result
//! budget with [`Governor::admit_results`], which a step, deadline or
//! cancel trip in a *later* part cannot refuse: the parts that completed
//! before the trip stay in the answer. With one thread the parts run in
//! order on the caller, appending straight into the answer, and each is
//! admitted before the next starts, so a result budget stops the scan at
//! the first refused part.
//!
//! Workers share the governor by reference: each charges its own batched
//! [`crate::govern::Ticker`] into the shared atomic counters and observes
//! the sticky trip (including cancellation) at its next check. The
//! bundled rayon shim joins every scoped thread before returning, so no
//! thread outlives a scan.
//!
//! Thread count resolution, highest priority first:
//!
//! 1. the `KGQ_THREADS` environment variable (applied once, on first use);
//! 2. whatever the rayon global pool was configured with
//!    (`RAYON_NUM_THREADS`, or an explicit `ThreadPoolBuilder`);
//! 3. the machine's available parallelism.
//!
//! Setting `KGQ_THREADS=1` forces the sequential paths everywhere.

use crate::govern::{isolate, EvalError, Governed, Governor, Interrupt};
use rayon::prelude::*;
use std::ops::Range;
use std::sync::Once;

static INIT: Once = Once::new();

/// Applies `KGQ_THREADS` (if set and valid) to the global rayon pool.
/// Idempotent; called automatically by [`effective_threads`]. A value
/// that is set but not a positive integer (`0`, empty, non-numeric) is
/// reported once on stderr — naming the bad value and the fallback —
/// instead of being silently ignored.
pub fn init_threads() {
    INIT.call_once(|| {
        if let Ok(v) = std::env::var("KGQ_THREADS") {
            match v.trim().parse::<usize>() {
                Ok(n) if n > 0 => {
                    let _ = rayon::ThreadPoolBuilder::new()
                        .num_threads(n)
                        .build_global();
                }
                Ok(_) => eprintln!(
                    "warning: KGQ_THREADS=0 is not a valid thread count; \
                     using the pool default ({} threads)",
                    rayon::current_num_threads()
                ),
                Err(_) => eprintln!(
                    "warning: KGQ_THREADS=`{v}` is not a positive integer; \
                     using the pool default ({} threads)",
                    rayon::current_num_threads()
                ),
            }
        }
    });
}

/// Number of threads the parallel scans will use (after honoring
/// `KGQ_THREADS`). A return value of 1 routes every scan through its
/// sequential reference implementation.
pub fn effective_threads() -> usize {
    init_threads();
    rayon::current_num_threads()
}

/// Reconfigures the global pool to `n` threads, overriding `KGQ_THREADS`
/// and any earlier configuration (the bundled rayon's `build_global` is
/// repeatable: the last call wins). Intended for benchmarks and tests
/// that measure or verify behavior across thread counts.
pub fn set_threads(n: usize) {
    init_threads();
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(n.max(1))
        .build_global();
}

/// Splits `0..units` into at most `parts` contiguous, non-empty ranges,
/// runs `part` on each (on the pool when more than one thread is
/// available) and merges what the parts push, in range order, into an
/// exact prefix of the full answer under the module's merge rule. `gov`
/// stops parts from starting after a trip; `admit` also charges merged
/// items to its result budget.
pub fn partitioned<T: Send>(
    units: usize,
    parts: usize,
    gov: Option<&Governor>,
    admit: bool,
    part: impl Fn(Range<usize>, &mut Vec<T>) -> Result<(), Interrupt> + Sync,
) -> Result<Governed<Vec<T>>, EvalError> {
    let parts = parts.max(1).min(units);
    let run = |i: usize, out: &mut Vec<T>| {
        isolate(|| {
            if let Some(why) = gov.and_then(Governor::trip_state) {
                return Err(why);
            }
            part(chunk_bounds(units, parts, i), out)
        })
    };
    let admit = gov.filter(|_| admit);
    let mut out = Vec::new();
    if effective_threads() <= 1 || parts < 2 {
        for i in 0..parts {
            let before = out.len();
            let landed = run(i, &mut out);
            if let Some(why) = settle(&mut out, before, landed, admit)? {
                return Ok(Governed::partial(out, why));
            }
        }
    } else {
        let per_part: Vec<(Vec<T>, Result<(), EvalError>)> = (0..parts)
            .into_par_iter()
            .map(|i| {
                let mut items = Vec::new();
                let landed = run(i, &mut items);
                (items, landed)
            })
            .collect();
        out.reserve(per_part.iter().map(|(items, _)| items.len()).sum());
        for (items, landed) in per_part {
            let before = out.len();
            out.extend(items);
            if let Some(why) = settle(&mut out, before, landed, admit)? {
                return Ok(Governed::partial(out, why));
            }
        }
    }
    Ok(Governed::complete(out))
}

/// The `i`-th of `parts` contiguous near-equal slices of `0..units`. The
/// product `i * units` is formed in u128, so the split stays exact for
/// `units` near `usize::MAX`.
fn chunk_bounds(units: usize, parts: usize, i: usize) -> Range<usize> {
    let at = |k: usize| (k as u128 * units as u128 / parts as u128) as usize;
    at(i)..at(i + 1)
}

/// Settles one part that appended `out[before..]`: admits those items one
/// by one when `admit` is given, truncating at the first refusal, and
/// returns the interrupt that ends the answer (that refusal, else the
/// part's own). A panicked part is the error.
fn settle<T>(
    out: &mut Vec<T>,
    before: usize,
    landed: Result<(), EvalError>,
    admit: Option<&Governor>,
) -> Result<Option<Interrupt>, EvalError> {
    let stop = match landed {
        Ok(()) => None,
        Err(EvalError::Interrupted(why)) => Some(why),
        Err(e) => return Err(e),
    };
    if let Some(gov) = admit {
        for idx in before..out.len() {
            if let Err(why) = gov.admit_results(1) {
                out.truncate(idx);
                return Ok(Some(why));
            }
        }
    }
    Ok(stop)
}

/// The value of a scan run without limits, which cannot be interrupted:
/// a worker's panic resumes here with its message, and any other error
/// panics with its own.
pub fn ungoverned<T>(res: Result<Governed<T>, EvalError>) -> T {
    match res {
        Ok(governed) => governed.value,
        Err(EvalError::Panic(msg)) => panic!("{msg}"),
        Err(e) => panic!("{e}"),
    }
}

/// The pool size is process-wide: unit tests that set it hold this
/// guard, so one that needs a single thread is not switched to four
/// mid-scan.
#[cfg(test)]
pub(crate) fn pin_threads() -> std::sync::MutexGuard<'static, ()> {
    static THREADS: std::sync::Mutex<()> = std::sync::Mutex::new(());
    THREADS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::govern::{Budget, Completion};
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn effective_threads_is_positive() {
        assert!(effective_threads() >= 1);
    }

    #[test]
    fn parts_tile_the_units_exactly() {
        // No overflow near usize::MAX, more parts than units, no units:
        // the ranges come back in order, non-empty, gap-free and covering
        // `0..units` exactly.
        for (units, parts) in [
            (usize::MAX, 8),
            (usize::MAX - 1, 3),
            (usize::MAX / 2 + 7, 16),
            (1_000_000, 7),
            (1000, 7),
            (65, 3),
            (64, 2),
            (3, 10),
            (1, 1),
            (0, 4),
        ] {
            let got = partitioned(units, parts, None, false, |r, out| {
                out.push(r);
                Ok(())
            })
            .expect("no part panics");
            assert!(got.completion.is_complete());
            assert_eq!(
                got.value.len(),
                parts.min(units),
                "units={units} parts={parts}"
            );
            let mut next = 0;
            for r in got.value {
                assert_eq!(r.start, next, "units={units} parts={parts}");
                assert!(r.start < r.end, "units={units} parts={parts}");
                next = r.end;
            }
            assert_eq!(next, units);
        }
    }

    #[test]
    fn a_later_trip_keeps_the_parts_before_it() {
        // Part 0 completes; only then does part 1 push one item and trip
        // the step budget. The merge must keep all four items: admitting
        // part 0 after the trip is not refused by it.
        let _threads = pin_threads();
        let restore = effective_threads();
        for threads in [1, 2, 4] {
            set_threads(threads);
            let gov = Governor::new(&Budget::unlimited().with_max_steps(10));
            let done = AtomicBool::new(false);
            let got = partitioned(2, 2, Some(&gov), true, |r, out| {
                if r.start == 0 {
                    out.extend([1, 2, 3]);
                    done.store(true, Ordering::SeqCst);
                    return Ok(());
                }
                while !done.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                out.push(4);
                gov.charge_steps(11)
            })
            .expect("no part panics");
            assert_eq!(got.value, [1, 2, 3, 4], "threads={threads}");
            assert_eq!(
                got.completion,
                Completion::Partial(Interrupt::StepBudget),
                "threads={threads}"
            );
            assert_eq!(gov.results_used(), 4, "threads={threads}");
        }
        set_threads(restore);
    }

    #[test]
    fn admission_cuts_inside_a_part_and_panics_are_typed() {
        let gov = Governor::new(&Budget::unlimited().with_max_results(5));
        let got = partitioned(4, 4, Some(&gov), true, |r, out| {
            out.extend(r.start * 3..r.start * 3 + 3);
            Ok(())
        })
        .expect("no part panics");
        assert_eq!(got.value, [0, 1, 2, 3, 4]);
        assert_eq!(got.completion, Completion::Partial(Interrupt::ResultBudget));
        let err = partitioned(4, 4, None, false, |r, out: &mut Vec<usize>| {
            assert!(r.start != 2, "part 2 fails");
            out.push(r.start);
            Ok(())
        })
        .expect_err("part 2 panics");
        assert_eq!(err, EvalError::Panic("part 2 fails".into()));
    }
}
