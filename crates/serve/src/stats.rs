//! Per-request and aggregate server counters, exposed via `STATS`.

use kgq_core::CacheStats;
use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per power of two in [`LatencyHistogram`]; a recorded
/// value is reported low by less than `1 / SUB` of itself.
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;
/// Values below `SUB` get one exact bucket each; every octave above
/// them gets `SUB` buckets: 976 counters, 7 808 bytes.
const BUCKETS: usize = (SUB + (u64::BITS - SUB_BITS) as u64 * SUB) as usize;

/// A fixed log-linear histogram of `u64` samples: constant memory and
/// lock-free recording, at most 1/16 relative error per reported value.
#[derive(Debug)]
struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyHistogram {
    fn bucket(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let octave = u64::BITS - 1 - v.leading_zeros();
        let sub = (v >> (octave - SUB_BITS)) & (SUB - 1);
        (SUB * u64::from(octave - SUB_BITS + 1) + sub) as usize
    }

    /// The smallest value that falls in bucket `b`.
    fn floor(b: usize) -> u64 {
        let b = b as u64;
        if b < SUB {
            return b;
        }
        let octave = b / SUB - 1 + u64::from(SUB_BITS);
        (1 << octave) | ((b % SUB) << (octave - u64::from(SUB_BITS)))
    }

    /// Records one sample.
    fn record(&self, v: u64) {
        self.buckets[Self::bucket(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Nearest-rank percentile `p` (in 1..=100) of the samples so far,
    /// as the floor of its bucket; 0 when there are none.
    fn percentile(&self, p: u64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = (p * total).div_ceil(100).clamp(1, total);
        let mut seen = 0;
        for (b, &n) in counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::floor(b);
            }
        }
        unreachable!("rank {rank} is at most the total {total}")
    }
}

/// Aggregate counters for one server lifetime. All methods are `&self`
/// and every update is an atomic.
#[derive(Debug, Default)]
pub struct ServerStats {
    requests: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    partials: AtomicU64,
    cancelled: AtomicU64,
    /// Queries run through a static analyzer (every query verb, plus
    /// explicit `ANALYZE` requests).
    analyzed: AtomicU64,
    /// Diagnostics tallied by severity across all analyzer runs.
    verdict_deny: AtomicU64,
    verdict_warn: AtomicU64,
    verdict_note: AtomicU64,
    /// Query requests answered empty straight from a Deny verdict,
    /// skipping planning and evaluation entirely.
    deny_short_circuits: AtomicU64,
    /// SPARQL requests executed on a (sketch-driven) plan.
    plans_sketch: AtomicU64,
    /// COUNT queries that degraded to the XOR-hash approximate counter.
    approx_counts: AtomicU64,
    /// Completed-request latencies in microseconds.
    latencies_us: LatencyHistogram,
}

impl ServerStats {
    /// Fresh zeroed counters.
    pub fn new() -> ServerStats {
        ServerStats::default()
    }

    /// Counts an admitted request.
    pub fn request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a completed request: outcome plus wall latency.
    pub fn finish(&self, ok: bool, partial: bool, latency_us: u64) {
        if ok {
            self.ok.fetch_add(1, Ordering::Relaxed);
        } else {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        if partial {
            self.partials.fetch_add(1, Ordering::Relaxed);
        }
        self.latencies_us.record(latency_us);
    }

    /// Counts a request reclaimed unrun because its client disconnected.
    pub fn cancel(&self) {
        self.cancelled.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one analyzer run and its per-severity diagnostic tallies.
    pub fn analysis(&self, deny: u64, warn: u64, note: u64) {
        self.analyzed.fetch_add(1, Ordering::Relaxed);
        self.verdict_deny.fetch_add(deny, Ordering::Relaxed);
        self.verdict_warn.fetch_add(warn, Ordering::Relaxed);
        self.verdict_note.fetch_add(note, Ordering::Relaxed);
    }

    /// Counts a query answered empty directly from a Deny verdict.
    pub fn deny_short_circuit(&self) {
        self.deny_short_circuits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an executed SPARQL plan.
    pub fn sparql_plan(&self) {
        self.plans_sketch.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a COUNT query degraded to the approximate counter.
    pub fn approx_count(&self) {
        self.approx_counts.fetch_add(1, Ordering::Relaxed);
    }

    /// COUNT queries that degraded to the approximate counter.
    pub fn approx_counts(&self) -> u64 {
        self.approx_counts.load(Ordering::Relaxed)
    }

    /// Analyzer runs so far.
    pub fn analyzed(&self) -> u64 {
        self.analyzed.load(Ordering::Relaxed)
    }

    /// Queries answered empty straight from a Deny verdict.
    pub fn deny_short_circuits(&self) -> u64 {
        self.deny_short_circuits.load(Ordering::Relaxed)
    }

    /// Requests admitted so far.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Requests finished with `OK`.
    pub fn ok(&self) -> u64 {
        self.ok.load(Ordering::Relaxed)
    }

    /// Requests finished with `ERR`.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Requests whose body carried a `# partial:` trailer (budget trips).
    pub fn partials(&self) -> u64 {
        self.partials.load(Ordering::Relaxed)
    }

    /// `(p50, p99)` completed-request latency in microseconds, each
    /// within 1/16 below the exact nearest-rank value.
    pub fn latency_percentiles(&self) -> (u64, u64) {
        (
            self.latencies_us.percentile(50),
            self.latencies_us.percentile(99),
        )
    }

    /// Renders the `STATS` response body. One `key value` pair per
    /// line, stable order, so shell tests can `grep '^partials '`.
    pub fn render(&self, cache: &CacheStats, workers: usize) -> String {
        let (p50, p99) = self.latency_percentiles();
        format!(
            "requests {}\nok {}\nerrors {}\npartials {}\ncancelled {}\n\
             p50_us {p50}\np99_us {p99}\nworkers {workers}\n\
             cache_hits {}\ncache_misses {}\ncache_evictions {}\n\
             cache_short_circuits {}\ncache_len {}\ncache_capacity {}\n\
             analyzed {}\nverdict_deny {}\nverdict_warn {}\nverdict_note {}\n\
             deny_short_circuits {}\nplans_sketch {}\napprox_counts {}\n",
            self.requests(),
            self.ok(),
            self.errors(),
            self.partials(),
            self.cancelled.load(Ordering::Relaxed),
            cache.hits,
            cache.misses,
            cache.evictions,
            cache.short_circuits,
            cache.len,
            cache.capacity,
            self.analyzed(),
            self.verdict_deny.load(Ordering::Relaxed),
            self.verdict_warn.load(Ordering::Relaxed),
            self.verdict_note.load(Ordering::Relaxed),
            self.deny_short_circuits(),
            self.plans_sketch.load(Ordering::Relaxed),
            self.approx_counts(),
        )
    }
}

/// Nearest-rank percentile over an ascending-sorted non-empty slice.
pub fn percentile(sorted: &[u64], p: u64) -> u64 {
    debug_assert!(!sorted.is_empty());
    let rank = (p as usize * sorted.len()).div_ceil(100);
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
        assert_eq!(percentile(&[7], 50), 7);
        assert_eq!(percentile(&[7], 99), 7);
    }

    #[test]
    fn counters_and_render() {
        let s = ServerStats::new();
        s.request();
        s.request();
        s.request();
        s.finish(true, false, 100);
        s.finish(true, true, 300);
        s.finish(false, false, 200);
        s.cancel();
        assert_eq!(s.requests(), 3);
        assert_eq!(s.ok(), 2);
        assert_eq!(s.errors(), 1);
        assert_eq!(s.partials(), 1);
        // 200 starts its bucket; 300 falls in [288, 304).
        assert_eq!(s.latency_percentiles(), (200, 288));
        let cache = CacheStats {
            hits: 5,
            misses: 2,
            evictions: 1,
            short_circuits: 0,
            len: 2,
            capacity: 64,
        };
        s.analysis(1, 2, 0);
        s.analysis(0, 0, 1);
        s.deny_short_circuit();
        let text = s.render(&cache, 4);
        assert!(text.contains("analyzed 2\n"));
        assert!(text.contains("verdict_deny 1\n"));
        assert!(text.contains("verdict_warn 2\n"));
        assert!(text.contains("verdict_note 1\n"));
        assert!(text.contains("deny_short_circuits 1\n"));
        s.sparql_plan();
        s.sparql_plan();
        s.approx_count();
        let text = s.render(&cache, 4);
        assert!(text.contains("plans_sketch 2\n"));
        assert!(text.contains("approx_counts 1\n"));
        assert!(text.contains("requests 3\n"));
        assert!(text.contains("partials 1\n"));
        assert!(text.contains("cancelled 1\n"));
        assert!(text.contains("p99_us 288\n"));
        assert!(text.contains("cache_hits 5\n"));
        assert!(text.contains("workers 4\n"));
    }

    /// Against an exact sorted reservoir: every percentile is at most
    /// 1/16 below the exact nearest-rank value and never above it, over
    /// values from 0 to `u64::MAX`.
    #[test]
    fn histogram_percentiles_are_within_a_sixteenth_below_exact() {
        assert!(std::mem::size_of::<LatencyHistogram>() <= 8 * 1024);
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for round in 0..8 {
            let h = LatencyHistogram::default();
            let mut exact = Vec::new();
            for _ in 0..1_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Spread samples over every octave, including the exact
                // buckets below 16 and the top one.
                let v = match round {
                    0 => x % 16,
                    7 => x | (1 << 63),
                    _ => x >> (x % 64),
                };
                h.record(v);
                exact.push(v);
            }
            exact.sort_unstable();
            for p in [1, 10, 50, 90, 99, 100] {
                let want = percentile(&exact, p);
                let got = h.percentile(p);
                assert!(got <= want, "p{p}: {got} > {want}");
                assert!(want - got <= want / 16, "p{p}: {got} vs {want}");
            }
        }
        for b in 0..BUCKETS {
            assert_eq!(LatencyHistogram::bucket(LatencyHistogram::floor(b)), b);
        }
        assert_eq!(LatencyHistogram::bucket(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn empty_latency_reservoir_reports_zero() {
        assert_eq!(ServerStats::new().latency_percentiles(), (0, 0));
    }
}
