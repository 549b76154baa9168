//! Shared emitter of the `kgq` benchmark: the metric and workload
//! tables `BENCHMARK.json` is generated from, one percentile routine,
//! one JSON writer, the seeded generators every workload draws from, and
//! the span type of the traced run.
//!
//! Everything here is independent of the `kgq` crates so that the
//! numbers' definitions cannot drift with the code they measure.

use std::fmt::Write as _;

pub mod tables;

pub use tables::{MetricDef, WorkloadDef, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

// ---------------------------------------------------------------------
// Seeded generators
// ---------------------------------------------------------------------

/// SplitMix64: small, seedable and the same on every platform. The
/// benchmark owns its generator so that request streams do not change
/// when the repository's `rand` shim does.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; `stream` separates the independent draws
    /// of one run (data, connection 0, connection 1, writer, ...).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf sampler over ranks `0..n` with exponent `s`, by inverse CDF.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Rank `k` (0-based) is drawn with probability ∝ `1/(k+1)^s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty range");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// 64-bit content hash of a response body (eight bytes per step, so a
/// multi-megabyte body costs well under a millisecond on the client).
pub fn hash64(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = (bytes.len() as u64).wrapping_mul(K);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
        h = (h ^ w).wrapping_mul(K).rotate_left(29);
    }
    for &b in chunks.remainder() {
        h = (h ^ b as u64).wrapping_mul(K).rotate_left(29);
    }
    h ^ (h >> 32)
}

// ---------------------------------------------------------------------
// Percentiles and spreads
// ---------------------------------------------------------------------

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 100) of `samples`. Refuses a
/// percentile that fewer than [`MIN_BEYOND`] samples lie beyond, on
/// either side: a p99 over 300 samples is three numbers, not a tail.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    if !(p > 0.0 && p < 100.0) {
        return Err(format!("percentile {p} is outside (0, 100)"));
    }
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n.saturating_sub(rank).min(rank.saturating_sub(1));
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it (needs {MIN_BEYOND})"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Plain median, for the few-sample cases (set-up repeats, per-chunk
/// rates) where [`percentile`]'s tail rule does not apply.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), which is what the benchmark's acceptance rule
/// is stated in.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for i in 1..n {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        out[i - 1] = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the
/// median: the run-to-run spread the bounds are compared with.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The reading a tenth of the way in from the best of repeated
/// readings of one quantity (nearest rank; the lowest tenth when lower
/// is better, the highest when not). On a shared host a neighbour slows
/// the box by half for seconds at a time, and nothing speeds it up: the
/// median of thirty readings is the program's own time in one run and
/// the neighbour's in the next, while the best tenth needs only three
/// undisturbed readings to show the program — and, unlike the single
/// best, is not one lucky reading.
pub fn best_decile(readings: &[f64], lower_is_better: bool) -> Option<f64> {
    let mut sorted = readings.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = n.div_ceil(10);
    match (n, lower_is_better) {
        (0, _) => None,
        (_, true) => Some(sorted[rank - 1]),
        (_, false) => Some(sorted[n - rank]),
    }
}

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

/// Escapes `s` as the inside of a JSON string.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A finite number with all its digits; non-finite values have no JSON
/// spelling and are a bug in the caller.
pub fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    /// Metric name, one of [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Samples behind the value (1 for a single reading or a count).
    pub samples: usize,
}

/// What one run of one workload produced, with the facts needed to read
/// it later: machine, revision, seed and window.
#[derive(Clone, Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Whether this was the traced run.
    pub traced: bool,
    /// `--seed`.
    pub seed: u64,
    /// Measurement window in seconds.
    pub window_s: f64,
    /// Requests or invocations attempted in the window.
    pub attempted: u64,
    /// Attempts that failed: transport error, `ERR`, unexpected
    /// `# partial:`, bytes that differ from the oracle, or an
    /// acknowledged write that did not survive the crash.
    pub failed: u64,
    /// The metrics, in table order.
    pub metrics: Vec<Measured>,
}

impl Report {
    /// The value of `name`, if measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    fn defs(&self) -> &'static [MetricDef] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Checks the report against its table: every metric present once,
    /// none unknown.
    pub fn validate(&self) -> Result<(), String> {
        let defs = self.defs();
        for d in defs {
            let n = self.metrics.iter().filter(|m| m.name == d.name).count();
            if n != 1 {
                return Err(format!(
                    "{}: metric `{}` reported {n} times",
                    self.workload, d.name
                ));
            }
        }
        for m in &self.metrics {
            if !defs.iter().any(|d| d.name == m.name) {
                return Err(format!("{}: unknown metric `{}`", self.workload, m.name));
            }
        }
        Ok(())
    }

    /// The line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, d) in self.defs().iter().enumerate() {
            let value = self.get(d.name).unwrap_or(0.0);
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(value),
                d.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The full record: header (machine, revision, seed, window) plus
    /// every metric with its unit and sample count.
    pub fn record_json(&self, nproc: usize, git_rev: &str) -> String {
        let mut out = format!(
            "{{\"workload\": \"{}\", \"traced\": {}, \"nproc\": {nproc}, \"git_rev\": \"{}\", \
             \"seed\": {}, \"window_s\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": [",
            self.workload,
            self.traced,
            json_escape(git_rev),
            self.seed,
            json_number(self.window_s),
            self.attempted,
            self.failed
        );
        for (i, d) in self.defs().iter().enumerate() {
            let m = self.metrics.iter().find(|m| m.name == d.name);
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
                d.name,
                json_number(m.map_or(0.0, |m| m.value)),
                d.unit,
                m.map_or(0, |m| m.samples)
            );
        }
        out.push_str("]}");
        out
    }

    /// One line per metric for people: name, value, unit, samples.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in self.defs() {
            let m = self.metrics.iter().find(|m| m.name == d.name);
            let _ = writeln!(
                out,
                "{:<16} {:<36} {:>16} {:<8} n={}",
                self.workload,
                d.name,
                json_number(m.map_or(0.0, |m| m.value)),
                d.unit,
                m.map_or(0, |m| m.samples)
            );
        }
        out
    }
}

/// `BENCHMARK.json`, generated from the tables so that the file and the
/// program cannot disagree (a unit test compares the two).
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n  \"command\": [\"bash\", \"perfbench/run.sh\"],\n");
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{}",
            w.name,
            json_escape(w.why),
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, d) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}",
            d.name,
            d.unit,
            d.better,
            d.bound.expect("every end-to-end metric has a bound"),
            if i + 1 < END_TO_END.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, d) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}",
            d.name,
            d.unit,
            d.better,
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// One timed interval of the traced run. Spans of one request share
/// `req`; `parent` is the `id` of the span that caused this one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Request the span belongs to.
    pub req: u32,
    /// Span id, unique within the run.
    pub id: u32,
    /// Layer name, as in [`PER_LAYER`] without the unit suffix.
    pub name: &'static str,
    /// Causing span, `None` for a request's root.
    pub parent: Option<u32>,
    /// Start, nanoseconds since the run began.
    pub start_ns: u64,
    /// End, nanoseconds since the run began.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// One JSON line.
    pub fn json_line(&self) -> String {
        format!(
            "{{\"req\": {}, \"id\": {}, \"name\": \"{}\", \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            self.req,
            self.id,
            self.name,
            self.parent.map_or("null".to_owned(), |p| p.to_string()),
            self.start_ns,
            self.end_ns
        )
    }
}

/// Self time of every span: its duration minus its children's, floored
/// at zero. The benchmark times a layer's calls from outside, in a
/// replay after the parent call, so children are charged to the parent
/// by duration and not by overlap.
pub fn self_times_ns(spans: &[Span]) -> Vec<(u32, u64)> {
    spans
        .iter()
        .map(|s| {
            let children: u64 = spans
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(Span::dur_ns)
                .sum();
            (s.id, s.dur_ns().saturating_sub(children))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_and_refuses_thin_tails() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Ok(50.0));
        assert_eq!(percentile(&s, 90.0), Ok(90.0));
        // p95 of 100 leaves five beyond it; p99 leaves one.
        assert!(percentile(&s, 95.0).is_err());
        assert!(percentile(&s, 99.0).is_err());
        // Ten beyond is enough, nine is not.
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&s, 95.0), Ok(190.0));
        let s: Vec<f64> = (1..=199).map(f64::from).collect();
        assert!(percentile(&s, 95.5).is_err());
        // The low side is held to the same rule, and so is the median.
        assert!(percentile(&s, 2.0).is_err());
        assert!(percentile(&[1.0; 19], 50.0).is_err());
        assert_eq!(percentile(&[1.0; 21], 50.0), Ok(1.0));
        assert!(percentile(&s, 0.0).is_err());
        assert!(percentile(&s, 100.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut s: Vec<f64> = (1..=100).map(f64::from).collect();
        s.reverse();
        assert_eq!(percentile(&s, 75.0), Ok(75.0));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0]), Some(2.5));
    }

    #[test]
    fn best_decile_is_a_tenth_in_from_the_best_end() {
        let thirty: Vec<f64> = (1..=30).rev().map(f64::from).collect();
        assert_eq!(best_decile(&thirty, true), Some(3.0));
        assert_eq!(best_decile(&thirty, false), Some(28.0));
        // Three undisturbed readings among thirty are enough.
        let mut disturbed = vec![150.0; 27];
        disturbed.extend([100.0, 101.0, 102.0]);
        assert_eq!(best_decile(&disturbed, true), Some(102.0));
        assert_eq!(best_decile(&[7.0], true), Some(7.0));
        assert_eq!(best_decile(&[7.0, 9.0], false), Some(9.0));
        assert_eq!(best_decile(&[], true), None);
    }

    #[test]
    fn generators_repeat_per_seed_and_differ_across_streams() {
        let mut a = Rng::new(7, 1);
        let mut b = Rng::new(7, 1);
        let mut c = Rng::new(7, 2);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
        let z = Zipf::new(256, 1.0);
        let mut r = Rng::new(1, 0);
        let mut head = 0;
        for _ in 0..10_000 {
            let k = z.sample(&mut r);
            assert!(k < 256);
            head += usize::from(k < 64);
        }
        // H(64)/H(256) ≈ 0.775: most draws land in a cache-sized head,
        // the rest miss it.
        assert!((7_000..8_500).contains(&head), "{head}");
        assert!((0..100).all(|_| r.below(3) < 3));
    }

    #[test]
    fn hash_depends_on_every_byte_and_on_length() {
        let a = hash64(b"p1\tp2\np3\tp4\n");
        assert_ne!(a, hash64(b"p1\tp2\np3\tp5\n"));
        assert_ne!(a, hash64(b"p1\tp2\np3\tp4\n\n"));
        assert_ne!(hash64(b""), hash64(b"\0"));
        assert_eq!(a, hash64(b"p1\tp2\np3\tp4\n"));
    }

    fn report(traced: bool) -> Report {
        let defs = if traced { PER_LAYER } else { END_TO_END };
        Report {
            workload: "point_reads",
            traced,
            seed: 3,
            window_s: 10.0,
            attempted: 12,
            failed: 0,
            metrics: defs
                .iter()
                .enumerate()
                .map(|(i, d)| Measured {
                    name: d.name,
                    value: i as f64 + 0.25,
                    samples: 12,
                })
                .collect(),
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = report(false);
        r.validate().unwrap();
        let line = r.result_line();
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {"));
        for d in END_TO_END {
            assert!(
                line.contains(&format!("\"{}\": {{\"value\": ", d.name)),
                "{}",
                d.name
            );
        }
        assert!(!line.contains('\n'));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        let mut bad = report(false);
        bad.failed = 2;
        assert!(bad.result_line().starts_with("{\"correct\": false"));
        bad.metrics.pop();
        assert!(bad.validate().is_err());
    }

    #[test]
    fn record_carries_machine_revision_seed_window_and_sample_counts() {
        let rec = report(true).record_json(2, "abc\"123");
        for needle in [
            "\"nproc\": 2",
            "\"git_rev\": \"abc\\\"123\"",
            "\"seed\": 3",
            "\"window_s\": 10.0",
            "\"samples\": 12",
            "\"traced\": true",
        ] {
            assert!(rec.contains(needle), "{needle} missing from {rec}");
        }
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_number(1.2034), "1.2034");
        assert_eq!(json_number(44.0), "44.0");
        assert_eq!(json_number(0.000123), "0.000123");
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let sp = |id, parent, start_ns, end_ns| Span {
            req: 0,
            id,
            name: "x",
            parent,
            start_ns,
            end_ns,
        };
        let spans = [
            sp(0, None, 0, 100),
            sp(1, Some(0), 100, 130),
            sp(2, Some(0), 130, 150),
            sp(3, Some(1), 150, 190),
        ];
        assert_eq!(
            self_times_ns(&spans),
            vec![(0, 50), (1, 0), (2, 20), (3, 40)]
        );
        assert_eq!(
            spans[1].json_line(),
            "{\"req\": 0, \"id\": 1, \"name\": \"x\", \"parent\": 0, \"start_ns\": 100, \"end_ns\": 130}"
        );
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let generated = benchmark_json();
        assert_eq!(
            generated,
            include_str!("../../BENCHMARK.json"),
            "BENCHMARK.json is stale: regenerate it with `kgq_bench --emit-benchmark-json`"
        );
        assert!(generated.len() < 64 * 1024);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(n, names.len(), "a name is used twice");
        for name in names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for d in END_TO_END {
            assert!(d.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", d.name);
        }
    }
}
