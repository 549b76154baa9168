//! Cardinality sketches and universal-hash approximate counting for the
//! LFTJ engine — the statistics plane behind sketch-driven join planning
//! and the governed approximate `COUNT(*)` surface.
//!
//! Two independent capabilities share one hashing substrate
//! ([`splitmix64`]):
//!
//! * [`StoreSketch`] — per-ordering statistics computed in one pass over
//!   each of the six sorted triple orderings: exact distinct counts and
//!   max-run degrees for the first one and two key columns, heavy-hitter
//!   buckets (per-value row and distinct-second-column counts for the
//!   highest-degree first-column values), and a linear-probabilistic
//!   distinct-count bitmap over the leading column. The planner
//!   ([`crate::lftj::plan_sketched`]) combines these into a two-level
//!   cost model; the sketches never affect *answers*, only elimination
//!   order — `verify_plan` still re-derives exact cardinalities.
//! * [`approx_count_bgp_governed`] — an (ε, δ) approximate counter for
//!   BGP result sizes in the ApproxMC lineage: random XOR (parity)
//!   constraints over pairwise-independent 64-bit prefix hashes halve
//!   the surviving answer set per constraint, so `survivors · 2^m` is an
//!   unbiased estimate once `m` constraints shrink the count under a
//!   pivot. This is the FPRAS degradation path for
//!   `SELECT (COUNT(*) AS ?v)` when the exact count trips its budget.
//!
//! The XOR-hash idiom, spelled out (ROADMAP item 4): draw a uniform
//! 64-bit `mask` and a uniform `target` bit; a hash `h` satisfies the
//! constraint iff `popcount(mask & h) mod 2 == target`, i.e. the parity
//! of the masked bits equals the target. Each constraint passes with
//! probability exactly ½ and distinct constraints are independent, so
//! stacking `m` of them keeps each answer with probability `2^-m`;
//! constraints are pushed down to the elimination level whose prefix
//! hash they test, pruning whole subtrees of the trie join instead of
//! filtering materialized rows.

use crate::bgp::Bgp;
use crate::lftj::{self, LevelConstraints, SketchPlan};
use crate::store::{IndexOrder, TripleStore};
use kgq_core::govern::{Completion, EvalError, Governed, Governor, Interrupt};
use kgq_graph::Sym;

/// Bits in a [`DistinctSketch`] bitmap. 4096 bits keep the
/// linear-counting estimate within a few percent up to ~2800 distinct
/// values — far past the regime where order choice is sensitive to the
/// exact figure — in 512 bytes per ordering.
const SKETCH_BITS: usize = 4096;

/// Heavy-hitter buckets kept per ordering. Predicate-led orderings
/// (`Pso`/`Pos`) rarely have more than a handful of distinct leading
/// values, so 24 buckets usually means *exact* per-predicate statistics.
const HEAVY_K: usize = 24;

/// SplitMix64 finalizer: the standard 64-bit avalanche permutation.
/// Cheap, stateless, and good enough to treat distinct inputs as
/// pairwise-independent hash values for both the bitmap sketches and
/// the XOR constraint family.
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Deterministic stream of 64-bit values seeded by the caller; used to
/// sample XOR constraints so every run with the same seed draws the
/// same constraint family.
struct SeedStream {
    state: u64,
}

impl SeedStream {
    fn new(seed: u64) -> SeedStream {
        SeedStream {
            state: splitmix64(seed ^ 0x243f_6a88_85a3_08d3),
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.state)
    }
}

/// Root value for the per-level prefix-hash chain ([`chain_hash`]).
pub(crate) const ROOT_HASH: u64 = 0x1319_8a2e_0370_7344;

/// Extend a prefix hash with the binding chosen at `level`. The chain
/// folds every earlier binding in, so two full rows that differ in any
/// variable have distinct final-level hashes (up to 64-bit collisions),
/// while rows sharing a prefix share the prefix hash — which is what
/// lets XOR constraints prune whole subtrees during the counting
/// recursion.
#[inline]
pub(crate) fn chain_hash(prev: u64, level: usize, value: Sym) -> u64 {
    splitmix64(prev ^ splitmix64(((level as u64) << 32) ^ u64::from(value.0)))
}

/// Linear-probabilistic distinct counter: a fixed bitmap indexed by the
/// low bits of a hash. The estimate is `-m·ln(z/m)` for `m` bits with
/// `z` still zero; unions are bitwise OR, which gives intersection
/// estimates by inclusion–exclusion.
#[derive(Clone, Debug)]
pub struct DistinctSketch {
    words: Vec<u64>,
}

impl Default for DistinctSketch {
    fn default() -> DistinctSketch {
        DistinctSketch::new()
    }
}

impl DistinctSketch {
    fn new() -> DistinctSketch {
        DistinctSketch {
            words: vec![0u64; SKETCH_BITS / 64],
        }
    }

    /// Inserts a raw value, hashed through splitmix64 before indexing
    /// — the public entry for callers outside the store builder.
    pub fn insert(&mut self, value: u64) {
        self.insert_hash(splitmix64(value));
    }

    #[inline]
    fn insert_hash(&mut self, h: u64) {
        let bit = (h as usize) & (SKETCH_BITS - 1);
        self.words[bit >> 6] |= 1u64 << (bit & 63);
    }

    fn ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    fn estimate_from_ones(ones: u32) -> f64 {
        let m = SKETCH_BITS as f64;
        let zeros = f64::from(SKETCH_BITS as u32 - ones);
        if zeros < 1.0 {
            // Saturated: every bit set. Report the asymptote rather
            // than infinity; callers treat this as "very many".
            return m * m.ln();
        }
        -m * (zeros / m).ln()
    }

    /// Estimated number of distinct values inserted.
    pub fn estimate(&self) -> f64 {
        Self::estimate_from_ones(self.ones())
    }

    /// Estimated size of the intersection of the two inserted value
    /// sets, via `|A ∩ B| ≈ |A| + |B| − |A ∪ B|` with the union
    /// estimated from the OR of the bitmaps. Clamped at zero — the
    /// subtraction can go slightly negative on disjoint sets.
    pub fn intersect_estimate(&self, other: &DistinctSketch) -> f64 {
        let union_ones: u32 = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a | b).count_ones())
            .sum();
        let union = Self::estimate_from_ones(union_ones);
        (self.estimate() + other.estimate() - union).max(0.0)
    }
}

/// Exact statistics for one prefix depth of a sorted ordering.
#[derive(Clone, Copy, Debug, Default)]
pub struct LevelStats {
    /// Distinct prefixes at this depth.
    pub distinct: usize,
    /// Rows under the largest single prefix (max "out-degree").
    pub max_run: usize,
}

/// Exact statistics for one heavy (high-degree) leading value.
#[derive(Clone, Copy, Debug)]
pub struct HeavyBucket {
    /// The leading-column value.
    pub value: Sym,
    /// Rows whose leading column equals `value`.
    pub rows: usize,
    /// Distinct second-column values under `value`.
    pub distinct2: usize,
}

/// One ordering's statistics: depth-1/depth-2 exact stats, heavy-hitter
/// buckets for the top-[`HEAVY_K`] leading values by row count, and a
/// distinct-count bitmap over the leading column (for cross-ordering
/// intersection estimates).
#[derive(Clone, Debug)]
pub struct OrderingSketch {
    /// Total rows (triples) in the ordering.
    pub rows: usize,
    /// Depth-1 (first key column) statistics.
    pub l1: LevelStats,
    /// Depth-2 (first two key columns) statistics.
    pub l2: LevelStats,
    /// Top leading values by row count, descending.
    pub heavy: Vec<HeavyBucket>,
    /// Bitmap sketch of the leading column's value set.
    pub col0: DistinctSketch,
}

impl OrderingSketch {
    /// The heavy bucket for `value`, if it made the top-K cut.
    pub fn heavy(&self, value: Sym) -> Option<&HeavyBucket> {
        self.heavy.iter().find(|b| b.value == value)
    }

    /// Average rows per distinct leading value.
    pub fn avg1(&self) -> f64 {
        self.rows as f64 / self.l1.distinct.max(1) as f64
    }
}

fn build_ordering(rows: &[[Sym; 3]]) -> OrderingSketch {
    let mut l1 = LevelStats::default();
    let mut l2 = LevelStats::default();
    let mut heavy: Vec<HeavyBucket> = Vec::new();
    let mut col0 = DistinctSketch::new();

    let mut i = 0usize;
    while i < rows.len() {
        let v0 = rows[i][0];
        let mut j = i;
        let mut distinct2 = 0usize;
        while j < rows.len() && rows[j][0] == v0 {
            let v1 = rows[j][1];
            let mut k = j;
            while k < rows.len() && rows[k][0] == v0 && rows[k][1] == v1 {
                k += 1;
            }
            distinct2 += 1;
            l2.max_run = l2.max_run.max(k - j);
            j = k;
        }
        let run = j - i;
        l1.distinct += 1;
        l1.max_run = l1.max_run.max(run);
        l2.distinct += distinct2;
        col0.insert_hash(splitmix64(u64::from(v0.0)));
        let bucket = HeavyBucket {
            value: v0,
            rows: run,
            distinct2,
        };
        if heavy.len() < HEAVY_K {
            heavy.push(bucket);
            heavy.sort_by_key(|b| std::cmp::Reverse(b.rows));
        } else if let Some(last) = heavy.last_mut() {
            if bucket.rows > last.rows {
                *last = bucket;
                heavy.sort_by_key(|b| std::cmp::Reverse(b.rows));
            }
        }
        i = j;
    }

    OrderingSketch {
        rows: rows.len(),
        l1,
        l2,
        heavy,
        col0,
    }
}

/// Per-ordering statistics for a whole store, computed once per store
/// generation (the serve layer caches an `Arc<StoreSketch>` stamped with
/// the snapshot generation, exactly like the schema summary).
#[derive(Clone, Debug)]
pub struct StoreSketch {
    /// Triples in the store when the sketch was built.
    pub triples: usize,
    /// One sketch per [`IndexOrder::ALL`] slot.
    pub orderings: [OrderingSketch; 6],
}

impl StoreSketch {
    /// Build all six ordering sketches in one O(n) pass each over the
    /// already-sorted orderings.
    pub fn build(st: &TripleStore) -> StoreSketch {
        let orderings = IndexOrder::ALL.map(|o| build_ordering(st.order(o)));
        StoreSketch {
            triples: st.len(),
            orderings,
        }
    }

    /// The sketch for a given ordering.
    pub fn ordering(&self, o: IndexOrder) -> &OrderingSketch {
        let slot = IndexOrder::ALL
            .iter()
            .position(|x| *x == o)
            .unwrap_or_default();
        &self.orderings[slot]
    }

    /// The canonical ordering whose *first* key column is triple
    /// position `pos` (0 = subject, 1 = predicate, 2 = object).
    pub fn by_first(&self, pos: usize) -> &OrderingSketch {
        let o = match pos {
            0 => IndexOrder::Spo,
            1 => IndexOrder::Pso,
            _ => IndexOrder::Osp,
        };
        self.ordering(o)
    }

    /// Estimated extensions per already-bound prefix when the next key
    /// column of `order` is eliminated at `depth` bound columns.
    /// `bound0` is the leading column's value when it is a known
    /// constant — heavy-bucket statistics make that case exact for
    /// high-degree values (e.g. per-predicate stats).
    pub fn ext_estimate(&self, order: IndexOrder, depth: usize, bound0: Option<Sym>) -> f64 {
        let os = self.ordering(order);
        match depth {
            0 => (os.l1.distinct as f64).max(1.0),
            1 => {
                if let Some(v) = bound0 {
                    if let Some(b) = os.heavy(v) {
                        return (b.distinct2 as f64).max(1.0);
                    }
                }
                (os.l2.distinct as f64 / os.l1.distinct.max(1) as f64).max(1.0)
            }
            _ => {
                if let Some(v) = bound0 {
                    if let Some(b) = os.heavy(v) {
                        return (b.rows as f64 / b.distinct2.max(1) as f64).max(1.0);
                    }
                }
                (os.rows as f64 / os.l2.distinct.max(1) as f64).max(1.0)
            }
        }
    }
}

/// One XOR (parity) constraint over 64-bit prefix hashes: `h` passes
/// iff the parity of `mask & h` equals `target`. Drawn uniformly, each
/// constraint keeps any fixed hash with probability exactly ½.
#[derive(Clone, Copy, Debug)]
pub struct XorConstraint {
    mask: u64,
    target: u64,
}

impl XorConstraint {
    fn sample(rng: &mut SeedStream) -> XorConstraint {
        XorConstraint {
            mask: rng.next(),
            target: rng.next() & 1,
        }
    }

    /// Does `h` satisfy this constraint?
    #[inline]
    pub fn passes(&self, h: u64) -> bool {
        u64::from((self.mask & h).count_ones()) & 1 == self.target
    }
}

/// Parameters for [`approx_count_bgp_governed`]: relative error bound
/// ε, failure probability δ, and the seed that makes a run replayable.
#[derive(Clone, Copy, Debug)]
pub struct BgpCountParams {
    /// Target relative error (0 < ε < 1).
    pub epsilon: f64,
    /// Failure probability for the ε bound (0 < δ < 1).
    pub delta: f64,
    /// Seed for the XOR constraint family; round `i` uses `seed + i`.
    pub seed: u64,
}

impl Default for BgpCountParams {
    fn default() -> BgpCountParams {
        BgpCountParams {
            epsilon: 0.25,
            delta: 0.05,
            seed: 0x5eed_0b9b,
        }
    }
}

impl BgpCountParams {
    /// The exact-path threshold these parameters imply: counts at or
    /// below it are returned exactly, complete and not degraded.
    pub fn pivot(&self) -> u64 {
        pivot(self.epsilon)
    }
}

/// The ApproxMC pivot: counts at or below this are resolved exactly,
/// and each round searches for the constraint count that shrinks the
/// survivor set under it.
fn pivot(epsilon: f64) -> u64 {
    let e = epsilon.clamp(1e-3, 0.999);
    (9.84 * (1.0 + 1.0 / e) * (1.0 + 1.0 / e)).ceil() as u64
}

/// Median-amplification rounds: odd, growing as ln(1/δ).
fn rounds(delta: f64) -> usize {
    let d = delta.clamp(1e-9, 0.5);
    let t = (2.0 * (1.0 / d).ln()).ceil() as usize;
    t.max(1) | 1
}

/// Deepest constraint index usable; beyond this `2^m` overflows any
/// realistic count anyway.
const MAX_M: usize = 60;

/// Distribute the first `m` sampled constraints across elimination
/// levels. Constraints are pinned deepest-first — the final level's
/// hash distinguishes every full row, which keeps the estimator's
/// variance near the idealized pairwise-independent case — and only
/// spill toward shallower levels (where they prune whole subtrees but
/// correlate rows sharing a prefix) once a level's headroom
/// (`log2` of its estimated extensions) is spent.
fn schedule(nlevels: usize, exts: &[f64], cons: &[XorConstraint]) -> LevelConstraints {
    let mut lc = LevelConstraints::none(nlevels);
    if nlevels == 0 {
        return lc;
    }
    let caps: Vec<usize> = (0..nlevels)
        .map(|l| {
            let e = exts.get(l).copied().unwrap_or(f64::INFINITY).max(1.0);
            (e.log2().floor() as usize).min(MAX_M)
        })
        .collect();
    let mut idx = 0usize;
    'fill: loop {
        let mut placed = false;
        for l in (0..nlevels).rev() {
            if idx >= cons.len() {
                break 'fill;
            }
            if lc.per_level[l].len() < caps[l] {
                lc.per_level[l].push(cons[idx]);
                idx += 1;
                placed = true;
            }
        }
        if !placed {
            break;
        }
    }
    // Headroom exhausted: the remainder goes to the deepest level,
    // where per-row hashes keep the estimate unbiased regardless.
    while idx < cons.len() {
        lc.per_level[nlevels - 1].push(cons[idx]);
        idx += 1;
    }
    lc
}

/// One estimation round: sample a full constraint family, then find the
/// smallest `m` whose first-`m` survivor count fits under the pivot.
/// Because round `r`'s survivor sets are nested in `m` (constraint `m+1`
/// only removes survivors), the search is a plain binary search.
fn round_estimate(
    st: &TripleStore,
    bgp: &Bgp,
    sp: &SketchPlan,
    thresh: u64,
    seed: u64,
    gov: &Governor,
) -> Result<(u64, Option<Interrupt>), EvalError> {
    let nlevels = sp.plan.vars.len();
    let exts: Vec<f64> = sp.estimates.iter().map(|e| e.ext).collect();
    let mut rng = SeedStream::new(seed);
    let cons: Vec<XorConstraint> = (0..MAX_M)
        .map(|_| XorConstraint::sample(&mut rng))
        .collect();

    let survivors = |m: usize| -> Result<(u64, Option<Interrupt>), EvalError> {
        let lc = schedule(nlevels, &exts, &cons[..m]);
        lftj::count_planned_capped(st, bgp, &sp.plan, &lc, thresh + 1, Some(gov))
    };

    let (mut lo, mut hi) = (1usize, MAX_M);
    let mut best: Option<(usize, u64)> = None;
    while lo <= hi {
        let mid = lo + (hi - lo) / 2;
        let (n, tripped) = survivors(mid)?;
        if let Some(why) = tripped {
            return Ok((
                best.map(|(m, n)| n.saturating_shl(m)).unwrap_or(n),
                Some(why),
            ));
        }
        if n <= thresh {
            best = Some((mid, n));
            if mid == 1 {
                break;
            }
            hi = mid - 1;
        } else {
            lo = mid + 1;
        }
    }
    let (m, n) = best.unwrap_or((MAX_M, thresh + 1));
    Ok((n.saturating_shl(m), None))
}

trait SaturatingShl {
    fn saturating_shl(self, m: usize) -> u64;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, m: usize) -> u64 {
        if self == 0 {
            0
        } else if m as u32 >= self.leading_zeros() {
            u64::MAX
        } else {
            self << m
        }
    }
}

/// Approximate the number of BGP answers under an unlimited governor.
/// Convenience wrapper over [`approx_count_bgp_governed`]; the result's
/// `degraded` flag still distinguishes an exact small count from a
/// hash-based estimate.
pub fn approx_count_bgp(
    st: &TripleStore,
    sk: &StoreSketch,
    bgp: &Bgp,
    params: BgpCountParams,
) -> Result<Governed<u64>, EvalError> {
    approx_count_bgp_governed(st, sk, bgp, params, &Governor::unlimited())
}

/// Approximate `|answers(bgp)|` to within a factor `1 + ε` with
/// probability `1 − δ`, under a governor.
///
/// The exact path is tried first: if the true count is at most the
/// pivot `⌈9.84 (1 + 1/ε)²⌉`, the exact value is returned with
/// `degraded: false` — byte-identical to what the exact counter would
/// produce. Otherwise `⌈2 ln(1/δ)⌉`-odd rounds each binary-search the
/// smallest XOR-constraint count `m` with at most pivot survivors and
/// report `survivors · 2^m`; the median of rounds is returned with
/// `degraded: true`. A budget trip mid-way yields a `Partial` carrying
/// the best estimate so far (or the probed lower bound when no round
/// finished).
pub fn approx_count_bgp_governed(
    st: &TripleStore,
    sk: &StoreSketch,
    bgp: &Bgp,
    params: BgpCountParams,
    gov: &Governor,
) -> Result<Governed<u64>, EvalError> {
    let sp = lftj::plan_sketched(st, sk, bgp);
    let thresh = pivot(params.epsilon);
    let none = LevelConstraints::none(sp.plan.vars.len());
    let (probe, tripped) =
        lftj::count_planned_capped(st, bgp, &sp.plan, &none, thresh + 1, Some(gov))?;
    if tripped.is_none() && probe <= thresh {
        // Small count: exact, complete, not degraded.
        return Ok(Governed::complete(probe));
    }
    if let Some(why) = tripped {
        if probe <= thresh {
            // The budget died before we even knew whether the count is
            // large; report the exact prefix count as a lower bound.
            let mut g = Governed::partial(probe, why);
            g.degraded = true;
            return Ok(g);
        }
    }

    let t = rounds(params.delta);
    let mut estimates: Vec<u64> = Vec::with_capacity(t);
    let mut interrupted: Option<Interrupt> = None;
    for r in 0..t {
        match round_estimate(
            st,
            bgp,
            &sp,
            thresh,
            params.seed.wrapping_add(r as u64),
            gov,
        )? {
            (est, None) => estimates.push(est),
            (est, Some(why)) => {
                estimates.push(est);
                interrupted = Some(why);
                break;
            }
        }
    }
    estimates.sort_unstable();
    let median = estimates[estimates.len() / 2];
    let mut g = match interrupted {
        None => Governed::complete(median),
        Some(why) => Governed::partial(median, why),
    };
    g.degraded = true;
    Ok(g)
}

/// Did this governed count come back complete? (Helper for callers that
/// only need a yes/no before formatting.)
pub fn is_complete<T>(g: &Governed<T>) -> bool {
    matches!(g.completion, Completion::Complete)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgp::Bgp;
    use crate::store::TripleStore;

    fn star_store() -> TripleStore {
        // One hub with many spokes plus a few cold nodes.
        let mut st = TripleStore::new();
        for i in 0..50 {
            st.insert_strs("hub", "spoke", &format!("n{i}"));
        }
        for i in 0..5 {
            st.insert_strs(&format!("c{i}"), "near", "hub");
        }
        st
    }

    #[test]
    fn ordering_stats_are_exact_on_star() {
        let st = star_store();
        let sk = StoreSketch::build(&st);
        let pso = sk.ordering(IndexOrder::Pso);
        // Two predicates; "spoke" has one subject with 50 objects.
        assert_eq!(pso.l1.distinct, 2);
        assert_eq!(pso.rows, 55);
        let spo = sk.ordering(IndexOrder::Spo);
        assert_eq!(spo.l1.max_run, 50);
        let spoke = st.get_term("spoke").unwrap_or(Sym(u32::MAX));
        let b = pso.heavy(spoke);
        assert!(matches!(b, Some(b) if b.rows == 50 && b.distinct2 == 1));
    }

    #[test]
    fn distinct_sketch_tracks_cardinality() {
        let mut a = DistinctSketch::new();
        for i in 0..500u64 {
            a.insert_hash(splitmix64(i));
        }
        let est = a.estimate();
        assert!(
            (est - 500.0).abs() < 75.0,
            "estimate {est} too far from 500"
        );
        // Intersection of overlapping sets.
        let mut b = DistinctSketch::new();
        for i in 250..750u64 {
            b.insert_hash(splitmix64(i));
        }
        let inter = a.intersect_estimate(&b);
        assert!(
            (inter - 250.0).abs() < 120.0,
            "intersection estimate {inter} too far from 250"
        );
    }

    #[test]
    fn xor_constraints_halve() {
        let mut rng = SeedStream::new(7);
        let c = XorConstraint::sample(&mut rng);
        let passing = (0..4096u64).filter(|&i| c.passes(splitmix64(i))).count();
        assert!(
            (1600..=2500).contains(&passing),
            "pass rate {passing}/4096 not near half"
        );
    }

    #[test]
    fn schedule_prefers_deep_levels() {
        let mut rng = SeedStream::new(1);
        let cons: Vec<XorConstraint> = (0..8).map(|_| XorConstraint::sample(&mut rng)).collect();
        let lc = schedule(3, &[2.0, 4.0, 1024.0], &cons);
        assert_eq!(lc.per_level.len(), 3);
        assert_eq!(lc.total(), 8);
        // The deep level (headroom 10) soaks up most constraints.
        assert!(lc.per_level[2].len() >= 5);
        assert!(lc.per_level[0].len() <= 1);
    }

    #[test]
    fn small_counts_are_exact_and_not_degraded() {
        let mut st = star_store();
        let mut bgp = Bgp::new();
        bgp.add(&mut st, "?c", "near", "?h");
        let sk = StoreSketch::build(&st);
        let g = match approx_count_bgp(&st, &sk, &bgp, BgpCountParams::default()) {
            Ok(g) => g,
            Err(e) => panic!("approx count failed: {e:?}"),
        };
        assert_eq!(g.value, 5);
        assert!(!g.degraded);
        assert!(is_complete(&g));
    }

    #[test]
    fn large_counts_estimate_within_epsilon() {
        // Cross product of edges: (40·39)² answers — far above the
        // pivot, forcing the XOR-constraint path.
        let mut st = TripleStore::new();
        for i in 0..40 {
            for j in 0..40 {
                if i != j {
                    st.insert_strs(&format!("n{i}"), "e", &format!("n{j}"));
                }
            }
        }
        let mut bgp = Bgp::new();
        bgp.add(&mut st, "?a", "e", "?b");
        bgp.add(&mut st, "?c", "e", "?d");
        let sk = StoreSketch::build(&st);
        let exact = (40u64 * 39) * (40 * 39);
        let params = BgpCountParams::default();
        let g = match approx_count_bgp(&st, &sk, &bgp, params) {
            Ok(g) => g,
            Err(e) => panic!("approx count failed: {e:?}"),
        };
        assert!(g.degraded);
        assert!(is_complete(&g));
        let lo = (exact as f64 / (1.0 + params.epsilon)) as u64;
        let hi = (exact as f64 * (1.0 + params.epsilon)) as u64;
        assert!(
            (lo..=hi).contains(&g.value),
            "estimate {} outside [{lo}, {hi}] (exact {exact})",
            g.value
        );
    }
}
