//! Source-range sharded evaluation over packed adjacency — the
//! out-of-core scale path.
//!
//! The standard pipeline ([`crate::product`] + [`crate::eval`])
//! materializes the graph × NFA product with a hash-interned state
//! table: ~48 bytes per product state plus 16 per transition. At 10⁸
//! edges that table alone dwarfs the graph. This module is the scale
//! alternative for **label-only** path expressions (labels, `ℓ⁻`,
//! concatenation, alternation, star — no node tests, no property or
//! feature tests):
//!
//! * the expression compiles to a tiny [`LabelDfa`] (the minimized
//!   automaton of [`crate::automata`], restricted to label letters and
//!   flattened over its ε-closures);
//! * product states are **implicit** — `state = v · |Q| + q` — and
//!   are swept by the one 64-lane sweep of [`crate::bitkernel`], the
//!   same loop, extraction and accounting the product route runs on;
//! * adjacency is abstracted by [`LabelAdjacency`], with adapters for
//!   the raw [`LabelIndex`] and the bit-packed [`PackedView`] — the
//!   "slice or iterate" seam: one decode per `(node, label)` expansion
//!   feeds all 64 source lanes of the batch, which is what amortizes
//!   packed-decode cost to ≈ the raw slice walk;
//! * evaluation is sharded by source range into 64-lane batches, run as
//!   `chunks` parts of contiguous batches (one sweep matrix per part)
//!   and concatenated in batch order, so output is byte-identical at any
//!   `chunks`/thread count, and a governed answer is an exact prefix.
//!
//! The wedge-closing triangle count ([`triangle_count`]) reuses the
//! same adjacency seam with the packed skip-table point probes
//! ([`kgq_graph::packed::Run::contains`]) as its galloping
//! intersection primitive.

use crate::automata::{Nfa, Trans};
use crate::bitkernel::{self, Sweep, Transitions};
use crate::expr::{PathExpr, Test};
use crate::govern::{EvalError, Governed, Governor, Interrupt, Ticker};
use crate::parallel::{partitioned, ungoverned};
use kgq_graph::packed::PackedView;
use kgq_graph::{LabelIndex, NodeId, Sym};
use std::fmt;
use std::ops::Range;

/// Cap on label-DFA states: keeps the implicit-state index `v·|Q| + q`
/// inside `u32` for any `u32` node count and bounds the sweep matrix.
pub const MAX_SCALE_STATES: usize = 64;

/// Why an expression cannot take the scale path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScaleError {
    /// The expression uses a feature the scale path does not support
    /// (node tests, property/feature tests, boolean label tests).
    Unsupported(String),
    /// The compiled automaton exceeds [`MAX_SCALE_STATES`].
    TooManyStates(usize),
}

impl fmt::Display for ScaleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScaleError::Unsupported(what) => {
                write!(f, "scale path supports label-only expressions: {what}")
            }
            ScaleError::TooManyStates(n) => {
                write!(
                    f,
                    "automaton has {n} states, above the scale cap {MAX_SCALE_STATES}"
                )
            }
        }
    }
}

impl std::error::Error for ScaleError {}

/// A label-only automaton with ε-closures flattened away: `step[q]`
/// lists the consuming transitions `(dense label, forward?, target)`
/// reachable from `q` through structural ε, and `accepting[q]` says
/// whether `q`'s closure touches the accept state.
#[derive(Clone, Debug)]
pub struct LabelDfa {
    nq: u32,
    start: u32,
    step: Vec<Vec<(u32, bool, u32)>>,
    accepting: Vec<bool>,
    uses_inverse: bool,
}

impl LabelDfa {
    /// Compiles `expr` through the minimized automaton, mapping label
    /// symbols to dense graph label ids via `label_of` (`None` = the
    /// label never occurs in the graph, so the transition is dropped).
    pub fn compile(
        expr: &PathExpr,
        label_of: impl Fn(Sym) -> Option<u32>,
    ) -> Result<LabelDfa, ScaleError> {
        let nfa = Nfa::compile_min(expr).nfa;
        let nq = nfa.state_count();
        if nq > MAX_SCALE_STATES {
            return Err(ScaleError::TooManyStates(nq));
        }
        // ε-closure per state (structural Eps only; the minimized
        // automaton usually has none, but the fallback path may).
        let mut closures: Vec<Vec<u32>> = Vec::with_capacity(nq);
        for q0 in 0..nq as u32 {
            let mut seen = vec![false; nq];
            let mut stack = vec![q0];
            seen[q0 as usize] = true;
            while let Some(q) = stack.pop() {
                for &(t, to) in &nfa.edges[q as usize] {
                    if t == Trans::Eps && !seen[to as usize] {
                        seen[to as usize] = true;
                        stack.push(to);
                    }
                }
            }
            closures.push((0..nq as u32).filter(|&q| seen[q as usize]).collect());
        }
        let label_sym = |t: u32| -> Result<Sym, ScaleError> {
            match &nfa.tests[t as usize] {
                Test::Label(l) => Ok(*l),
                other => Err(ScaleError::Unsupported(format!(
                    "edge test {other:?} is not a plain label"
                ))),
            }
        };
        let mut step = Vec::with_capacity(nq);
        let mut accepting = Vec::with_capacity(nq);
        let mut uses_inverse = false;
        for q in 0..nq {
            let mut out: Vec<(u32, bool, u32)> = Vec::new();
            for &qc in &closures[q] {
                for &(t, to) in &nfa.edges[qc as usize] {
                    match t {
                        Trans::Eps => {}
                        Trans::Node(_) => {
                            return Err(ScaleError::Unsupported(
                                "node tests (`?t`) are not label steps".into(),
                            ))
                        }
                        Trans::Fwd(i) => {
                            if let Some(l) = label_of(label_sym(i)?) {
                                out.push((l, true, to));
                            }
                        }
                        Trans::Bwd(i) => {
                            if let Some(l) = label_of(label_sym(i)?) {
                                uses_inverse = true;
                                out.push((l, false, to));
                            }
                        }
                    }
                }
            }
            out.sort_unstable();
            out.dedup();
            accepting.push(closures[q].contains(&nfa.accept));
            step.push(out);
        }
        Ok(LabelDfa {
            nq: nq as u32,
            start: nfa.start,
            step,
            accepting,
            uses_inverse,
        })
    }

    /// Number of automaton states `|Q|`.
    pub fn state_count(&self) -> usize {
        self.nq as usize
    }

    /// Whether any transition steps an edge backwards (`ℓ⁻`).
    pub fn uses_inverse(&self) -> bool {
        self.uses_inverse
    }

    /// Bytes one sweep worker allocates for `n` nodes: the visited
    /// bitmask matrix plus the queued bitset. This is what
    /// [`ScaleEvaluator::pairs_governed`] charges per worker up front.
    pub fn sweep_bytes(&self, n: u32) -> u64 {
        bitkernel::sweep_bytes(n as u64 * self.nq as u64)
    }
}

/// The adjacency seam the scale sweep steps on: either raw
/// [`LabelIndex`] slices or packed runs decoded into a reused scratch
/// buffer — one decode per `(node, label)` expansion, shared by all 64
/// lanes of the batch.
pub trait LabelAdjacency: Sync {
    /// Number of nodes.
    fn node_count(&self) -> u32;
    /// Appends the out-neighbors of `v` under dense label `l`.
    fn out_into(&self, v: u32, l: u32, buf: &mut Vec<u32>);
    /// Appends the in-neighbors of `v` under dense label `l`.
    fn in_into(&self, v: u32, l: u32, buf: &mut Vec<u32>);
    /// Point probe: is `v --l--> x` an edge?
    fn contains_out(&self, v: u32, l: u32, x: u32) -> bool;
}

/// [`LabelAdjacency`] over the raw flat [`LabelIndex`].
pub struct RawAdjacency<'a>(pub &'a LabelIndex);

impl LabelAdjacency for RawAdjacency<'_> {
    fn node_count(&self) -> u32 {
        self.0.node_count() as u32
    }
    #[inline]
    fn out_into(&self, v: u32, l: u32, buf: &mut Vec<u32>) {
        buf.extend(
            self.0
                .out_with_dense(NodeId(v), l)
                .iter()
                .map(|&(_, _, d)| d.0),
        );
    }
    #[inline]
    fn in_into(&self, v: u32, l: u32, buf: &mut Vec<u32>) {
        buf.extend(
            self.0
                .in_with_dense(NodeId(v), l)
                .iter()
                .map(|&(_, _, s)| s.0),
        );
    }
    fn contains_out(&self, v: u32, l: u32, x: u32) -> bool {
        self.0
            .out_with_dense(NodeId(v), l)
            .iter()
            .any(|&(_, _, d)| d.0 == x)
    }
}

/// [`LabelAdjacency`] over a packed blob (owned or mmap'd).
pub struct PackedAdjacency<'a>(pub PackedView<'a>);

impl LabelAdjacency for PackedAdjacency<'_> {
    fn node_count(&self) -> u32 {
        self.0.node_count() as u32
    }
    #[inline]
    fn out_into(&self, v: u32, l: u32, buf: &mut Vec<u32>) {
        self.0.decode_out_into(v, l, buf);
    }
    #[inline]
    fn in_into(&self, v: u32, l: u32, buf: &mut Vec<u32>) {
        self.0.decode_in_into(v, l, buf);
    }
    fn contains_out(&self, v: u32, l: u32, x: u32) -> bool {
        self.0.out_run(v, l).is_some_and(|r| r.contains(x))
    }
}

/// A label automaton's implicit product over an adjacency: state
/// `v·|Q| + q`, nothing built. An expansion decodes each `(node, label)`
/// run once for all 64 lanes and charges its neighbours + 1.
struct Implicit<'a, A> {
    adj: &'a A,
    dfa: &'a LabelDfa,
}

impl<A: LabelAdjacency> Transitions for Implicit<'_, A> {
    fn state_count(&self) -> usize {
        self.adj.node_count() as usize * self.dfa.nq as usize
    }

    fn starts(&self, v: u32, mut f: impl FnMut(u32)) {
        f(v * self.dfa.nq + self.dfa.start);
    }

    #[inline]
    fn expand(
        &self,
        s: u32,
        buf: &mut Vec<u32>,
        ticker: &mut Ticker<'_>,
        mut f: impl FnMut(u32),
    ) -> Result<(), Interrupt> {
        let nq = self.dfa.nq;
        let (v, q) = (s / nq, s % nq);
        for &(l, fwd, q2) in &self.dfa.step[q as usize] {
            buf.clear();
            if fwd {
                self.adj.out_into(v, l, buf);
            } else {
                self.adj.in_into(v, l, buf);
            }
            ticker.tick_n(buf.len() as u32 + 1)?;
            buf.iter().for_each(|&w| f(w * nq + q2));
        }
        Ok(())
    }

    fn accepting(&self, reached: &[u32], mut f: impl FnMut(u32)) {
        let nq = self.dfa.nq;
        for &s in reached
            .iter()
            .filter(|&&s| self.dfa.accepting[(s % nq) as usize])
        {
            f(s);
        }
    }

    fn accepting_by_node(&self, reached: &mut [u32], mut f: impl FnMut(u32, u32)) {
        // `v·|Q| + q` ascends with the node.
        reached.sort_unstable();
        self.accepting(reached, |s| f(s / self.dfa.nq, s));
    }
}

/// Sharded evaluator: a [`LabelDfa`] over a [`LabelAdjacency`].
pub struct ScaleEvaluator<'a, A: LabelAdjacency> {
    adj: &'a A,
    dfa: LabelDfa,
}

impl<'a, A: LabelAdjacency> ScaleEvaluator<'a, A> {
    /// Pairs an adjacency with a compiled label automaton.
    pub fn new(adj: &'a A, dfa: LabelDfa) -> Self {
        ScaleEvaluator { adj, dfa }
    }

    /// The compiled automaton.
    pub fn dfa(&self) -> &LabelDfa {
        &self.dfa
    }

    /// All `(source, target)` pairs with `source ∈ sources`, evaluated
    /// in 64-lane batches over `chunks` workers. Output is concatenated
    /// in batch order: byte-identical for every `chunks` value.
    pub fn pairs(&self, sources: Range<u32>, chunks: usize) -> Vec<(u32, u32)> {
        ungoverned(self.scan(sources, chunks, None, pairs_of))
    }

    /// Governed [`ScaleEvaluator::pairs`]: exact-prefix results, with
    /// the sweep matrix charged to the memory budget per worker.
    pub fn pairs_governed(
        &self,
        sources: Range<u32>,
        chunks: usize,
        gov: &Governor,
    ) -> Result<Governed<Vec<(u32, u32)>>, EvalError> {
        self.scan(sources, chunks, Some(gov), pairs_of)
    }

    /// Sources in `sources` that start at least one matching path.
    pub fn matching_starts(&self, sources: Range<u32>, chunks: usize) -> Vec<u32> {
        ungoverned(self.scan(sources, chunks, None, starts_of))
    }

    /// Governed [`ScaleEvaluator::matching_starts`].
    pub fn matching_starts_governed(
        &self,
        sources: Range<u32>,
        chunks: usize,
        gov: &Governor,
    ) -> Result<Governed<Vec<u32>>, EvalError> {
        self.scan(sources, chunks, Some(gov), starts_of)
    }

    /// The scale route of [`bitkernel::scan`]: `chunks` parts of
    /// contiguous batches, each with one sweep matrix.
    fn scan<T: Send>(
        &self,
        sources: Range<u32>,
        chunks: usize,
        gov: Option<&Governor>,
        emit: impl Fn(&mut Sweep, &Implicit<'_, A>, &mut Vec<T>) + Sync,
    ) -> Result<Governed<Vec<T>>, EvalError> {
        let n = self.adj.node_count();
        let src = Implicit {
            adj: self.adj,
            dfa: &self.dfa,
        };
        bitkernel::scan(
            &src,
            sources.start.min(n)..sources.end.min(n),
            chunks,
            gov,
            emit,
        )
    }
}

fn pairs_of<A: LabelAdjacency>(
    sweep: &mut Sweep,
    src: &Implicit<'_, A>,
    out: &mut Vec<(u32, u32)>,
) {
    sweep.pairs_into(src, out, |a, b| (a, b));
}

fn starts_of<A: LabelAdjacency>(sweep: &mut Sweep, src: &Implicit<'_, A>, out: &mut Vec<u32>) {
    sweep.starts_into(src, out, |a| a);
}

/// Result of [`triangle_count`]: the total plus the first few matches.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TriangleCount {
    /// Number of `(a, b, c)` triples matching the wedge pattern.
    pub count: u64,
    /// The first matches in `a`-ascending order, capped by the caller.
    pub sample: Vec<(u32, u32, u32)>,
}

/// Closes wedges for one apex `a`: every `b ∈ out(a, l_ab)` and
/// `c ∈ out(b, l_bc)` with the closing edge `a --l_ac--> c` probed via
/// [`LabelAdjacency::contains_out`] (a skip-table gallop on packed
/// adjacency). Trips mid-apex leave `tc` untouched by the caller's
/// rollback.
#[allow(clippy::too_many_arguments)]
fn close_wedges<A: LabelAdjacency>(
    adj: &A,
    a: u32,
    (l_ab, l_bc, l_ac): (u32, u32, u32),
    bufb: &mut Vec<u32>,
    bufc: &mut Vec<u32>,
    ticker: &mut Ticker<'_>,
    gov: &Governor,
    scratch_hw: &mut u64,
    tc: &mut TriangleCount,
    sample_cap: usize,
) -> Result<(), Interrupt> {
    // The two decode buffers are reused across apexes: charge only
    // growth past the peak so far, mirroring their real footprint.
    let charge_scratch = |bufb: &Vec<u32>, bufc: &Vec<u32>, hw: &mut u64| {
        let cur = (bufb.len() + bufc.len()) as u64 * 4;
        if cur > *hw {
            let grown = cur - *hw;
            *hw = cur;
            gov.charge_memory(grown)
        } else {
            Ok(())
        }
    };
    bufb.clear();
    adj.out_into(a, l_ab, bufb);
    ticker.tick_n(bufb.len() as u32 + 1)?;
    charge_scratch(bufb, bufc, scratch_hw)?;
    for i in 0..bufb.len() {
        let b = bufb[i];
        bufc.clear();
        adj.out_into(b, l_bc, bufc);
        ticker.tick_n(bufc.len() as u32 + 1)?;
        charge_scratch(bufb, bufc, scratch_hw)?;
        for k in 0..bufc.len() {
            let c = bufc[k];
            if adj.contains_out(a, l_ac, c) {
                tc.count += 1;
                if tc.sample.len() < sample_cap {
                    tc.sample.push((a, b, c));
                }
            }
        }
    }
    Ok(())
}

/// Counts the labeled triangle pattern `a --l_ab--> b --l_bc--> c` with
/// closing edge `a --l_ac--> c`, for apexes `a ∈ arange`, sharded into
/// `chunks` contiguous apex ranges. The count and the (capped) sample
/// are identical for every `chunks` value; under a tripping governor
/// the result is an exact prefix ending on an apex boundary.
pub fn triangle_count<A: LabelAdjacency>(
    adj: &A,
    labels: (u32, u32, u32),
    arange: Range<u32>,
    chunks: usize,
    gov: &Governor,
    sample_cap: usize,
) -> Result<Governed<TriangleCount>, EvalError> {
    let n = adj.node_count();
    let arange = arange.start.min(n)..arange.end.min(n);
    let parts = partitioned(arange.len(), chunks, Some(gov), false, |apexes, out| {
        let mut ticker = Ticker::new(gov);
        let mut scratch_hw = 0u64;
        let (mut bufb, mut bufc) = (Vec::new(), Vec::new());
        let mut tc = TriangleCount::default();
        let mut closed = Ok(());
        for off in apexes {
            let a = arange.start + off as u32;
            let (count0, sample0) = (tc.count, tc.sample.len());
            closed = gov.trip_state().map_or(Ok(()), Err).and_then(|()| {
                close_wedges(
                    adj,
                    a,
                    labels,
                    &mut bufb,
                    &mut bufc,
                    &mut ticker,
                    gov,
                    &mut scratch_hw,
                    &mut tc,
                    sample_cap,
                )
            });
            if closed.is_err() {
                // Roll the partial apex back so the prefix ends on an
                // apex boundary.
                tc.count = count0;
                tc.sample.truncate(sample0);
                break;
            }
        }
        // The last < `Ticker::BATCH` steps are charged once the part's
        // apexes are done, so a trip here keeps every one of them.
        if closed.is_ok() {
            closed = ticker.flush();
        }
        gov.release_memory(scratch_hw);
        out.push(tc);
        closed
    })?;
    Ok(parts.map(|parts| {
        let mut total = TriangleCount::default();
        for tc in parts {
            total.count += tc.count;
            let room = sample_cap - total.sample.len();
            total.sample.extend(tc.sample.into_iter().take(room));
        }
        total
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_pairs;
    use crate::govern::Budget;
    use crate::model::LabeledView;
    use crate::parser::parse_expr;
    use kgq_graph::generate::gnm_labeled;
    use kgq_graph::{LabeledGraph, PackedLabelIndex};

    fn test_graph(seed: u64) -> LabeledGraph {
        gnm_labeled(60, 240, &["node"], &["a", "b", "c"], seed)
    }

    fn dfa_for(g: &mut LabeledGraph, idx: &LabelIndex, expr_src: &str) -> LabelDfa {
        let expr = parse_expr(expr_src, g.consts_mut()).expect("parse");
        LabelDfa::compile(&expr, |s| idx.dense_id(s)).expect("compile")
    }

    #[test]
    fn label_dfa_rejects_node_tests_and_accepts_label_algebra() {
        let mut g = test_graph(1);
        let idx = LabelIndex::build(&g);
        for src in ["a", "a/b", "(a+b)*/c", "a^-/b", "a*"] {
            let expr = parse_expr(src, g.consts_mut()).expect("parse");
            assert!(
                LabelDfa::compile(&expr, |s| idx.dense_id(s)).is_ok(),
                "{src} should compile"
            );
        }
        let expr = parse_expr("?node/a", g.consts_mut()).expect("parse");
        assert!(matches!(
            LabelDfa::compile(&expr, |s| idx.dense_id(s)),
            Err(ScaleError::Unsupported(_))
        ));
    }

    #[test]
    fn inverse_flag_tracks_backward_steps() {
        let mut g = test_graph(2);
        let idx = LabelIndex::build(&g);
        assert!(!dfa_for(&mut g, &idx, "a/b*").uses_inverse());
        assert!(dfa_for(&mut g, &idx, "a/b^-").uses_inverse());
    }

    /// Oracle pairs via the product-automaton evaluator, as a sorted set.
    fn oracle_pairs(g: &LabeledGraph, expr_src: &str) -> Vec<(u32, u32)> {
        let mut g = g.clone();
        let expr = parse_expr(expr_src, g.consts_mut()).expect("parse");
        let view = LabeledView::new(&g);
        let mut pairs: Vec<(u32, u32)> = eval_pairs(&view, &expr)
            .into_iter()
            .map(|(s, t)| (s.0, t.0))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    #[test]
    fn raw_and_packed_agree_with_the_product_oracle() {
        for seed in [3, 4, 5] {
            let mut g = test_graph(seed);
            let idx = LabelIndex::build(&g);
            let packed = PackedLabelIndex::from_labeled(&g).expect("pack");
            let n = g.node_count() as u32;
            for src in ["a", "a/b", "(a+b)*/c", "a/b^-", "c*"] {
                let dfa = dfa_for(&mut g, &idx, src);
                let raw = RawAdjacency(&idx);
                let pview = packed.view();
                let pk = PackedAdjacency(pview);
                let ev_raw = ScaleEvaluator::new(&raw, dfa.clone());
                let ev_pk = ScaleEvaluator::new(&pk, dfa);
                let pairs_raw = ev_raw.pairs(0..n, 1);
                let pairs_pk = ev_pk.pairs(0..n, 1);
                assert_eq!(pairs_raw, pairs_pk, "raw vs packed on {src} seed {seed}");
                let mut sorted = pairs_raw.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted, oracle_pairs(&g, src), "oracle on {src} seed {seed}");
                let starts_raw = ev_raw.matching_starts(0..n, 1);
                let starts_pk = ev_pk.matching_starts(0..n, 1);
                assert_eq!(starts_raw, starts_pk, "starts on {src} seed {seed}");
            }
        }
    }

    #[test]
    fn output_is_byte_identical_across_chunk_counts() {
        let mut g = test_graph(6);
        let idx = LabelIndex::build(&g);
        let packed = PackedLabelIndex::from_labeled(&g).expect("pack");
        let n = g.node_count() as u32;
        let dfa = dfa_for(&mut g, &idx, "(a+b)*/c");
        let pview = packed.view();
        let pk = PackedAdjacency(pview);
        let ev = ScaleEvaluator::new(&pk, dfa);
        let one = ev.pairs(0..n, 1);
        for chunks in [2, 3, 4, 7] {
            assert_eq!(one, ev.pairs(0..n, chunks), "chunks={chunks}");
        }
        let starts = ev.matching_starts(0..n, 1);
        for chunks in [2, 4] {
            assert_eq!(starts, ev.matching_starts(0..n, chunks), "chunks={chunks}");
        }
    }

    #[test]
    fn governed_results_truncate_to_an_exact_prefix() {
        // Five 64-source batches, so chunks 2 and 4 really split them.
        let mut g = gnm_labeled(300, 900, &["node"], &["a", "b", "c"], 7);
        let idx = LabelIndex::build(&g);
        let packed = PackedLabelIndex::from_labeled(&g).expect("pack");
        let n = g.node_count() as u32;
        let dfa = dfa_for(&mut g, &idx, "(a+b)*/c");
        let raw = RawAdjacency(&idx);
        let pk = PackedAdjacency(packed.view());
        check_prefixes("raw", &ScaleEvaluator::new(&raw, dfa.clone()), n);
        check_prefixes("packed", &ScaleEvaluator::new(&pk, dfa), n);
    }

    fn check_prefixes<A: LabelAdjacency>(name: &str, ev: &ScaleEvaluator<'_, A>, n: u32) {
        let full = ev.pairs(0..n, 1);
        assert!(full.len() > 8, "need enough answers to truncate");
        for chunks in [1, 2, 4] {
            let at = format!("{name} chunks={chunks}");
            let budget = Budget::unlimited().with_max_results(5);
            let got = ev
                .pairs_governed(0..n, chunks, &Governor::new(&budget))
                .expect("governed");
            assert!(got.is_partial(), "{at}");
            assert!(full.starts_with(&got.value), "{at}");
            // Parts running side by side share the result budget, so only
            // a lone part is sure to reach all five.
            if chunks == 1 {
                assert_eq!(got.value, full[..5].to_vec(), "{at}: exact 5-pair prefix");
            }
            assert!(got.value.len() <= 5, "{at}");
            // A step budget trips mid-sweep: the result is a
            // batch-boundary prefix of the full answer.
            let budget = Budget::unlimited().with_max_steps(40);
            let got = ev
                .pairs_governed(0..n, chunks, &Governor::new(&budget))
                .expect("governed");
            assert!(got.is_partial(), "{at}");
            assert!(full.starts_with(&got.value), "{at}");
        }
    }

    /// An adjacency that panics when asked for the neighbors of one node.
    struct PanicsAt<'a>(RawAdjacency<'a>, u32);

    impl LabelAdjacency for PanicsAt<'_> {
        fn node_count(&self) -> u32 {
            self.0.node_count()
        }
        fn out_into(&self, v: u32, l: u32, buf: &mut Vec<u32>) {
            assert!(v != self.1, "adjacency fault at node {v}");
            self.0.out_into(v, l, buf);
        }
        fn in_into(&self, v: u32, l: u32, buf: &mut Vec<u32>) {
            self.0.in_into(v, l, buf);
        }
        fn contains_out(&self, v: u32, l: u32, x: u32) -> bool {
            self.0.contains_out(v, l, x)
        }
    }

    #[test]
    fn a_worker_panic_is_never_an_empty_answer() {
        let mut g = gnm_labeled(200, 600, &["node"], &["a", "b", "c"], 10);
        let idx = LabelIndex::build(&g);
        let n = g.node_count() as u32;
        let dfa = dfa_for(&mut g, &idx, "(a+b)*/c");
        let adj = PanicsAt(RawAdjacency(&idx), 150);
        let ev = ScaleEvaluator::new(&adj, dfa);
        let panicked = |f: &dyn Fn()| {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
                .expect_err("the ungoverned entry must panic");
            crate::govern::panic_message(&*payload)
        };
        for chunks in [1, 2, 4] {
            let msg = panicked(&|| drop(ev.pairs(0..n, chunks)));
            assert_eq!(msg, "adjacency fault at node 150", "pairs chunks={chunks}");
            let msg = panicked(&|| drop(ev.matching_starts(0..n, chunks)));
            assert_eq!(msg, "adjacency fault at node 150", "starts chunks={chunks}");
            let gov = Governor::unlimited();
            let want = Err(EvalError::Panic("adjacency fault at node 150".into()));
            assert_eq!(ev.pairs_governed(0..n, chunks, &gov).map(|g| g.value), want);
            let want = Err(EvalError::Panic("adjacency fault at node 150".into()));
            let got = ev.matching_starts_governed(0..n, chunks, &gov);
            assert_eq!(got.map(|g| g.value), want);
        }
    }

    #[test]
    fn sweep_memory_budget_trips_before_allocation() {
        let mut g = test_graph(8);
        let idx = LabelIndex::build(&g);
        let n = g.node_count() as u32;
        let dfa = dfa_for(&mut g, &idx, "a/b");
        let need = dfa.sweep_bytes(n);
        let raw = RawAdjacency(&idx);
        let ev = ScaleEvaluator::new(&raw, dfa);
        let budget = Budget::unlimited().with_max_memory(need / 2);
        let got = ev
            .pairs_governed(0..n, 1, &Governor::new(&budget))
            .expect("governed");
        assert!(got.is_partial());
        assert!(got.value.is_empty());
    }

    /// Brute-force triangle oracle over the raw adjacency.
    fn oracle_triangles(idx: &LabelIndex, labels: (u32, u32, u32), n: u32) -> u64 {
        let raw = RawAdjacency(idx);
        let (mut count, mut bb, mut bc) = (0u64, Vec::new(), Vec::new());
        for a in 0..n {
            bb.clear();
            raw.out_into(a, labels.0, &mut bb);
            for &b in &bb {
                bc.clear();
                raw.out_into(b, labels.1, &mut bc);
                for &c in &bc {
                    if raw.contains_out(a, labels.2, c) {
                        count += 1;
                    }
                }
            }
        }
        count
    }

    #[test]
    fn triangle_count_matches_brute_force_at_any_chunking() {
        let g = test_graph(9);
        let idx = LabelIndex::build(&g);
        let packed = PackedLabelIndex::from_labeled(&g).expect("pack");
        let n = g.node_count() as u32;
        let la = idx.dense_id(g.consts().get("a").expect("a")).expect("a");
        let lb = idx.dense_id(g.consts().get("b").expect("b")).expect("b");
        let lc = idx.dense_id(g.consts().get("c").expect("c")).expect("c");
        let labels = (la, lb, lc);
        let expect = oracle_triangles(&idx, labels, n);
        let pview = packed.view();
        let pk = PackedAdjacency(pview);
        let gov = Governor::unlimited();
        let base = triangle_count(&pk, labels, 0..n, 1, &gov, 8).expect("count");
        assert!(base.completion.is_complete());
        assert_eq!(base.value.count, expect);
        for chunks in [2, 4] {
            let got = triangle_count(&pk, labels, 0..n, chunks, &gov, 8).expect("count");
            assert_eq!(got.value, base.value, "chunks={chunks}");
        }
        // Raw adjacency agrees too.
        let raw = RawAdjacency(&idx);
        let got = triangle_count(&raw, labels, 0..n, 2, &gov, 8).expect("count");
        assert_eq!(got.value, base.value);
    }

    #[test]
    fn chunk_bounds_partition_exactly() {
        // The batch and apex ranges the sweeps and triangle_count hand
        // their parts tile `0..len` in order, with no gaps or overlap.
        for len in [0usize, 1, 63, 64, 65, 1000] {
            for chunks in [1usize, 2, 3, 7] {
                let parts = ungoverned(partitioned(len, chunks, None, false, |r, out| {
                    out.push(r);
                    Ok(())
                }));
                assert_eq!(parts.len(), chunks.min(len), "len={len} chunks={chunks}");
                let mut covered = 0;
                for r in parts {
                    assert_eq!(r.start, covered);
                    covered = r.end;
                }
                assert_eq!(covered, len);
            }
        }
    }

    #[test]
    fn a_step_tripped_triangle_count_is_a_prefix() {
        let g = gnm_labeled(600, 6000, &["node"], &["a", "b", "c"], 11);
        let idx = LabelIndex::build(&g);
        let packed = PackedLabelIndex::from_labeled(&g).expect("pack");
        let n = g.node_count() as u32;
        let dense = |l: &str| idx.dense_id(g.consts().get(l).expect(l)).expect(l);
        let labels = (dense("a"), dense("b"), dense("c"));
        let pk = PackedAdjacency(packed.view());
        let full = triangle_count(&pk, labels, 0..n, 1, &Governor::unlimited(), 8).expect("count");
        assert!(full.value.count > 0, "need triangles to cut");
        for chunks in [1, 2, 4] {
            let gov = Governor::new(&Budget::unlimited().with_max_steps(500));
            let got = triangle_count(&pk, labels, 0..n, chunks, &gov, 8).expect("count");
            assert_eq!(
                got.completion,
                crate::govern::Completion::Partial(Interrupt::StepBudget),
                "chunks={chunks}"
            );
            assert!(got.value.count <= full.value.count, "chunks={chunks}");
            assert!(
                full.value.sample.starts_with(&got.value.sample),
                "chunks={chunks}"
            );
        }
    }
}
