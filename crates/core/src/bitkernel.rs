//! The bit-parallel multi-source sweep behind every RPQ scan.
//!
//! The all-pairs and node-extraction evaluators need the accepting states
//! reachable from *every* source's initial states. Running one BFS per
//! source touches the transitions `n` times; this module instead sweeps
//! **64 sources per pass** (the machine word width, in the style of
//! multi-source BFS): the visited set is a bit-matrix `Vec<u64>` with one
//! word per state, bit `j` meaning "reachable from the batch's `j`-th
//! source", and successor expansion is a single `|=` that advances all 64
//! frontiers at once.
//!
//! The sweep steps on a `Transitions` source, of which there are two:
//! the deduplicated product CSR of a `ReachKernel` (the product route,
//! [`crate::eval::Evaluator`]) and the implicit `v·|Q| + q` states of a
//! label automaton over an adjacency, never materialized (the scale
//! route, [`crate::scale::ScaleEvaluator`]). Both run through `scan`: one
//! propagation loop (`Sweep::run`), one lane-major extraction
//! (`Sweep::pairs_into`, `Sweep::starts_into`), one accounting.
//!
//! Propagation is round-synchronized (level BFS): all 64 frontiers
//! advance together, so a state accumulates every bit arriving in a round
//! *before* its successors are scanned, and one expansion delivers the
//! whole merged mask. A state waits for expansion at most once at a time
//! (one queued bit per state), so the per-state sweep memory is one
//! `u64` plus one bit, reused across the batches of a part and cleared
//! through the list of states the batch touched.
//!
//! Determinism: the final visited matrix is the unique reachability
//! fixpoint, and extraction walks accepting states in node order with
//! lanes in bit order, so output is a pure function of the transitions:
//! sources ascending, then targets ascending, at every thread count and
//! part split.
//!
//! The kernel holds only what the sweep reads: the deduplicated
//! successor CSR and the accepting states by node. Point lookups
//! ([`crate::eval::Evaluator::check`]) search the product itself and
//! borrow only `ReachKernel::accepting_at` to find their targets.

use crate::govern::{EvalError, Governed, Governor, Interrupt, Ticker};
use crate::parallel::partitioned;
use crate::product::{PState, Product};
use kgq_graph::NodeId;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Sources swept per pass: one per bit of the frontier word.
pub const BATCH: usize = 64;

/// Bytes one sweep allocates for `states` states: a lane-mask word per
/// state plus the queued bitset. Touched-list growth is charged on top.
pub(crate) fn sweep_bytes(states: u64) -> u64 {
    states * 8 + states.div_ceil(64) * 8
}

/// What the sweep steps on: states `0..state_count()`, the states a
/// source node starts in, and each state's successors.
pub(crate) trait Transitions: Sync {
    /// Number of states, the rows of the visited matrix.
    fn state_count(&self) -> usize;
    /// Calls `f` on each state source node `v` starts in.
    fn starts(&self, v: u32, f: impl FnMut(u32));
    /// Charges one expansion of `s` to `ticker` and calls `f` on each
    /// successor. `buf` is decode scratch reused across calls.
    fn expand(
        &self,
        s: u32,
        buf: &mut Vec<u32>,
        ticker: &mut Ticker<'_>,
        f: impl FnMut(u32),
    ) -> Result<(), Interrupt>;
    /// Calls `f` on every accepting state that may be among `reached`.
    fn accepting(&self, reached: &[u32], f: impl FnMut(u32));
    /// Calls `f(node, state)` on every accepting state that may be among
    /// `reached`, in ascending node order. May reorder `reached`.
    fn accepting_by_node(&self, reached: &mut [u32], f: impl FnMut(u32, u32));
}

/// Precomputed reachability view of a [`Product`]: deduplicated
/// successor adjacency (edge identities dropped) in flat CSR form, plus
/// the accepting states by node.
pub(crate) struct ReachKernel {
    /// CSR offsets into `succ`.
    succ_off: Vec<u32>,
    /// Distinct successor states, sorted per state.
    succ: Vec<PState>,
    /// Accepting states with their graph nodes, sorted by node.
    accepting_by_node: Vec<(NodeId, PState)>,
}

impl ReachKernel {
    /// Builds the kernel from a product. `O(transitions)`.
    pub(crate) fn build(p: &Product) -> ReachKernel {
        let n = p.state_count();
        let mut succ_off = Vec::with_capacity(n + 1);
        let mut succ = Vec::new();
        succ_off.push(0u32);
        for s in 0..n as PState {
            let mut targets: Vec<PState> = p.out(s).iter().map(|&(_, s2)| s2).collect();
            targets.sort_unstable();
            targets.dedup();
            succ.extend(targets);
            succ_off.push(succ.len() as u32);
        }
        let mut accepting_by_node: Vec<(NodeId, PState)> = (0..n as PState)
            .filter(|&s| p.is_accepting(s))
            .map(|s| (p.node_of(s), s))
            .collect();
        accepting_by_node.sort_unstable();
        ReachKernel {
            succ_off,
            succ,
            accepting_by_node,
        }
    }

    /// Number of product states covered.
    fn state_count(&self) -> usize {
        self.succ_off.len() - 1
    }

    /// Distinct successors of `s`.
    #[inline]
    fn succ(&self, s: PState) -> &[PState] {
        let s = s as usize;
        &self.succ[self.succ_off[s] as usize..self.succ_off[s + 1] as usize]
    }

    /// The accepting states at node `b`, ascending.
    pub(crate) fn accepting_at(&self, b: NodeId) -> impl Iterator<Item = PState> + '_ {
        let lo = self.accepting_by_node.partition_point(|&(v, _)| v < b);
        self.accepting_by_node[lo..]
            .iter()
            .take_while(move |&&(v, _)| v == b)
            .map(|&(_, s)| s)
    }

    /// The kernel as the sweep's transition source over `p`.
    pub(crate) fn over<'a>(&'a self, p: &'a Product) -> ProductSteps<'a> {
        ProductSteps {
            kernel: self,
            product: p,
        }
    }
}

/// The built product as a transition source: the product's initial
/// states, the kernel's deduplicated successors. An expansion charges
/// the state's out-degree.
pub(crate) struct ProductSteps<'a> {
    kernel: &'a ReachKernel,
    product: &'a Product,
}

impl Transitions for ProductSteps<'_> {
    fn state_count(&self) -> usize {
        self.kernel.state_count()
    }

    fn starts(&self, v: u32, mut f: impl FnMut(u32)) {
        self.product.initial(NodeId(v)).iter().for_each(|&s| f(s));
    }

    #[inline]
    fn expand(
        &self,
        s: u32,
        _buf: &mut Vec<u32>,
        ticker: &mut Ticker<'_>,
        mut f: impl FnMut(u32),
    ) -> Result<(), Interrupt> {
        let succ = self.kernel.succ(s);
        ticker.tick_n(succ.len() as u32)?;
        succ.iter().for_each(|&t| f(t));
        Ok(())
    }

    fn accepting(&self, _reached: &[u32], mut f: impl FnMut(u32)) {
        for &(_, s) in &self.kernel.accepting_by_node {
            f(s);
        }
    }

    fn accepting_by_node(&self, _reached: &mut [u32], mut f: impl FnMut(u32, u32)) {
        for &(node, s) in &self.kernel.accepting_by_node {
            f(node.0, s);
        }
    }
}

/// The lane masks and the round's queue.
struct Lanes {
    /// One lane mask per state.
    visited: Vec<u64>,
    /// One bit per state: waiting on `next` or the frontier.
    queued: Vec<u64>,
    /// States with a non-zero mask, for clearing and extraction.
    touched: Vec<u32>,
    /// States to expand next round.
    next: Vec<u32>,
}

impl Lanes {
    /// ORs `bits` into state `t`'s mask and queues `t` if a bit is new
    /// and `t` is not already waiting.
    #[inline]
    fn feed(&mut self, t: u32, bits: u64) {
        let i = t as usize;
        let add = bits & !self.visited[i];
        if add == 0 {
            return;
        }
        if self.visited[i] == 0 {
            self.touched.push(t);
        }
        self.visited[i] |= add;
        if self.queued[i / 64] >> (i % 64) & 1 == 0 {
            self.queued[i / 64] |= 1 << (i % 64);
            self.next.push(t);
        }
    }
}

/// One part's reusable sweep: the lane masks, the frontier, and the
/// extraction scratch of the batch swept last.
pub(crate) struct Sweep {
    lanes: Lanes,
    frontier: Vec<u32>,
    /// Decode scratch for [`Transitions::expand`].
    buf: Vec<u32>,
    /// First source of the batch.
    s0: u32,
    /// Sources in the batch.
    width: usize,
    /// One OR-merged lane mask per node with a reached accepting state.
    masks: Vec<(u32, u64)>,
}

impl Sweep {
    fn new(states: usize) -> Sweep {
        Sweep {
            lanes: Lanes {
                visited: vec![0; states],
                queued: vec![0; states.div_ceil(64)],
                touched: Vec::new(),
                next: Vec::new(),
            },
            frontier: Vec::new(),
            buf: Vec::new(),
            s0: 0,
            width: 0,
            masks: Vec::new(),
        }
    }

    /// Sweeps one batch, lane `j` seeded from the `j`-th source. The
    /// previous batch's marks are cleared first through its touched list
    /// (a memset once it covers an eighth of the states), so a sparse
    /// sweep never pays a `states`-sized clear. A trip aborts the sweep.
    fn run<S: Transitions>(
        &mut self,
        src: &S,
        sources: impl Iterator<Item = u32>,
        ticker: &mut Ticker<'_>,
    ) -> Result<(), Interrupt> {
        let lanes = &mut self.lanes;
        if lanes.touched.len() < lanes.visited.len() / 8 {
            for &t in &lanes.touched {
                lanes.visited[t as usize] = 0;
                lanes.queued[t as usize / 64] = 0;
            }
        } else {
            lanes.visited.fill(0);
            lanes.queued.fill(0);
        }
        lanes.touched.clear();
        lanes.next.clear();
        for (j, v) in sources.enumerate() {
            src.starts(v, |s| lanes.feed(s, 1 << j));
        }
        while !self.lanes.next.is_empty() {
            std::mem::swap(&mut self.frontier, &mut self.lanes.next);
            for &s in &self.frontier {
                let lanes = &mut self.lanes;
                let i = s as usize;
                lanes.queued[i / 64] &= !(1 << (i % 64));
                let bits = lanes.visited[i];
                src.expand(s, &mut self.buf, ticker, |t| lanes.feed(t, bits))?;
            }
            self.frontier.clear();
        }
        ticker.flush()
    }

    /// Appends the batch's `(source, target)` pairs, sources ascending,
    /// then targets ascending. A dense batch scans its node masks once
    /// per lane; a sparse one scatters set bits into per-lane slots.
    pub(crate) fn pairs_into<T: Clone>(
        &mut self,
        src: &impl Transitions,
        out: &mut Vec<T>,
        pair: impl Fn(u32, u32) -> T,
    ) {
        let (visited, masks) = (&self.lanes.visited, &mut self.masks);
        masks.clear();
        let mut accepting = 0;
        src.accepting_by_node(&mut self.lanes.touched, |node, s| {
            accepting += 1;
            let w = visited[s as usize];
            if w == 0 {
                return;
            }
            match masks.last_mut() {
                Some(m) if m.0 == node => m.1 |= w,
                _ => masks.push((node, w)),
            }
        });
        let total: usize = masks.iter().map(|m| m.1.count_ones() as usize).sum();
        out.reserve(total);
        let s0 = self.s0;
        if total * 4 >= self.width * accepting {
            for j in 0..self.width {
                for &(node, w) in masks.iter() {
                    if w >> j & 1 == 1 {
                        out.push(pair(s0 + j as u32, node));
                    }
                }
            }
            return;
        }
        // Sparse: count each lane's targets, then scatter every set bit
        // straight to its slot in the output.
        let mut at = [0usize; BATCH];
        for &(_, w) in masks.iter() {
            let mut m = w;
            while m != 0 {
                at[m.trailing_zeros() as usize] += 1;
                m &= m - 1;
            }
        }
        let mut end = out.len();
        for slot in &mut at[..self.width] {
            (*slot, end) = (end, end + *slot);
        }
        out.resize(end, pair(s0, 0));
        for &(node, w) in masks.iter() {
            let mut m = w;
            while m != 0 {
                let j = m.trailing_zeros() as usize;
                out[at[j]] = pair(s0 + j as u32, node);
                at[j] += 1;
                m &= m - 1;
            }
        }
    }

    /// Appends the batch's sources that reach an accepting state,
    /// ascending.
    pub(crate) fn starts_into<T>(
        &self,
        src: &impl Transitions,
        out: &mut Vec<T>,
        start: impl Fn(u32) -> T,
    ) {
        let mut m = 0u64;
        src.accepting(&self.lanes.touched, |s| m |= self.lanes.visited[s as usize]);
        while m != 0 {
            out.push(start(self.s0 + m.trailing_zeros()));
            m &= m - 1;
        }
    }
}

/// The one multi-source scan: sweeps `sources` in [`BATCH`]-lane batches
/// as `parts` [`partitioned`] parts of contiguous batches, and lets
/// `emit` append each swept batch's answers, in source order at every
/// thread count.
///
/// With `None` no accounting runs at all. Under a governor each part
/// holds its sweep against the memory budget (the matrix up front, the
/// touched list at its high-water mark), expansions tick the step
/// budget, and merged answers are admitted to the result budget: a trip
/// inside a sweep drops that batch, so the answer is an exact prefix of
/// the full one. A part stops early once it holds more answers than the
/// result budget could ever admit.
pub(crate) fn scan<S: Transitions, T: Send>(
    src: &S,
    sources: Range<u32>,
    parts: usize,
    gov: Option<&Governor>,
    emit: impl Fn(&mut Sweep, &S, &mut Vec<T>) + Sync,
) -> Result<Governed<Vec<T>>, EvalError> {
    let states = src.state_count();
    let cap = gov.map_or(u64::MAX, Governor::result_limit);
    // A sweep outlives its part, so a later part reuses the matrix an
    // earlier one cleared; once no part is left to start, a finished
    // part frees its sweep instead of holding it through the merge.
    // Every push and pop leaves the pool valid, so a poisoned lock is
    // recovered; the counter is only a hint (the mutex hands the sweeps
    // over), so a stale read at worst keeps one sweep too long.
    let pool = Mutex::new(Vec::new());
    let pool = || pool.lock().unwrap_or_else(PoisonError::into_inner);
    let nb = sources.len().div_ceil(BATCH);
    let unstarted = AtomicUsize::new(parts.max(1).min(nb));
    partitioned(nb, parts, gov, gov.is_some(), |batches, out| {
        unstarted.fetch_sub(1, Ordering::Relaxed);
        // Record bytes before charging them: the ledger counts a charge
        // even when it trips, and the release must match either way.
        let mut held = 0u64;
        let mut charge = |bytes: u64| {
            held += bytes;
            gov.map_or(Ok(()), |g| g.charge_memory(bytes))
        };
        let swept = charge(sweep_bytes(states as u64)).and_then(|()| {
            let mut sweep = pool().pop().unwrap_or_else(|| Sweep::new(states));
            let mut ticker = Ticker::maybe(gov);
            let mut touched_hw = 0;
            for b in batches {
                if out.len() as u64 > cap {
                    break;
                }
                sweep.s0 = sources.start + (b * BATCH) as u32;
                let s1 = sources.end.min(sweep.s0 + BATCH as u32);
                sweep.width = (s1 - sweep.s0) as usize;
                sweep.run(src, sweep.s0..s1, &mut ticker)?;
                // The touched list is reused scratch: its footprint is
                // the peak across batches, not the sum.
                let bytes = sweep.lanes.touched.len() as u64 * 8;
                if bytes > touched_hw {
                    charge(bytes - touched_hw)?;
                    touched_hw = bytes;
                }
                emit(&mut sweep, src, out);
            }
            if unstarted.load(Ordering::Relaxed) > 0 {
                pool().push(sweep);
            }
            Ok(())
        });
        if let Some(g) = gov {
            g.release_memory(held);
        }
        swept
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Evaluator;
    use crate::govern::Budget;
    use crate::model::LabeledView;
    use crate::parallel::{effective_threads, pin_threads, set_threads};
    use crate::parser::parse_expr;
    use kgq_graph::figures::figure2_labeled;
    use kgq_graph::generate::gnm_labeled;

    fn eval(expr: &str) -> (Evaluator, usize) {
        let mut g = figure2_labeled();
        let e = parse_expr(expr, g.consts_mut()).unwrap();
        let n = g.node_count();
        let view = LabeledView::new(&g);
        (Evaluator::new(&view, &e), n)
    }

    /// The scan over one batch of every source.
    fn one_batch<T: Send>(
        ev: &Evaluator,
        n: usize,
        emit: impl Fn(&mut Sweep, &ProductSteps<'_>, &mut Vec<T>) + Sync,
    ) -> Vec<T> {
        let src = ev.kernel().over(ev.product());
        crate::parallel::ungoverned(scan(&src, 0..n as u32, 1, None, emit))
    }

    #[test]
    fn sweep_matches_per_source_bfs() {
        for expr in [
            "rides/rides^-",
            "(contact)*",
            "?person/rides/?bus/rides^-/?infected",
        ] {
            let (ev, n) = eval(expr);
            let pairs = one_batch(&ev, n, |s, src, out| {
                s.pairs_into(src, out, |a, b| (NodeId(a), NodeId(b)))
            });
            let expect: Vec<(NodeId, NodeId)> = (0..n as u32)
                .flat_map(|a| {
                    ev.ends_from(NodeId(a))
                        .into_iter()
                        .map(move |b| (NodeId(a), b))
                })
                .collect();
            assert_eq!(pairs, expect, "expr {expr}");
        }
    }

    #[test]
    fn batch_matches_flags_exactly_the_matching_starts() {
        let (ev, n) = eval("?person/rides/?bus/rides^-/?infected");
        let starts = one_batch(&ev, n, |s, src, out| s.starts_into(src, out, NodeId));
        assert_eq!(starts, ev.matching_starts_sequential());
    }

    #[test]
    fn bidirectional_check_agrees_with_forward_bfs() {
        for expr in ["(contact)*", "rides/rides^-", "{!rides & !lives}^-"] {
            let (ev, n) = eval(expr);
            for a in 0..n as u32 {
                let ends = ev.ends_from(NodeId(a));
                for b in 0..n as u32 {
                    assert_eq!(
                        ev.check(NodeId(a), NodeId(b)),
                        ends.binary_search(&NodeId(b)).is_ok(),
                        "expr {expr} {a}->{b}"
                    );
                }
            }
        }
    }

    #[test]
    fn governed_sweep_with_unlimited_budget_is_identical() {
        let (ev, n) = eval("(contact + rides/rides^-)*");
        let src = ev.kernel().over(ev.product());
        let matrix = |gov| {
            let swept = scan(&src, 0..n as u32, 1, gov, |s, _, out| {
                out.push(s.lanes.visited.clone())
            });
            swept.unwrap().value
        };
        let gov = Governor::unlimited();
        assert_eq!(matrix(Some(&gov)), matrix(None));
        assert_eq!(gov.memory_used(), 0, "the sweep's matrix is released");
    }

    /// With one thread, batches are admitted as they finish: a result
    /// budget that refuses inside the first batch stops the sweep there,
    /// so the scan spends exactly the steps of sweeping that one batch.
    #[test]
    fn a_result_budget_stops_the_sequential_sweep_at_the_first_refused_batch() {
        let _threads = pin_threads();
        let restore = effective_threads();
        set_threads(1);
        let mut g = gnm_labeled(400, 1600, &["a", "b"], &["p", "q"], 3);
        let e = parse_expr("(p+q)*", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        let ev = Evaluator::new(&view, &e);
        let one_batch = Governor::unlimited();
        let src = ev.kernel().over(ev.product());
        scan(
            &src,
            0..BATCH as u32,
            1,
            Some(&one_batch),
            |_, _, _: &mut Vec<()>| {},
        )
        .unwrap();
        let all_batches = Governor::unlimited();
        ev.pairs_governed(&all_batches).unwrap();
        let capped = Governor::new(&Budget::default().with_max_results(5));
        let res = ev.pairs_governed(&capped).unwrap();
        assert_eq!(res.value, ev.pairs()[..5]);
        assert_eq!(capped.steps_used(), one_batch.steps_used());
        assert!(one_batch.steps_used() < all_batches.steps_used());
        set_threads(restore);
    }
}
