//! Regular path query evaluation: reachability, node extraction, witnesses.
//!
//! These are the "local properties" and "connectivity" functionalities of
//! the paper's Section 2.1 / 4: which nodes start a matching path, which
//! pairs `(start, end)` are connected by one, and a concrete shortest
//! witness path. All run over the nondeterministic [`Product`] in time
//! polynomial in the product size (no determinization needed, since only
//! existence — not counting — is asked).
//!
//! Multi-source scans ([`Evaluator::pairs`], [`Evaluator::matching_starts`])
//! run the bit-parallel sweep over the product's deduplicated successor
//! CSR: each pass advances 64 BFS sources at once (see
//! [`crate::bitkernel`]), and batches fan out across threads (see
//! [`crate::parallel`]). Batch results are concatenated in source order,
//! so the output is byte-identical to the per-source
//! sequential references ([`Evaluator::pairs_sequential`],
//! [`Evaluator::matching_starts_sequential`]) regardless of thread count.
//! Point lookups ([`Evaluator::check`], [`Evaluator::shortest_witness`])
//! instead search the product itself bidirectionally — forward from the
//! source's initial states over `out`, backward from the accepting states
//! at the target over `preds` — meeting in the middle.
//!
//! Expressions are compiled through [`Nfa::compile_min`]: the minimized
//! automaton has no ε-skeleton and (usually) fewer states, which shrinks
//! the product every scan runs over.

use crate::automata::Nfa;
use crate::bitkernel::{self, ProductSteps, ReachKernel, Sweep, BATCH};
use crate::expr::PathExpr;
use crate::govern::{fault_point, EvalError, Governed, Governor};
use crate::model::PathGraph;
use crate::parallel::ungoverned;
use crate::path::Path;
use crate::product::{PState, Product};
use kgq_graph::{EdgeId, NodeId};
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

/// Compiled evaluator for one expression over one graph.
///
/// Holds the product behind an [`Arc`] so a [`crate::cache::QueryCache`]
/// hit can share an already-built product without copying it. The
/// reachability kernel is derived lazily on first multi-source scan and
/// reused afterwards.
pub struct Evaluator {
    product: Arc<Product>,
    kernel: OnceLock<ReachKernel>,
}

impl Evaluator {
    /// Compiles `expr` (through minimization) and builds the product
    /// with `g`.
    pub fn new<G: PathGraph>(g: &G, expr: &PathExpr) -> Evaluator {
        let nfa = Nfa::compile_min(expr).nfa;
        Evaluator::from_product(Arc::new(Product::build(g, &nfa)))
    }

    /// Wraps an already-built (possibly cached) product.
    pub fn from_product(product: Arc<Product>) -> Evaluator {
        Evaluator {
            product,
            kernel: OnceLock::new(),
        }
    }

    /// Access to the underlying product automaton.
    pub fn product(&self) -> &Product {
        &self.product
    }

    /// The product as shared with a [`crate::cache::QueryCache`] entry.
    pub(crate) fn shared_product(&self) -> &Arc<Product> {
        &self.product
    }

    /// The bit-parallel reachability kernel, built on first use.
    pub(crate) fn kernel(&self) -> &ReachKernel {
        self.kernel
            .get_or_init(|| ReachKernel::build(&self.product))
    }

    /// Product states reachable (by any number of edge symbols) from the
    /// initial states of `start`.
    fn reachable_from(&self, start: NodeId) -> Vec<bool> {
        let mut seen = vec![false; self.product.state_count()];
        let mut queue: VecDeque<PState> = VecDeque::new();
        for &s in self.product.initial(start) {
            if !seen[s as usize] {
                seen[s as usize] = true;
                queue.push_back(s);
            }
        }
        while let Some(s) = queue.pop_front() {
            for &(_, s2) in self.product.out(s) {
                if !seen[s2 as usize] {
                    seen[s2 as usize] = true;
                    queue.push_back(s2);
                }
            }
        }
        seen
    }

    /// End nodes `b` such that some path `p ∈ ⟦r⟧` has
    /// `start(p) = start ∧ end(p) = b`. Sorted, deduplicated.
    pub fn ends_from(&self, start: NodeId) -> Vec<NodeId> {
        let seen = self.reachable_from(start);
        let mut ends: Vec<NodeId> = seen
            .iter()
            .enumerate()
            .filter(|&(s, &r)| r && self.product.is_accepting(s as PState))
            .map(|(s, _)| self.product.node_of(s as PState))
            .collect();
        ends.sort_unstable();
        ends.dedup();
        ends
    }

    /// True if some matching path runs from `a` to `b`.
    ///
    /// Searches bidirectionally over the product — forward from `a`'s
    /// initial states over `out`, backward from the accepting states at
    /// `b` over `preds` — expanding whichever frontier is cheaper (by
    /// total degree) each round, and answers as soon as the frontiers
    /// meet.
    pub fn check(&self, a: NodeId, b: NodeId) -> bool {
        let p = &*self.product;
        let n = p.state_count();
        let (mut fseen, mut bseen) = (vec![false; n], vec![false; n]);
        let mut bfr: Vec<PState> = self.kernel().accepting_at(b).collect();
        for &s in &bfr {
            bseen[s as usize] = true;
        }
        let mut ffr: Vec<PState> = Vec::new();
        for &s in p.initial(a) {
            if bseen[s as usize] {
                return true; // zero-edge match
            }
            if !fseen[s as usize] {
                fseen[s as usize] = true;
                ffr.push(s);
            }
        }
        // Marks `s2` seen on this side; true once the other side saw it.
        let step = |seen: &mut [bool], other: &[bool], next: &mut Vec<PState>, s2: PState| {
            if !seen[s2 as usize] {
                seen[s2 as usize] = true;
                next.push(s2);
            }
            other[s2 as usize]
        };
        while !ffr.is_empty() && !bfr.is_empty() {
            let fcost: usize = ffr.iter().map(|&s| p.out(s).len()).sum();
            let bcost: usize = bfr.iter().map(|&s| p.preds(s).len()).sum();
            let mut next = Vec::new();
            if fcost <= bcost {
                for &s in &ffr {
                    for &(_, s2) in p.out(s) {
                        if step(&mut fseen, &bseen, &mut next, s2) {
                            return true;
                        }
                    }
                }
                ffr = next;
            } else {
                for &s in &bfr {
                    for &(s2, _) in p.preds(s) {
                        if step(&mut bseen, &fseen, &mut next, s2) {
                            return true;
                        }
                    }
                }
                bfr = next;
            }
        }
        false
    }

    /// All `(start, end)` pairs connected by a matching path.
    ///
    /// Runs on the bit-parallel sweep: 64 sources per pass, passes
    /// fanned out across threads when available. The result is identical
    /// to [`Evaluator::pairs_sequential`] for every thread count.
    pub fn pairs(&self) -> Vec<(NodeId, NodeId)> {
        ungoverned(self.scan(None, emit_pairs))
    }

    /// Governed [`Evaluator::pairs`]: every 64-source sweep runs under
    /// `gov` with its panics isolated, and exhaustion yields a *prefix*
    /// of the full answer (every included batch completed its sweep)
    /// tagged [`crate::govern::Completion::Partial`] with the reason.
    ///
    /// With an unlimited governor the value is byte-identical to
    /// [`Evaluator::pairs`] at every thread count.
    pub fn pairs_governed(
        &self,
        gov: &Governor,
    ) -> Result<Governed<Vec<(NodeId, NodeId)>>, EvalError> {
        self.scan(Some(gov), emit_pairs)
    }

    /// Node extraction (§4.3): all nodes that *start* a matching path.
    ///
    /// Runs on the bit-parallel sweep, with output identical to
    /// [`Evaluator::matching_starts_sequential`].
    pub fn matching_starts(&self) -> Vec<NodeId> {
        ungoverned(self.scan(None, emit_starts))
    }

    /// Governed [`Evaluator::matching_starts`]; same partial-prefix
    /// contract as [`Evaluator::pairs_governed`].
    pub fn matching_starts_governed(
        &self,
        gov: &Governor,
    ) -> Result<Governed<Vec<NodeId>>, EvalError> {
        self.scan(Some(gov), emit_starts)
    }

    /// The product route of [`bitkernel::scan`]: one part per
    /// [`BATCH`]-sized chunk of the node range, so under a governor each
    /// batch's answers are admitted as it lands.
    fn scan<T: Send>(
        &self,
        gov: Option<&Governor>,
        emit: impl Fn(&mut Sweep, &ProductSteps<'_>, &mut Vec<T>) + Sync,
    ) -> Result<Governed<Vec<T>>, EvalError> {
        let n = self.product.node_count();
        let src = self.kernel().over(&self.product);
        bitkernel::scan(
            &src,
            0..n as u32,
            n.div_ceil(BATCH),
            gov,
            |sweep, src, out| {
                if gov.is_some() {
                    fault_point!("eval::bfs");
                }
                emit(sweep, src, out)
            },
        )
    }

    /// Single-threaded [`Evaluator::pairs`] (reference implementation).
    pub fn pairs_sequential(&self) -> Vec<(NodeId, NodeId)> {
        let n = self.product.node_count();
        let mut result = Vec::new();
        for v in 0..n as u32 {
            let v = NodeId(v);
            for b in self.ends_from(v) {
                result.push((v, b));
            }
        }
        result
    }

    /// Single-threaded [`Evaluator::matching_starts`].
    pub fn matching_starts_sequential(&self) -> Vec<NodeId> {
        let n = self.product.node_count();
        (0..n as u32)
            .map(NodeId)
            .filter(|&v| !self.ends_from(v).is_empty())
            .collect()
    }

    /// A shortest matching path from `a` to `b`, if any — minimal in the
    /// number of edges, like [`Evaluator::shortest_witness_sequential`]
    /// (the witness itself may differ when several shortest paths exist).
    ///
    /// Searches bidirectionally: forward BFS layers from `a`'s initial
    /// states meet backward BFS layers grown from the accepting states at
    /// `b` over the `preds` CSR, expanding the cheaper frontier each
    /// round, so the explored region is roughly two half-depth balls
    /// instead of one full-depth ball.
    pub fn shortest_witness(&self, a: NodeId, b: NodeId) -> Option<Path> {
        let p = &*self.product;
        // Length-0 path: an accepting initial state of `a` at node `b`.
        for &s in p.initial(a) {
            if p.is_accepting(s) && p.node_of(s) == b {
                return Some(Path {
                    start: a,
                    edges: Vec::new(),
                });
            }
        }
        let n = p.state_count();
        let targets: Vec<PState> = (0..n as PState)
            .filter(|&s| p.is_accepting(s) && p.node_of(s) == b)
            .collect();
        if targets.is_empty() || p.initial(a).is_empty() {
            return None;
        }
        // Distances and parent links for both directions; `fpar` points
        // one step toward `a`, `bpar` one step toward the target.
        let mut fdist: Vec<u32> = vec![u32::MAX; n];
        let mut bdist: Vec<u32> = vec![u32::MAX; n];
        let mut fpar: Vec<Option<(PState, EdgeId)>> = vec![None; n];
        let mut bpar: Vec<Option<(PState, EdgeId)>> = vec![None; n];
        let mut ffr: Vec<PState> = Vec::new();
        let mut bfr: Vec<PState> = Vec::new();
        for &s in &targets {
            bdist[s as usize] = 0;
            bfr.push(s);
        }
        for &s in p.initial(a) {
            if fdist[s as usize] == u32::MAX {
                fdist[s as usize] = 0;
                ffr.push(s);
            }
        }
        // Initial-state targets were the length-0 case above; any other
        // meet is found when the second side discovers the state.
        let mut best: Option<(u32, PState)> = None;
        while !ffr.is_empty() && !bfr.is_empty() {
            // A future meet is discovered by one side expanding past its
            // current layer, so it costs at least one more than that
            // layer's depth; once the best found path is no longer
            // beatable, stop.
            if let Some((d, _)) = best {
                let fl = fdist[ffr[0] as usize];
                let bl = bdist[bfr[0] as usize];
                if d <= fl.min(bl) + 1 {
                    break;
                }
            }
            let fcost: usize = ffr.iter().map(|&s| p.out(s).len()).sum();
            let bcost: usize = bfr.iter().map(|&s| p.preds(s).len()).sum();
            if fcost <= bcost {
                let mut next = Vec::new();
                for &s in &ffr {
                    for &(e, s2) in p.out(s) {
                        if fdist[s2 as usize] == u32::MAX {
                            fdist[s2 as usize] = fdist[s as usize] + 1;
                            fpar[s2 as usize] = Some((s, e));
                            if bdist[s2 as usize] != u32::MAX {
                                let total = fdist[s2 as usize] + bdist[s2 as usize];
                                if best.is_none_or(|(d, _)| total < d) {
                                    best = Some((total, s2));
                                }
                            }
                            next.push(s2);
                        }
                    }
                }
                ffr = next;
            } else {
                let mut next = Vec::new();
                for &s in &bfr {
                    for &(s2, e) in p.preds(s) {
                        if bdist[s2 as usize] == u32::MAX {
                            bdist[s2 as usize] = bdist[s as usize] + 1;
                            bpar[s2 as usize] = Some((s, e));
                            if fdist[s2 as usize] != u32::MAX {
                                let total = fdist[s2 as usize] + bdist[s2 as usize];
                                if best.is_none_or(|(d, _)| total < d) {
                                    best = Some((total, s2));
                                }
                            }
                            next.push(s2);
                        }
                    }
                }
                bfr = next;
            }
        }
        let (_, meet) = best?;
        let mut edges = Vec::new();
        let mut cur = meet;
        while let Some((prev, e)) = fpar[cur as usize] {
            edges.push(e);
            cur = prev;
        }
        edges.reverse();
        let mut cur = meet;
        while let Some((next, e)) = bpar[cur as usize] {
            edges.push(e);
            cur = next;
        }
        Some(Path { start: a, edges })
    }

    /// Reference [`Evaluator::shortest_witness`]: plain forward BFS over
    /// the product. Used to validate the bidirectional search (both must
    /// agree on existence and length; the concrete witness may differ).
    pub fn shortest_witness_sequential(&self, a: NodeId, b: NodeId) -> Option<Path> {
        let mut parent: Vec<Option<(PState, EdgeId)>> = vec![None; self.product.state_count()];
        let mut seen = vec![false; self.product.state_count()];
        let mut queue: VecDeque<PState> = VecDeque::new();
        for &s in self.product.initial(a) {
            if !seen[s as usize] {
                seen[s as usize] = true;
                queue.push_back(s);
            }
        }
        let mut found: Option<PState> = None;
        // Check immediate acceptance (length-0 path).
        for &s in self.product.initial(a) {
            if self.product.is_accepting(s) && self.product.node_of(s) == b {
                found = Some(s);
            }
        }
        while found.is_none() {
            let s = queue.pop_front()?;
            for &(e, s2) in self.product.out(s) {
                if !seen[s2 as usize] {
                    seen[s2 as usize] = true;
                    parent[s2 as usize] = Some((s, e));
                    if self.product.is_accepting(s2) && self.product.node_of(s2) == b {
                        found = Some(s2);
                        break;
                    }
                    queue.push_back(s2);
                }
            }
        }
        let mut edges = Vec::new();
        let mut cur = found?;
        while let Some((p, e)) = parent[cur as usize] {
            edges.push(e);
            cur = p;
        }
        edges.reverse();
        Some(Path { start: a, edges })
    }
}

fn emit_pairs(sweep: &mut Sweep, src: &ProductSteps<'_>, out: &mut Vec<(NodeId, NodeId)>) {
    sweep.pairs_into(src, out, |a, b| (NodeId(a), NodeId(b)));
}

fn emit_starts(sweep: &mut Sweep, src: &ProductSteps<'_>, out: &mut Vec<NodeId>) {
    sweep.starts_into(src, out, NodeId);
}

/// All matching paths from `a` to `b` of length at most `max_len`,
/// shortest first (then lexicographic) — the "witness paths" view of a
/// query answer.
pub fn paths_between<G: PathGraph>(
    g: &G,
    expr: &PathExpr,
    a: NodeId,
    b: NodeId,
    max_len: usize,
) -> Vec<Path> {
    crate::enumerate::enumerate_paths_upto(g, expr, max_len)
        .into_iter()
        .filter(|p| p.start == a && p.end(g) == Some(b))
        .collect()
}

/// Convenience: all `(start, end)` pairs for `expr` over `g`.
pub fn eval_pairs<G: PathGraph>(g: &G, expr: &PathExpr) -> Vec<(NodeId, NodeId)> {
    Evaluator::new(g, expr).pairs()
}

/// Convenience: nodes starting a matching path (node extraction).
pub fn matching_starts<G: PathGraph>(g: &G, expr: &PathExpr) -> Vec<NodeId> {
    Evaluator::new(g, expr).matching_starts()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LabeledView, PropertyView};
    use crate::parser::parse_expr;
    use kgq_graph::figures::{figure2_labeled, figure2_property};

    #[test]
    fn paper_query_finds_possibly_infected_riders() {
        // ?person/rides/?bus/rides⁻/?infected — people sharing a bus with
        // an infected person. In Figure 2: n1 and n4 ride bus n3, and the
        // infected n2 also rides n3.
        let mut g = figure2_labeled();
        let expr = parse_expr("?person/rides/?bus/rides^-/?infected", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        let ev = Evaluator::new(&view, &expr);
        let starts = ev.matching_starts();
        let names: Vec<_> = starts.iter().map(|&n| g.node_name(n)).collect();
        assert_eq!(names, vec!["n1", "n4"]);
    }

    #[test]
    fn property_dated_contact_query() {
        // Expression (3): contact on 3/4/21 between a person and infected.
        let mut g = figure2_property();
        let expr = parse_expr(
            "?person/{contact & [date='3/4/21']}/?infected",
            g.labeled_mut().consts_mut(),
        )
        .unwrap();
        let view = PropertyView::new(&g);
        let pairs = eval_pairs(&view, &expr);
        // The only person→infected contact dated 3/4/21 is n4 -e5-> n6
        // (e4 is person→person).
        let lg = g.labeled();
        let rendered: Vec<_> = pairs
            .iter()
            .map(|&(a, b)| (lg.node_name(a), lg.node_name(b)))
            .collect();
        assert_eq!(rendered, vec![("n4", "n6")]);
        // A date with no matching contact yields the empty answer.
        let mut g = figure2_property();
        let expr2 = parse_expr(
            "?person/{contact & [date='3/9/21']}/?infected",
            g.labeled_mut().consts_mut(),
        )
        .unwrap();
        let view = PropertyView::new(&g);
        assert!(eval_pairs(&view, &expr2).is_empty());
    }

    #[test]
    fn star_reaches_transitively() {
        let mut g = figure2_labeled();
        // From n1, follow contact edges any number of times.
        let expr = parse_expr("(contact)*", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        let ev = Evaluator::new(&view, &expr);
        let n1 = g.node_named("n1").unwrap();
        let ends = ev.ends_from(n1);
        let names: Vec<_> = ends.iter().map(|&n| g.node_name(n)).collect();
        // n1 itself (0 steps), n4 (1 step), n6 (2 steps).
        assert_eq!(names, vec!["n1", "n4", "n6"]);
    }

    #[test]
    fn shortest_witness_is_minimal_and_valid() {
        let mut g = figure2_labeled();
        let expr = parse_expr("?person/rides/?bus/rides^-/?infected", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        let ev = Evaluator::new(&view, &expr);
        let n1 = g.node_named("n1").unwrap();
        let n2 = g.node_named("n2").unwrap();
        let p = ev.shortest_witness(n1, n2).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.end(&view), Some(n2));
        assert!(ev.product().accepts(p.start, &p.edges));
        // No witness from the company n7.
        let n7 = g.node_named("n7").unwrap();
        assert!(ev.shortest_witness(n7, n2).is_none());
    }

    #[test]
    fn zero_length_witness() {
        let mut g = figure2_labeled();
        let expr = parse_expr("?bus", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        let ev = Evaluator::new(&view, &expr);
        let n3 = g.node_named("n3").unwrap();
        let p = ev.shortest_witness(n3, n3).unwrap();
        assert!(p.is_empty());
        assert_eq!(ev.matching_starts(), vec![n3]);
    }

    #[test]
    fn check_agrees_with_pairs() {
        let mut g = figure2_labeled();
        let expr = parse_expr("rides/rides^-", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        let ev = Evaluator::new(&view, &expr);
        let pairs = ev.pairs();
        for &(a, b) in &pairs {
            assert!(ev.check(a, b));
        }
        // rides/rides⁻ relates co-riders (including self-pairs).
        let n1 = g.node_named("n1").unwrap();
        let n4 = g.node_named("n4").unwrap();
        assert!(ev.check(n1, n4));
        let n7 = g.node_named("n7").unwrap();
        assert!(!ev.check(n1, n7));
    }

    #[test]
    fn paths_between_lists_witnesses_in_order() {
        let mut g = figure2_labeled();
        let expr = parse_expr("(contact)*", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        let n1 = g.node_named("n1").unwrap();
        let n6 = g.node_named("n6").unwrap();
        let paths = super::paths_between(&view, &expr, n1, n6, 4);
        // Unique contact chain n1 -e4-> n4 -e5-> n6.
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].len(), 2);
        // Same node to itself: the trivial path plus nothing longer.
        let loops = super::paths_between(&view, &expr, n1, n1, 3);
        assert_eq!(loops.len(), 1);
        assert!(loops[0].is_empty());
    }

    #[test]
    fn epidemic_r1_expression_runs() {
        let mut g = figure2_labeled();
        let expr = parse_expr(
            "?infected/rides/?bus/rides^-/(?person/(lives+contact))*/?person",
            g.consts_mut(),
        )
        .unwrap();
        let view = LabeledView::new(&g);
        let ev = Evaluator::new(&view, &expr);
        let starts = ev.matching_starts();
        let names: Vec<_> = starts.iter().map(|&n| g.node_name(n)).collect();
        // Only the infected rider n2 can start such a path.
        assert_eq!(names, vec!["n2"]);
        let n2 = g.node_named("n2").unwrap();
        let ends = ev.ends_from(n2);
        let names: Vec<_> = ends.iter().map(|&n| g.node_name(n)).collect();
        // n2 shares bus n3 with n1 and n4; from n4, lives/contact chains
        // reach n8 (shared address) — wait: lives goes person->address, so
        // ?person/lives ends at an address, not a person; the star only
        // continues from *person* nodes, so valid ends are the co-riders.
        assert!(names.contains(&"n1"));
        assert!(names.contains(&"n4"));
    }
}
