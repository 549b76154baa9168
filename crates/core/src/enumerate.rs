//! Polynomial-delay enumeration of paths (§4.1).
//!
//! "The computation of the answers is divided into a preprocessing phase,
//! where a data structure is built to accelerate the process of computing
//! answers, and then in an enumeration phase, the answers are produced
//! with a polynomial-time delay between them."
//!
//! Preprocessing builds the deterministic product and a *viability table*
//! `viable[j][s]` — can an accepting state be reached from det state `s`
//! in exactly `j` edge symbols? The enumeration phase is a lexicographic
//! DFS that only ever branches into viable subtrees, so every internal
//! step makes progress toward the next answer: the delay between
//! consecutive answers is `O(k · b)` where `b` bounds the branching work
//! at a det state — polynomial, independent of the number of answers
//! already produced. Determinism of the product guarantees each *path* is
//! produced exactly once.

//!
//! Under a [`crate::govern::Governor`], enumeration degrades gracefully:
//! [`enumerate_paths_governed`] returns a truncated lexicographic prefix
//! plus an opaque continuation [`Cursor`] that
//! [`enumerate_paths_resumed`] replays from — repeated resumption yields
//! exactly the full result set, each answer exactly once.

use crate::automata::Nfa;
use crate::expr::PathExpr;
use crate::govern::{fault_point, EvalError, Governed, Governor, Interrupt, Ticker};
use crate::model::PathGraph;
use crate::path::Path;
use crate::product::DetProduct;
use kgq_graph::{EdgeId, NodeId};
use std::fmt;
use std::str::FromStr;

/// Iterator over all paths in `⟦r⟧` of length exactly `k`, in
/// lexicographic `(start node, edge sequence)` order.
pub struct PathEnumerator {
    det: DetProduct,
    k: usize,
    /// `viable[j][s]`: accepting state reachable from `s` in exactly `j`
    /// symbols.
    viable: Vec<Vec<bool>>,
    /// DFS stack: (det state, next transition index to try).
    stack: Vec<(u32, usize)>,
    /// Edges chosen so far (parallel to stack minus the root entry).
    word: Vec<EdgeId>,
    /// Remaining source nodes to process (in increasing order).
    sources: std::vec::IntoIter<NodeId>,
    current_start: Option<NodeId>,
    /// Set when a fresh root has been pushed and, for k = 0, may itself
    /// be an answer.
    emit_root: bool,
    /// Number of graph nodes (source universe), kept for [`Self::seek_after`].
    node_count: usize,
}

impl PathEnumerator {
    /// Preprocessing: builds the det product and viability table.
    pub fn new<G: PathGraph>(g: &G, expr: &PathExpr, k: usize) -> PathEnumerator {
        let nfa = Nfa::compile(expr);
        let det = DetProduct::build(g, &nfa);
        Self::from_det(det, k, g.node_count())
    }

    /// Preprocessing from an existing det product.
    pub fn from_det(det: DetProduct, k: usize, node_count: usize) -> PathEnumerator {
        let m = det.state_count();
        let mut viable = vec![vec![false; m]; k + 1];
        for s in 0..m {
            viable[0][s] = det.is_accepting(s as u32);
        }
        for j in 1..=k {
            for s in 0..m {
                viable[j][s] = det
                    .out(s as u32)
                    .iter()
                    .any(|&(_, s2)| viable[j - 1][s2 as usize]);
            }
        }
        let sources: Vec<NodeId> = (0..node_count as u32).map(NodeId).collect();
        PathEnumerator {
            det,
            k,
            viable,
            stack: Vec::new(),
            word: Vec::new(),
            sources: sources.into_iter(),
            current_start: None,
            emit_root: false,
            node_count,
        }
    }

    /// Repositions the enumerator to the state it had immediately after
    /// emitting `last`, so the next answer is `last`'s lexicographic
    /// successor. This is how a continuation [`Cursor`] resumes: the DFS
    /// stack is reconstructed by replaying `last`'s unique run through
    /// the deterministic product (`O(k log b)`), not by re-enumerating
    /// the prefix.
    pub fn seek_after(&mut self, last: &Path) -> Result<(), CursorError> {
        if last.start.index() >= self.node_count {
            return Err(CursorError::InvalidStart);
        }
        self.stack.clear();
        self.word.clear();
        self.emit_root = false;
        // Sources after `last.start` remain to be visited.
        let rest: Vec<NodeId> = (last.start.0 + 1..self.node_count as u32)
            .map(NodeId)
            .collect();
        self.sources = rest.into_iter();
        if self.k == 0 {
            // A k = 0 emission clears the stack; nothing to rebuild.
            if !last.edges.is_empty() {
                return Err(CursorError::LengthMismatch);
            }
            self.current_start = None;
            return Ok(());
        }
        if last.edges.len() != self.k {
            return Err(CursorError::LengthMismatch);
        }
        let mut s = match self.det.initial(last.start) {
            Some(s) => s,
            None => return Err(CursorError::InvalidStart),
        };
        // Post-emission invariant of `advance`: one stack level per
        // consumed edge, each storing the index *after* the transition
        // taken (the emission already popped the final level), and the
        // word holding all but the last edge.
        for &e in &last.edges {
            let list = self.det.out(s);
            let i = list
                .binary_search_by_key(&e.0, |&(ee, _)| ee.0)
                .map_err(|_| CursorError::InvalidEdge)?;
            self.stack.push((s, i + 1));
            s = list[i].1;
        }
        self.word.extend_from_slice(&last.edges[..self.k - 1]);
        self.current_start = Some(last.start);
        Ok(())
    }

    fn push_root(&mut self) -> bool {
        loop {
            let src = match self.sources.next() {
                Some(s) => s,
                None => return false,
            };
            if let Some(s0) = self.det.initial(src) {
                if self.viable[self.k][s0 as usize] {
                    self.current_start = Some(src);
                    self.stack.clear();
                    self.word.clear();
                    self.stack.push((s0, 0));
                    self.emit_root = true;
                    return true;
                }
            }
        }
    }
}

impl PathEnumerator {
    /// One enumeration step under a [`Ticker`]: produces the next
    /// answer, `None` when exhausted, or the interrupt that stopped it.
    /// The enumerator state stays consistent on interrupt, so a resumed
    /// call continues exactly where this one left off.
    fn advance(&mut self, ticker: &mut Ticker<'_>) -> Result<Option<Path>, Interrupt> {
        loop {
            ticker.tick()?;
            if self.stack.is_empty() && !self.push_root() {
                return Ok(None);
            }
            // Emit the k = 0 answer at a fresh root.
            if self.emit_root {
                self.emit_root = false;
                if self.k == 0 {
                    let start = self.current_start.expect("root set");
                    self.stack.clear();
                    return Ok(Some(Path::trivial(start)));
                }
            }
            let depth = self.stack.len() - 1; // edges consumed so far
            let (state, next_idx) = *self.stack.last().expect("non-empty");
            let remaining = self.k - depth;
            debug_assert!(remaining >= 1);
            let mut idx = next_idx;
            let transitions = self.det.out(state);
            let mut advanced = false;
            while idx < transitions.len() {
                let (e, s2) = transitions[idx];
                idx += 1;
                if self.viable[remaining - 1][s2 as usize] {
                    self.stack.last_mut().expect("non-empty").1 = idx;
                    self.word.push(e);
                    self.stack.push((s2, 0));
                    if remaining == 1 {
                        // Full-length answer reached.
                        let path = Path {
                            start: self.current_start.expect("root set"),
                            edges: self.word.clone(),
                        };
                        // Backtrack one level so the next call continues.
                        self.stack.pop();
                        self.word.pop();
                        return Ok(Some(path));
                    }
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                self.stack.last_mut().expect("non-empty").1 = idx;
                if idx >= transitions.len() {
                    self.stack.pop();
                    self.word.pop();
                }
            }
        }
    }
}

impl Iterator for PathEnumerator {
    type Item = Path;

    fn next(&mut self) -> Option<Path> {
        // A no-op ticker never interrupts.
        match self.advance(&mut Ticker::none()) {
            Ok(p) => p,
            Err(i) => unreachable!("ungoverned enumeration interrupted: {i}"),
        }
    }
}

/// Opaque continuation token for a truncated enumeration.
///
/// Internally it is the last answer emitted (enumeration order is
/// deterministic, so "everything after this path" is well defined), or
/// the very beginning when truncation happened before the first answer.
/// The string form (`Display`/`FromStr`) round-trips for CLI use; treat
/// it as opaque — it is validated, not trusted, on resume.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cursor {
    /// The enumeration length `k` this cursor belongs to.
    pub k: usize,
    /// The last emitted answer, or `None` for "start from the top".
    pub after: Option<Path>,
}

impl fmt::Display for Cursor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.after {
            None => write!(f, "{}:-", self.k),
            Some(p) => {
                write!(f, "{}:{}", self.k, p.start.0)?;
                for e in &p.edges {
                    write!(f, ".{}", e.0)?;
                }
                Ok(())
            }
        }
    }
}

/// Errors from decoding or replaying a [`Cursor`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CursorError {
    /// The cursor string is not in the `k:start.e1.e2…` form.
    BadFormat,
    /// The start node does not exist or starts no matching path.
    InvalidStart,
    /// An edge in the cursor does not continue the unique det-product run.
    InvalidEdge,
    /// The edge sequence length does not match the cursor's `k`.
    LengthMismatch,
}

impl fmt::Display for CursorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CursorError::BadFormat => "malformed cursor string",
            CursorError::InvalidStart => "cursor start node is not valid for this query",
            CursorError::InvalidEdge => "cursor edges do not trace a matching path",
            CursorError::LengthMismatch => "cursor length does not match the query length",
        })
    }
}

impl std::error::Error for CursorError {}

impl FromStr for Cursor {
    type Err = CursorError;

    fn from_str(s: &str) -> Result<Cursor, CursorError> {
        let (k_str, rest) = s.split_once(':').ok_or(CursorError::BadFormat)?;
        let k: usize = k_str.parse().map_err(|_| CursorError::BadFormat)?;
        if rest == "-" {
            return Ok(Cursor { k, after: None });
        }
        let mut parts = rest.split('.');
        let start: u32 = parts
            .next()
            .ok_or(CursorError::BadFormat)?
            .parse()
            .map_err(|_| CursorError::BadFormat)?;
        let mut edges = Vec::new();
        for part in parts {
            edges.push(EdgeId(part.parse().map_err(|_| CursorError::BadFormat)?));
        }
        Ok(Cursor {
            k,
            after: Some(Path {
                start: NodeId(start),
                edges,
            }),
        })
    }
}

/// One page of a governed enumeration: a lexicographic prefix of the
/// answer set, plus a continuation cursor when truncated.
#[derive(Clone, Debug, PartialEq)]
pub struct EnumerationPage {
    /// The answers produced before the budget ran out (all of them when
    /// the surrounding [`Governed`] is complete).
    pub paths: Vec<Path>,
    /// Present exactly when truncated: resume from here to continue.
    pub cursor: Option<Cursor>,
}

/// Convenience: materializes all paths of length exactly `k`.
pub fn enumerate_paths<G: PathGraph>(g: &G, expr: &PathExpr, k: usize) -> Vec<Path> {
    PathEnumerator::new(g, expr, k).collect()
}

/// Governed enumeration: produces answers until done or the budget runs
/// out, in which case the page carries the prefix produced so far and a
/// [`Cursor`] that [`enumerate_paths_resumed`] continues from.
pub fn enumerate_paths_governed<G: PathGraph>(
    g: &G,
    expr: &PathExpr,
    k: usize,
    gov: &Governor,
) -> Result<Governed<EnumerationPage>, EvalError> {
    crate::govern::isolate_eval(|| {
        let mut it = build_enumerator_governed(g, expr, k, gov)?;
        drain_governed(&mut it, k, gov)
    })
}

/// Continues a truncated enumeration from `cursor`. The page produced by
/// chaining [`enumerate_paths_governed`] and repeated resumption is
/// exactly the full answer set, each answer once, in order.
pub fn enumerate_paths_resumed<G: PathGraph>(
    g: &G,
    expr: &PathExpr,
    cursor: &Cursor,
    gov: &Governor,
) -> Result<Governed<EnumerationPage>, EvalError> {
    crate::govern::isolate_eval(|| {
        let mut it = build_enumerator_governed(g, expr, cursor.k, gov)?;
        if let Some(last) = &cursor.after {
            it.seek_after(last)
                .map_err(|e| EvalError::InvalidInput(format!("continuation cursor: {e}")))?;
        }
        drain_governed(&mut it, cursor.k, gov)
    })
}

/// Governed preprocessing: det product build plus the viability table,
/// both charged against the budget.
fn build_enumerator_governed<G: PathGraph>(
    g: &G,
    expr: &PathExpr,
    k: usize,
    gov: &Governor,
) -> Result<PathEnumerator, EvalError> {
    fault_point!("enumerate::build");
    let nfa = Nfa::compile(expr);
    let det = DetProduct::build_governed(g, &nfa, gov)?;
    gov.charge_memory(((k + 1) * det.state_count()) as u64)
        .map_err(EvalError::Interrupted)?;
    Ok(PathEnumerator::from_det(det, k, g.node_count()))
}

fn drain_governed(
    it: &mut PathEnumerator,
    k: usize,
    gov: &Governor,
) -> Result<Governed<EnumerationPage>, EvalError> {
    let mut ticker = Ticker::new(gov);
    let mut paths: Vec<Path> = Vec::new();
    loop {
        match it.advance(&mut ticker) {
            Ok(Some(p)) => {
                if let Err(why) = gov.charge_results(1) {
                    // `p` is *not* included, so the cursor points at the
                    // last included answer and resumption replays `p`.
                    return Ok(truncated(paths, k, why));
                }
                paths.push(p);
            }
            Ok(None) => {
                // Charge the DFS's last < `Ticker::BATCH` steps; a trip
                // here still keeps every answer found.
                if let Err(why) = ticker.flush() {
                    return Ok(truncated(paths, k, why));
                }
                return Ok(Governed::complete(EnumerationPage {
                    paths,
                    cursor: None,
                }));
            }
            Err(why) => return Ok(truncated(paths, k, why)),
        }
    }
}

fn truncated(paths: Vec<Path>, k: usize, why: Interrupt) -> Governed<EnumerationPage> {
    let cursor = Cursor {
        k,
        after: paths.last().cloned(),
    };
    Governed::partial(
        EnumerationPage {
            paths,
            cursor: Some(cursor),
        },
        why,
    )
}

/// Convenience: all paths of length `0..=k` (concatenated enumerations).
pub fn enumerate_paths_upto<G: PathGraph>(g: &G, expr: &PathExpr, k: usize) -> Vec<Path> {
    let nfa = Nfa::compile(expr);
    let det = DetProduct::build(g, &nfa);
    let mut all = Vec::new();
    for j in 0..=k {
        all.extend(PathEnumerator::from_det(det.clone(), j, g.node_count()));
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::count_paths;
    use crate::govern::Budget;
    use crate::model::LabeledView;
    use crate::parser::parse_expr;
    use crate::product::Product;
    use kgq_graph::figures::figure2_labeled;
    use kgq_graph::generate::{gnm_labeled, path_graph};
    use std::collections::HashSet;

    #[test]
    fn enumeration_matches_exact_count() {
        for seed in 0..3 {
            let mut g = gnm_labeled(10, 25, &["a", "b"], &["p", "q"], seed);
            for expr_text in ["(p+q)*", "p/q^-", "?a/(p)*"] {
                let e = parse_expr(expr_text, g.consts_mut()).unwrap();
                let view = LabeledView::new(&g);
                for k in 0..=4 {
                    let paths = enumerate_paths(&view, &e, k);
                    let count = count_paths(&view, &e, k).unwrap();
                    assert_eq!(paths.len() as u128, count, "{expr_text} k={k}");
                    // All distinct.
                    let set: HashSet<_> = paths.iter().cloned().collect();
                    assert_eq!(set.len(), paths.len());
                }
            }
        }
    }

    #[test]
    fn all_enumerated_paths_are_answers() {
        let mut g = figure2_labeled();
        let e = parse_expr("?person/rides/?bus/rides^-/?infected", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        let nfa = crate::automata::Nfa::compile(&e);
        let prod = Product::build(&view, &nfa);
        let paths = enumerate_paths(&view, &e, 2);
        assert_eq!(paths.len(), 2); // n1 and n4 each share bus n3 with n2
        for p in &paths {
            assert!(prod.accepts(p.start, &p.edges));
            assert_eq!(p.len(), 2);
        }
    }

    #[test]
    fn lexicographic_order() {
        let mut g = gnm_labeled(8, 20, &["a"], &["p"], 3);
        let e = parse_expr("(p)*", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        let paths = enumerate_paths(&view, &e, 3);
        let mut sorted = paths.clone();
        sorted.sort();
        assert_eq!(paths, sorted);
    }

    #[test]
    fn zero_length_enumeration() {
        let mut g = figure2_labeled();
        let e = parse_expr("?person", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        let paths = enumerate_paths(&view, &e, 0);
        assert_eq!(paths.len(), 3);
        assert!(paths.iter().all(|p| p.is_empty()));
    }

    #[test]
    fn upto_concatenates_lengths() {
        let mut g = path_graph(5, "v", "next");
        let e = parse_expr("(next)*", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        let all = enumerate_paths_upto(&view, &e, 4);
        // 5 + 4 + 3 + 2 + 1
        assert_eq!(all.len(), 15);
    }

    #[test]
    fn empty_answer_set_terminates_immediately() {
        let mut g = path_graph(3, "v", "next");
        let e = parse_expr("ghost", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        let mut it = PathEnumerator::new(&view, &e, 2);
        assert!(it.next().is_none());
    }

    #[test]
    fn the_depth_first_search_is_charged_to_the_step_budget() {
        // A longer enumeration walks a larger DFS, so the smallest step
        // budget that lets length 1 finish must cut length 4 short — and
        // the cut keeps every answer found before it.
        let mut g = gnm_labeled(20, 30, &["a", "b"], &["p", "q"], 3);
        let e = parse_expr("(p+q)*", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        let run = |k, steps| {
            let gov = Governor::new(&Budget::default().with_max_steps(steps));
            enumerate_paths_governed(&view, &e, k, &gov)
        };
        // Below some budget even the shared preprocessing trips.
        let fits = (1..10_000)
            .find(|&steps| run(1, steps).is_ok_and(|page| page.completion.is_complete()))
            .expect("length 1 finishes under some budget");
        let cut = run(4, fits).unwrap();
        assert!(cut.is_partial(), "length 4 fits in {fits} steps");
        assert!(enumerate_paths(&view, &e, 4).starts_with(&cut.value.paths));
    }
}
