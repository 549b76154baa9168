//! Static query analysis: emptiness, satisfiability, blowup, and
//! complexity-class lints that run *before* compilation.
//!
//! The paper (§4–§5) attaches a complexity class to every querying
//! functionality — checking is NL-complete, exact counting is #P-hard
//! (SpanL), approximate counting admits an FPRAS, enumeration has
//! poly-delay variants. This module makes those classes (and cheaper
//! instance-level facts) visible *statically*: given a parsed
//! [`PathExpr`] and a [`SchemaSummary`] harvested from the target graph,
//! [`analyze_expr`] produces a [`Report`] of severity-leveled
//! [`Diagnostic`]s plus a recommended evaluation plan, without building a
//! graph × NFA product.
//!
//! The analyses, in lattice order (each feeds the next):
//!
//! 1. **Test satisfiability** ([`satisfiable`]) — a three-valued
//!    interpretation of boolean/property/feature tests against the schema
//!    summary: `False` means *no* node/edge of this graph can pass the
//!    test (label outside the universe, property pair never observed,
//!    feature index out of range, or a contradictory conjunction like
//!    `{p=1 & p=2}`); `True` means *every* one does; `Unknown` otherwise.
//! 2. **Emptiness** ([`pruned_min`]) — transitions guarded by provably
//!    unsatisfiable tests are removed from the Thompson NFA, which is
//!    then minimized ([`Nfa::minimize`]); the minimal DFA of an empty
//!    language has a canonical two-state shape recognized by
//!    [`crate::automata::NfaSignature::is_empty_language`]. A
//!    provably-empty query
//!    short-circuits to an instant empty result and is never cached.
//! 3. **Finiteness & blowup** — the pruned DFA is scanned for a useful
//!    cycle containing an edge-consuming transition (infinite path
//!    language); the full automaton's subset-construction size is
//!    checked against [`MAX_DFA_STATES`]; and the product frontier is
//!    estimated from the schema's node count and degree statistics to
//!    pick a [`PlanAdvice`] that [`crate::eval::Evaluator`] consults.
//! 4. **Complexity tagging** — each functionality is labeled with its
//!    class so `kgq query --explain` can print a verdict table, and a
//!    `Deny` finding routes exact counting to the FPRAS estimator.

use std::fmt;

use crate::automata::{MinimizedNfa, Nfa, Trans, MAX_DFA_STATES};
use crate::expr::{PathExpr, Test};
use crate::simplify::{simplify, simplify_test};
use kgq_graph::schema::{GraphModel, SchemaSummary};
use kgq_graph::Interner;

/// How a diagnostic affects execution, ordered from informational to
/// blocking.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Informational; execution is unaffected.
    Note,
    /// Suspicious but executable (e.g. a dead alternation branch).
    Warn,
    /// Execution of at least one functionality is re-routed or
    /// short-circuited (empty language, determinization blowup).
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        })
    }
}

/// One typed finding of the static analyzer.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// How the finding affects execution.
    pub severity: Severity,
    /// Stable machine-readable code (`empty-language`, `unsat-test`,
    /// `dfa-blowup`, `infinite-language`, `unknown-label`, …).
    pub code: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// Byte span `(offset, len)` into the original query text, when the
    /// finding can be anchored to one.
    pub span: Option<(usize, usize)>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)
    }
}

impl Diagnostic {
    /// Renders the diagnostic with a caret marking its span in `input`,
    /// in the same shape as [`crate::parser::ParseError::render`]:
    ///
    /// ```text
    /// warn[unsat-test]: label `ghost` labels no edge in this graph
    ///   ?person/ghost
    ///           ^
    /// ```
    ///
    /// Falls back to the bare message when the diagnostic has no span or
    /// the span does not fit `input`.
    pub fn render(&self, input: &str) -> String {
        let Some((pos, _)) = self.span else {
            return self.to_string();
        };
        if input.is_empty() || pos > input.len() {
            return self.to_string();
        }
        let line_start = input[..pos].rfind('\n').map(|i| i + 1).unwrap_or(0);
        let line_end = input[pos..]
            .find('\n')
            .map(|i| pos + i)
            .unwrap_or(input.len());
        let line = &input[line_start..line_end];
        let pad = " ".repeat(pos - line_start);
        format!("{self}\n  {line}\n  {pad}^")
    }
}

/// Three-valued verdict of a test against a schema summary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tri {
    /// No node/edge of the summarized graph can satisfy the test.
    False,
    /// The schema cannot decide; the test must be evaluated.
    Unknown,
    /// Every node/edge of the summarized graph satisfies the test.
    True,
}

impl Tri {
    fn not(self) -> Tri {
        match self {
            Tri::False => Tri::True,
            Tri::Unknown => Tri::Unknown,
            Tri::True => Tri::False,
        }
    }

    fn and(self, other: Tri) -> Tri {
        match (self, other) {
            (Tri::False, _) | (_, Tri::False) => Tri::False,
            (Tri::True, Tri::True) => Tri::True,
            _ => Tri::Unknown,
        }
    }

    fn or(self, other: Tri) -> Tri {
        match (self, other) {
            (Tri::True, _) | (_, Tri::True) => Tri::True,
            (Tri::False, Tri::False) => Tri::False,
            _ => Tri::Unknown,
        }
    }
}

/// Whether a test guards a node (length-0 `?test` step) or an edge
/// traversal (`test` / `test^-`). The two positions have disjoint label
/// and property universes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Position {
    /// The test applies to a node.
    Node,
    /// The test applies to an edge.
    Edge,
}

/// The evaluation strategy the analyzer recommends, shown in the
/// `--explain` verdict table (every plan yields identical answers).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlanAdvice {
    /// Fused sequential product scan: small graphs or tiny products,
    /// where the bit-parallel kernel's setup cost dominates.
    Sequential,
    /// Multi-source sweep on the 64-source frontier kernel
    /// ([`crate::bitkernel`]).
    BitParallel,
    /// Point reachability checks should use the bidirectional meet
    /// ([`crate::eval::Evaluator::check`]); a full materialized sweep is
    /// wasteful.
    Bidirectional,
}

impl fmt::Display for PlanAdvice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PlanAdvice::Sequential => "sequential scan",
            PlanAdvice::BitParallel => "bit-parallel sweep",
            PlanAdvice::Bidirectional => "bidirectional meet",
        })
    }
}

/// The paper's complexity class for one querying functionality.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ComplexityClass {
    /// NL-complete (checking / pair reachability).
    Nl,
    /// #P-hard, SpanL-complete (exact path counting).
    SpanL,
    /// Admits a fully polynomial randomized approximation scheme.
    Fpras,
    /// Enumerable with polynomial delay between answers.
    PolyDelay,
    /// NP-hard in combined complexity (pattern matching under
    /// relationship isomorphism).
    NpHard,
}

impl fmt::Display for ComplexityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ComplexityClass::Nl => "NL",
            ComplexityClass::SpanL => "#P-hard (SpanL)",
            ComplexityClass::Fpras => "FPRAS",
            ComplexityClass::PolyDelay => "poly-delay",
            ComplexityClass::NpHard => "NP-hard",
        })
    }
}

/// Instance-level facts about the query's path language (RPQ analyses
/// only; a Cypher report carries `None`).
#[derive(Clone, Copy, Debug)]
pub struct LanguageFacts {
    /// The language is provably empty on this graph.
    pub empty: bool,
    /// The (pruned) language contains no unboundedly long paths.
    pub finite: bool,
    /// Whether the full automaton was actually minimized (false when the
    /// subset construction hit [`MAX_DFA_STATES`]).
    pub minimized: bool,
    /// States of the automaton the cache would compile.
    pub dfa_states: usize,
    /// `node_count × dfa_states`: upper bound on product states.
    pub est_product_states: u64,
}

/// The analyzer's verdict for one query: diagnostics, language facts,
/// plan advice, and per-functionality complexity classes.
#[derive(Clone, Debug)]
pub struct Report {
    /// Findings, most severe first.
    pub diagnostics: Vec<Diagnostic>,
    /// RPQ language facts (absent for Cypher reports).
    pub language: Option<LanguageFacts>,
    /// Recommended plan for multi-source evaluation.
    pub plan: PlanAdvice,
    /// `(functionality, class)` rows of the verdict table.
    pub classes: Vec<(&'static str, ComplexityClass)>,
    /// The query provably returns no results on this graph.
    pub provably_empty: bool,
}

impl Report {
    /// An empty report with the standard RPQ class table and a default
    /// sequential plan; analyzers fill in the rest.
    pub fn new() -> Report {
        Report {
            diagnostics: Vec::new(),
            language: None,
            plan: PlanAdvice::Sequential,
            classes: Vec::new(),
            provably_empty: false,
        }
    }

    /// The most severe finding, or `None` when there are no diagnostics.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// True when any finding is [`Severity::Deny`].
    pub fn denied(&self) -> bool {
        self.max_severity() == Some(Severity::Deny)
    }

    /// True when the query provably returns no results on this graph, so
    /// evaluation can short-circuit without compiling anything.
    pub fn is_provably_empty(&self) -> bool {
        self.provably_empty
    }

    /// True when a `Deny` finding makes exact counting inadvisable
    /// (determinization blowup): `kgq query … count` re-routes to the
    /// FPRAS estimator with a degraded annotation.
    pub fn denies_exact_count(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Deny && d.code == "dfa-blowup")
    }

    /// Renders the full verdict: each diagnostic with its span caret
    /// (against `input`), then a fixed-width table mapping every
    /// functionality to its complexity class and chosen plan, then the
    /// language facts line.
    pub fn render(&self, input: &str) -> String {
        let mut out = String::new();
        out.push_str("== diagnostics ==\n");
        if self.diagnostics.is_empty() {
            out.push_str("(none)\n");
        }
        for d in &self.diagnostics {
            out.push_str(&d.render(input));
            out.push('\n');
        }
        out.push_str("== verdict ==\n");
        out.push_str(&format!("{:<14} {:<17} plan\n", "functionality", "class"));
        for &(name, class) in &self.classes {
            let plan = self.plan_for(name);
            out.push_str(&format!(
                "{:<14} {:<17} {}\n",
                name,
                class.to_string(),
                plan
            ));
        }
        if let Some(l) = &self.language {
            let lang = if l.empty {
                "empty"
            } else if l.finite {
                "finite"
            } else {
                "infinite"
            };
            let min = if l.minimized {
                "minimized"
            } else {
                "not minimized"
            };
            out.push_str(&format!(
                "language: {lang}; dfa states: {} ({min}); est. product states: {}\n",
                l.dfa_states, l.est_product_states
            ));
        }
        out
    }

    /// The plan string printed for one functionality row of the table.
    pub fn plan_for(&self, functionality: &str) -> String {
        if self.provably_empty {
            return "short-circuit (empty)".to_string();
        }
        match functionality {
            "check" => PlanAdvice::Bidirectional.to_string(),
            "count" if self.denies_exact_count() => "FPRAS (degraded)".to_string(),
            "count" => "exact DP".to_string(),
            "count~" => "Karp-Luby sampling".to_string(),
            "enumerate" => "ordered DFS".to_string(),
            _ => self.plan.to_string(),
        }
    }
}

impl Default for Report {
    fn default() -> Report {
        Report::new()
    }
}

/// Node-count threshold under which the bit-parallel kernel's setup cost
/// is not worth paying (one 64-wide source batch or less).
const SEQUENTIAL_NODE_CUTOFF: usize = 64;

/// Estimated-product-state threshold under which a fused sequential scan
/// beats the kernel sweep.
const SEQUENTIAL_PRODUCT_CUTOFF: u64 = 4096;

/// Three-valued satisfiability of `test` at `pos` against `schema`.
///
/// `Tri::False` is a proof that no node/edge of the summarized graph
/// passes the test under [`crate::model::PathGraph::eval_bool`] semantics
/// for the summarized model; `Tri::True` a proof that every one does.
/// The test is canonicalized with [`simplify_test`] first, so `!!t`
/// behaves like `t`.
pub fn satisfiable(test: &Test, pos: Position, schema: &SchemaSummary) -> Tri {
    tri(&simplify_test(test), pos, schema)
}

fn tri(test: &Test, pos: Position, schema: &SchemaSummary) -> Tri {
    match test {
        Test::Not(x) => tri(x, pos, schema).not(),
        Test::Or(a, b) => tri(a, pos, schema).or(tri(b, pos, schema)),
        Test::And(_, _) => {
            let mut conj = Vec::new();
            conjuncts(test, &mut conj);
            for i in 0..conj.len() {
                for j in i + 1..conj.len() {
                    if contradicts(conj[i], conj[j], schema.model) {
                        return Tri::False;
                    }
                }
            }
            conj.iter()
                .fold(Tri::True, |acc, c| acc.and(tri(c, pos, schema)))
        }
        leaf => leaf_tri(leaf, pos, schema),
    }
}

/// Flattens an `And` tree into its conjunct list (other nodes are leaves
/// of the flattening).
fn conjuncts<'a>(t: &'a Test, out: &mut Vec<&'a Test>) {
    if let Test::And(a, b) = t {
        conjuncts(a, out);
        conjuncts(b, out);
    } else {
        out.push(t);
    }
}

/// A single-position functional-dependency key: every node/edge has
/// exactly one label, one value per property key, and one value per
/// feature slot, so two atoms with equal keys but different values can
/// never hold together.
fn fd_key(t: &Test, model: GraphModel) -> Option<(u8, u64, u32)> {
    match (t, model) {
        (Test::Label(l), GraphModel::Vector) => Some((2, 1, l.0)),
        (Test::Label(l), _) => Some((0, 0, l.0)),
        (Test::Prop(p, v), _) => Some((1, u64::from(p.0), v.0)),
        (Test::Feature(i, v), _) => Some((2, *i as u64, v.0)),
        _ => None,
    }
}

fn contradicts(a: &Test, b: &Test, model: GraphModel) -> bool {
    if let Test::Not(x) = a {
        if **x == *b {
            return true;
        }
    }
    if let Test::Not(x) = b {
        if **x == *a {
            return true;
        }
    }
    match (fd_key(a, model), fd_key(b, model)) {
        (Some((ka, ia, va)), Some((kb, ib, vb))) => ka == kb && ia == ib && va != vb,
        _ => false,
    }
}

fn known_in(present: bool) -> Tri {
    if present {
        Tri::Unknown
    } else {
        Tri::False
    }
}

fn feature_tri(i: usize, v: kgq_graph::Sym, pos: Position, schema: &SchemaSummary) -> Tri {
    if i == 0 || i > schema.feature_dim {
        return Tri::False;
    }
    known_in(match pos {
        Position::Node => schema.has_node_feature(i, v),
        Position::Edge => schema.has_edge_feature(i, v),
    })
}

fn leaf_tri(t: &Test, pos: Position, schema: &SchemaSummary) -> Tri {
    match t {
        Test::Label(l) => match schema.model {
            GraphModel::Vector => feature_tri(1, *l, pos, schema),
            _ => known_in(match pos {
                Position::Node => schema.has_node_label(*l),
                Position::Edge => schema.has_edge_label(*l),
            }),
        },
        Test::Prop(p, v) => match schema.model {
            GraphModel::Property => known_in(match pos {
                Position::Node => schema.has_node_prop_pair(*p, *v),
                Position::Edge => schema.has_edge_prop_pair(*p, *v),
            }),
            _ => Tri::False,
        },
        Test::Feature(i, v) => match schema.model {
            GraphModel::Vector => feature_tri(*i, *v, pos, schema),
            _ => Tri::False,
        },
        // Not/And/Or are handled by `tri`.
        _ => Tri::Unknown,
    }
}

/// Compiles `expr`, removes every transition whose guard is provably
/// unsatisfiable against `schema`, and minimizes the result.
///
/// On the summarized graph the pruned automaton accepts exactly the same
/// paths as the full one (dropped transitions could never fire), so its
/// minimal DFA decides instance-level emptiness:
/// [`MinimizedNfa::is_empty_language`] on the result is the analyzer's
/// emptiness verdict. Star-of-unsatisfiable stays correct — the ε path
/// survives pruning, so `ghost*` still matches every length-0 path.
pub fn pruned_min(expr: &PathExpr, schema: &SchemaSummary) -> MinimizedNfa {
    let nfa = Nfa::compile(expr);
    let mut edges = vec![Vec::new(); nfa.state_count()];
    for (q, list) in nfa.edges.iter().enumerate() {
        for &(label, to) in list {
            let keep = match label {
                Trans::Eps => true,
                Trans::Node(t) => {
                    satisfiable(&nfa.tests[t as usize], Position::Node, schema) != Tri::False
                }
                Trans::Fwd(t) | Trans::Bwd(t) => {
                    satisfiable(&nfa.tests[t as usize], Position::Edge, schema) != Tri::False
                }
            };
            if keep {
                edges[q].push((label, to));
            }
        }
    }
    Nfa {
        edges,
        tests: nfa.tests,
        start: nfa.start,
        accept: nfa.accept,
    }
    .minimize()
}

/// True iff the automaton matches only boundedly long paths: no useful
/// cycle (reachable from the start, co-reachable to the accept) contains
/// an edge-consuming (`Fwd`/`Bwd`) transition. Cycles of node tests and
/// structural ε repeat *words*, not paths, and are ignored.
fn language_is_finite(nfa: &Nfa) -> bool {
    let n = nfa.state_count();
    if n == 0 {
        return true;
    }
    let fwd_reach = reachable(n, nfa.start as usize, |q| {
        nfa.edges[q].iter().map(|&(_, to)| to as usize)
    });
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (q, list) in nfa.edges.iter().enumerate() {
        for &(_, to) in list {
            rev[to as usize].push(q);
        }
    }
    let bwd_reach = reachable(n, nfa.accept as usize, |q| rev[q].iter().copied());
    let useful: Vec<bool> = (0..n).map(|q| fwd_reach[q] && bwd_reach[q]).collect();
    let comp = sccs(nfa, &useful);
    for (q, list) in nfa.edges.iter().enumerate() {
        if !useful[q] {
            continue;
        }
        for &(label, to) in list {
            let to = to as usize;
            // A transition staying inside one SCC lies on a cycle: a
            // self-loop when q == to, and otherwise the SCC provides the
            // return path to → q.
            if useful[to] && comp[q] == comp[to] && matches!(label, Trans::Fwd(_) | Trans::Bwd(_)) {
                return false;
            }
        }
    }
    true
}

fn reachable<I, F>(n: usize, from: usize, mut succ: F) -> Vec<bool>
where
    I: Iterator<Item = usize>,
    F: FnMut(usize) -> I,
{
    let mut seen = vec![false; n];
    let mut stack = vec![from];
    seen[from] = true;
    while let Some(q) = stack.pop() {
        for r in succ(q) {
            if !seen[r] {
                seen[r] = true;
                stack.push(r);
            }
        }
    }
    seen
}

/// Kosaraju SCC restricted to `useful` states; returns a component id
/// per state (`usize::MAX` for excluded states).
fn sccs(nfa: &Nfa, useful: &[bool]) -> Vec<usize> {
    let n = nfa.state_count();
    // Pass 1: iterative post-order over forward edges.
    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    for root in 0..n {
        if !useful[root] || visited[root] {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        visited[root] = true;
        while let Some(&mut (q, ref mut idx)) = stack.last_mut() {
            if *idx < nfa.edges[q].len() {
                let to = nfa.edges[q][*idx].1 as usize;
                *idx += 1;
                if useful[to] && !visited[to] {
                    visited[to] = true;
                    stack.push((to, 0));
                }
            } else {
                order.push(q);
                stack.pop();
            }
        }
    }
    // Pass 2: reverse DFS in reverse post-order assigns components.
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (q, list) in nfa.edges.iter().enumerate() {
        if !useful[q] {
            continue;
        }
        for &(_, to) in list {
            if useful[to as usize] {
                rev[to as usize].push(q);
            }
        }
    }
    let mut comp = vec![usize::MAX; n];
    let mut next = 0;
    for &root in order.iter().rev() {
        if comp[root] != usize::MAX {
            continue;
        }
        let mut stack = vec![root];
        comp[root] = next;
        while let Some(q) = stack.pop() {
            for &r in &rev[q] {
                if comp[r] == usize::MAX {
                    comp[r] = next;
                    stack.push(r);
                }
            }
        }
        next += 1;
    }
    comp
}

/// Renders a test for a diagnostic message: re-parseable syntax when an
/// interner is available, debug form otherwise.
fn test_str(t: &Test, consts: Option<&Interner>) -> String {
    match consts {
        Some(c) => {
            let shown = PathExpr::NodeTest(t.clone()).display(c).to_string();
            shown.strip_prefix('?').unwrap_or(&shown).to_string()
        }
        None => format!("{t:?}"),
    }
}

fn first_leaf_name<'a>(t: &Test, consts: &'a Interner) -> Option<&'a str> {
    match t {
        Test::Label(l) => Some(consts.resolve(*l)),
        Test::Prop(p, _) => Some(consts.resolve(*p)),
        Test::Feature(_, v) => Some(consts.resolve(*v)),
        Test::Not(x) => first_leaf_name(x, consts),
        Test::And(a, b) | Test::Or(a, b) => {
            first_leaf_name(a, consts).or_else(|| first_leaf_name(b, consts))
        }
    }
}

fn span_of_test(t: &Test, text: &str, consts: &Interner) -> Option<(usize, usize)> {
    let name = first_leaf_name(t, consts)?;
    text.find(name).map(|p| (p, name.len()))
}

fn unsat_message(
    t: &Test,
    pos: Position,
    schema: &SchemaSummary,
    consts: Option<&Interner>,
) -> String {
    let what = match pos {
        Position::Node => "node",
        Position::Edge => "edge",
    };
    let shown = test_str(t, consts);
    match t {
        Test::Label(_) if schema.model != GraphModel::Vector => {
            format!("label `{shown}` labels no {what} in this graph")
        }
        Test::Prop(_, _) if schema.model != GraphModel::Property => {
            format!("property test `{shown}` is constant-false outside the property-graph model")
        }
        Test::Prop(_, _) => {
            format!("property pair `{shown}` never occurs on any {what}")
        }
        Test::Feature(_, _) if schema.model != GraphModel::Vector => {
            format!("feature test `{shown}` is constant-false outside the vector model")
        }
        Test::Feature(i, _) if *i == 0 || *i > schema.feature_dim => {
            format!(
                "feature index {i} in `{shown}` is out of range (vector dimension is {})",
                schema.feature_dim
            )
        }
        Test::Feature(_, _) | Test::Label(_) => {
            format!("feature value in `{shown}` never occurs on any {what}")
        }
        _ => format!(
            "test `{shown}` is unsatisfiable on any {what} (contradictory or out of schema)"
        ),
    }
}

/// Walks the atoms of `expr`, calling `f` with each atom's test and its
/// [`Position`].
fn for_each_atom<'a>(expr: &'a PathExpr, f: &mut impl FnMut(&'a Test, Position)) {
    match expr {
        PathExpr::NodeTest(t) => f(t, Position::Node),
        PathExpr::Forward(t) | PathExpr::Backward(t) => f(t, Position::Edge),
        PathExpr::Alt(a, b) | PathExpr::Concat(a, b) => {
            for_each_atom(a, f);
            for_each_atom(b, f);
        }
        PathExpr::Star(r) => for_each_atom(r, f),
    }
}

/// The standard RPQ functionality/class table (paper §5).
fn rpq_classes() -> Vec<(&'static str, ComplexityClass)> {
    vec![
        ("check", ComplexityClass::Nl),
        ("pairs", ComplexityClass::Nl),
        ("count", ComplexityClass::SpanL),
        ("count~", ComplexityClass::Fpras),
        ("enumerate", ComplexityClass::PolyDelay),
    ]
}

/// Runs every RPQ analysis on `expr` against `schema` and assembles the
/// [`Report`].
///
/// `source`, when given, is the original query text plus the interner
/// used to parse it; it enables byte-span carets and symbol names in
/// messages. The expression is canonicalized with [`simplify`] first —
/// the same normalization the [`crate::cache::QueryCache`] applies — so
/// the verdict describes exactly what would be compiled.
pub fn analyze_expr(
    expr: &PathExpr,
    schema: &SchemaSummary,
    source: Option<(&str, &Interner)>,
) -> Report {
    let expr = simplify(expr);
    let mut diags: Vec<Diagnostic> = Vec::new();

    // (b) Unsatisfiable atom tests.
    for_each_atom(&expr, &mut |t, pos| {
        if satisfiable(t, pos, schema) == Tri::False {
            let message = unsat_message(t, pos, schema, source.map(|(_, c)| c));
            if diags.iter().any(|d| d.message == message) {
                return;
            }
            let span = source.and_then(|(text, c)| span_of_test(t, text, c));
            diags.push(Diagnostic {
                severity: Severity::Warn,
                code: "unsat-test",
                message,
                span,
            });
        }
    });

    // (a) Emptiness of the pruned language.
    let pruned = pruned_min(&expr, schema);
    let empty = pruned.is_empty_language();

    // (c) Blowup of the automaton the cache would actually compile.
    let full = Nfa::compile_min(&expr);
    let dfa_states = full.signature.state_count();
    if !full.minimized {
        diags.push(Diagnostic {
            severity: Severity::Deny,
            code: "dfa-blowup",
            message: format!(
                "subset construction exceeds the {MAX_DFA_STATES}-state cap; \
                 exact counting would determinize an oversized product, \
                 re-routing to the FPRAS estimator"
            ),
            span: None,
        });
    }
    let finite = empty || language_is_finite(&pruned.nfa);
    if !finite {
        diags.push(Diagnostic {
            severity: Severity::Note,
            code: "infinite-language",
            message: "the language is infinite (a useful cycle consumes edges); \
                      per-length counts are unbounded"
                .to_string(),
            span: None,
        });
    }
    if empty {
        let span = source.map(|(text, _)| (0, text.trim_end().len().max(1)));
        diags.insert(
            0,
            Diagnostic {
                severity: Severity::Deny,
                code: "empty-language",
                message: "the expression matches no path of this graph; \
                          evaluation short-circuits to an empty result"
                    .to_string(),
                span,
            },
        );
    }

    // (c) Plan advice from frontier-cost estimates.
    let est_product_states = schema.node_count as u64 * dfa_states.max(1) as u64;
    let plan = if empty
        || schema.node_count <= SEQUENTIAL_NODE_CUTOFF
        || est_product_states <= SEQUENTIAL_PRODUCT_CUTOFF
    {
        PlanAdvice::Sequential
    } else {
        PlanAdvice::BitParallel
    };

    Report {
        diagnostics: diags,
        language: Some(LanguageFacts {
            empty,
            finite,
            minimized: full.minimized,
            dfa_states,
            est_product_states,
        }),
        plan,
        classes: rpq_classes(),
        provably_empty: empty,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Evaluator;
    use crate::model::{LabeledView, PropertyView, VectorView};
    use crate::parser::parse_expr;
    use kgq_graph::figures::{figure2_labeled, figure2_property, figure2_vector};

    fn labeled_setup(expr: &str) -> (kgq_graph::LabeledGraph, PathExpr) {
        let mut g = figure2_labeled();
        let e = parse_expr(expr, g.consts_mut()).unwrap();
        (g, e)
    }

    #[test]
    fn absent_label_is_provably_empty_and_agrees_with_eval() {
        let (g, e) = labeled_setup("ghost/rides");
        let schema = SchemaSummary::from_labeled(&g);
        let report = analyze_expr(&e, &schema, Some(("ghost/rides", g.consts())));
        assert!(report.is_provably_empty());
        assert!(report.denied());
        assert!(Evaluator::new(&LabeledView::new(&g), &e).pairs().is_empty());
        let rendered = report.render("ghost/rides");
        assert!(rendered.contains("deny[empty-language]"), "{rendered}");
        assert!(rendered.contains("warn[unsat-test]"), "{rendered}");
        assert!(rendered.contains('^'), "caret missing: {rendered}");
        assert!(rendered.contains("short-circuit (empty)"), "{rendered}");
    }

    #[test]
    fn contradictory_conjunction_is_unsatisfiable() {
        let (g, e) = labeled_setup("{rides & !rides}");
        let schema = SchemaSummary::from_labeled(&g);
        let report = analyze_expr(&e, &schema, Some(("{rides & !rides}", g.consts())));
        assert!(report.is_provably_empty());
        assert!(Evaluator::new(&LabeledView::new(&g), &e).pairs().is_empty());
    }

    #[test]
    fn distinct_label_conjunction_contradicts() {
        let (g, e) = labeled_setup("?{person & bus}");
        let schema = SchemaSummary::from_labeled(&g);
        let report = analyze_expr(&e, &schema, None);
        // A node has exactly one label, so `person ∧ bus` never holds.
        assert!(report.is_provably_empty());
        assert!(Evaluator::new(&LabeledView::new(&g), &e).pairs().is_empty());
    }

    #[test]
    fn star_of_unsatisfiable_is_not_empty() {
        let (g, e) = labeled_setup("(ghost)*");
        let schema = SchemaSummary::from_labeled(&g);
        let report = analyze_expr(&e, &schema, None);
        // ε survives: every node matches the length-0 path.
        assert!(!report.is_provably_empty());
        assert_eq!(
            Evaluator::new(&LabeledView::new(&g), &e).pairs().len(),
            g.node_count()
        );
        // The dead star body is still flagged.
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == "unsat-test" && d.severity == Severity::Warn));
    }

    #[test]
    fn finiteness_classification() {
        let (g, chain) = labeled_setup("rides/contact");
        let schema = SchemaSummary::from_labeled(&g);
        let r = analyze_expr(&chain, &schema, None);
        assert!(r.language.unwrap().finite);

        let (g2, inf) = labeled_setup("(rides + contact)*");
        let r2 = analyze_expr(&inf, &SchemaSummary::from_labeled(&g2), None);
        let facts = r2.language.unwrap();
        assert!(!facts.empty);
        assert!(!facts.finite);
        assert!(r2.diagnostics.iter().any(|d| d.code == "infinite-language"));
    }

    #[test]
    fn node_test_star_is_finite() {
        // A cycle of node tests repeats words, not paths.
        let (g, e) = labeled_setup("(?person)*");
        let r = analyze_expr(&e, &SchemaSummary::from_labeled(&g), None);
        assert!(r.language.unwrap().finite);
    }

    #[test]
    fn blowup_denies_exact_count() {
        let mut g = kgq_graph::generate::gnm_labeled(20, 80, &["v"], &["p", "q"], 3);
        let text = "(p+q)*/p".to_string() + &"/(p+q)".repeat(13);
        let e = parse_expr(&text, g.consts_mut()).unwrap();
        let schema = SchemaSummary::from_labeled(&g);
        let report = analyze_expr(&e, &schema, None);
        assert!(report.denies_exact_count());
        assert!(!report.language.unwrap().minimized);
        assert!(report.render(&text).contains("FPRAS (degraded)"));
    }

    #[test]
    fn property_and_feature_tests_are_model_aware() {
        let g = figure2_property();
        let schema = SchemaSummary::from_property(&g);
        // A property key that exists with a value that never occurs.
        let mut lg = figure2_property();
        let e = parse_expr("[date='2999-01-01']", lg.labeled_mut().consts_mut()).unwrap();
        let report = analyze_expr(&e, &schema, None);
        assert!(report.is_provably_empty());
        assert!(Evaluator::new(&PropertyView::new(&lg), &e)
            .pairs()
            .is_empty());

        // Feature tests are constant-false outside the vector model.
        let e2 = parse_expr("[#1='person']", lg.labeled_mut().consts_mut()).unwrap();
        let r2 = analyze_expr(&e2, &schema, None);
        assert!(r2.is_provably_empty());

        // On the vector model feature 1 doubles as the label universe.
        let vg = figure2_vector();
        let vschema = SchemaSummary::from_vector(&vg);
        let e3 = parse_expr("?person", figure2_vector().consts_mut()).unwrap();
        let r3 = analyze_expr(&e3, &vschema, None);
        assert!(!r3.is_provably_empty());
        assert!(!Evaluator::new(&VectorView::new(&vg), &e3)
            .pairs()
            .is_empty());
    }

    #[test]
    fn plan_advice_scales_with_graph_size() {
        let (g, e) = labeled_setup("rides");
        let r = analyze_expr(&e, &SchemaSummary::from_labeled(&g), None);
        assert_eq!(r.plan, PlanAdvice::Sequential);

        let mut big = kgq_graph::generate::gnm_labeled(2000, 8000, &["a"], &["p"], 1);
        let ebig = parse_expr("p/p/p", big.consts_mut()).unwrap();
        let rbig = analyze_expr(&ebig, &SchemaSummary::from_labeled(&big), None);
        assert_eq!(rbig.plan, PlanAdvice::BitParallel);
    }

    #[test]
    fn true_verdicts_via_negation() {
        let (g, _) = labeled_setup("rides");
        let schema = SchemaSummary::from_labeled(&g);
        let mut g2 = figure2_labeled();
        let e = parse_expr("?{!ghost}", g2.consts_mut()).unwrap();
        let PathExpr::NodeTest(t) = &e else {
            panic!("expected node test")
        };
        assert_eq!(satisfiable(t, Position::Node, &schema), Tri::True);
    }

    #[test]
    fn diagnostic_render_has_parse_error_shape() {
        let d = Diagnostic {
            severity: Severity::Warn,
            code: "unsat-test",
            message: "label `ghost` labels no edge in this graph".to_string(),
            span: Some((7, 5)),
        };
        let r = d.render("?person/ghost");
        assert_eq!(
            r,
            "warn[unsat-test]: label `ghost` labels no edge in this graph\n  ?person/ghost\n         ^"
        );
        // Span-free diagnostics render as the bare message.
        let d2 = Diagnostic { span: None, ..d };
        assert_eq!(d2.render("x"), d2.to_string());
    }
}
