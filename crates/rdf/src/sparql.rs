//! A SPARQL-flavored `SELECT` front-end for basic graph patterns.
//!
//! The paper points to SPARQL \[38\] as "the" declarative language for
//! RDF. This module parses the conjunctive core:
//!
//! ```text
//! SELECT ?p ?b WHERE { ?p <rides> ?b . ?p a <person> . ?b a <bus> }
//! ```
//!
//! * variables are `?name`;
//! * IRIs are `<...>`; literals are `"..."`;
//! * `a` abbreviates `rdf:type` as in SPARQL/Turtle;
//! * triple patterns are separated by `.` (trailing dot optional);
//! * `SELECT *` projects every variable in order of first appearance.
//!
//! Evaluation runs the static checks of [`crate::analyze`] (a provably
//! empty pattern short-circuits before planning), then the leapfrog
//! triejoin of [`crate::lftj`]; [`explain_select`] surfaces the
//! diagnostics and the chosen plan, and [`select_governed_with`] threads
//! the `kgq-core` governance contract through evaluation.

use crate::analyze::{analyze_bgp, BgpReport};
use crate::bgp::{Bgp, TermPattern, TriplePattern};
use crate::convert::RDF_TYPE;
use crate::sketch::{approx_count_bgp_governed, BgpCountParams, StoreSketch};
use crate::store::TripleStore;
use kgq_core::govern::{EvalError, Governed, Governor};
use kgq_graph::Sym;
use std::borrow::Borrow;
use std::fmt;

/// Parse error for SELECT queries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SparqlParseError {
    /// Byte offset.
    pub pos: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for SparqlParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SELECT parse error at byte {}: {}",
            self.pos, self.message
        )
    }
}

impl std::error::Error for SparqlParseError {}

/// A parsed SELECT query.
#[derive(Clone, Debug)]
pub struct SelectQuery {
    /// Projection list (resolved, never `*`; empty for a COUNT query).
    pub vars: Vec<String>,
    /// The WHERE pattern.
    pub pattern: Bgp,
    /// `Some(name)` for `SELECT (COUNT(*) AS ?name)`: the query asks
    /// for the number of answers, not the answers themselves.
    pub count: Option<String>,
}

struct P<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> P<'a> {
    fn err<T>(&self, message: &str) -> Result<T, SparqlParseError> {
        Err(SparqlParseError {
            pos: self.pos,
            message: message.to_owned(),
        })
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src.as_bytes()[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, tok: &str) -> bool {
        self.skip_ws();
        if self.src[self.pos..].starts_with(tok) {
            self.pos += tok.len();
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let rest = &self.src[self.pos..];
        if rest.len() >= kw.len() && rest[..kw.len()].eq_ignore_ascii_case(kw) {
            let boundary = rest[kw.len()..]
                .chars()
                .next()
                .is_none_or(|c| !c.is_alphanumeric() && c != '_');
            if boundary {
                self.pos += kw.len();
                return true;
            }
        }
        false
    }

    fn variable(&mut self) -> Result<String, SparqlParseError> {
        if !self.eat("?") {
            return self.err("expected `?variable`");
        }
        let rest = &self.src[self.pos..];
        let len = rest
            .char_indices()
            .take_while(|&(i, c)| {
                if i == 0 {
                    c.is_alphabetic() || c == '_'
                } else {
                    c.is_alphanumeric() || c == '_'
                }
            })
            .map(|(i, c)| i + c.len_utf8())
            .last()
            .unwrap_or(0);
        if len == 0 {
            return self.err("empty variable name");
        }
        let name = rest[..len].to_owned();
        self.pos += len;
        Ok(name)
    }

    /// A term pattern position: variable, `<iri>`, `"literal"`, or `a`.
    fn term(
        &mut self,
        st: &mut TripleStore,
        predicate_position: bool,
    ) -> Result<TermPattern, SparqlParseError> {
        self.skip_ws();
        let rest = &self.src[self.pos..];
        if rest.starts_with('?') {
            return Ok(TermPattern::Var(self.variable()?));
        }
        if rest.starts_with('<') {
            let end = rest.find('>').ok_or_else(|| SparqlParseError {
                pos: self.pos,
                message: "unterminated IRI".to_owned(),
            })?;
            let iri = rest[1..end].to_owned();
            self.pos += end + 1;
            return Ok(TermPattern::Const(st.term(&iri)));
        }
        if let Some(body) = rest.strip_prefix('"') {
            let end = body.find('"').ok_or_else(|| SparqlParseError {
                pos: self.pos,
                message: "unterminated literal".to_owned(),
            })?;
            let lit = format!("\"{}\"", &body[..end]);
            self.pos += end + 2;
            return Ok(TermPattern::Const(st.term(&lit)));
        }
        if predicate_position && self.eat_keyword("a") {
            return Ok(TermPattern::Const(st.term(RDF_TYPE)));
        }
        self.err("expected a variable, `<iri>`, `\"literal\"` or `a`")
    }
}

/// Parses a SELECT query, interning constants into `st`.
pub fn parse_select(input: &str, st: &mut TripleStore) -> Result<SelectQuery, SparqlParseError> {
    let mut p = P { src: input, pos: 0 };
    if !p.eat_keyword("SELECT") {
        return p.err("query must start with SELECT");
    }
    let mut vars = Vec::new();
    let mut count = None;
    let mut star = false;
    if p.eat("(") {
        // Aggregate projection: `(COUNT(*) AS ?name)`.
        if !p.eat_keyword("COUNT") {
            return p.err("expected COUNT in aggregate projection");
        }
        if !p.eat("(") || !p.eat("*") || !p.eat(")") {
            return p.err("expected `(*)` after COUNT");
        }
        if !p.eat_keyword("AS") {
            return p.err("expected AS in aggregate projection");
        }
        count = Some(p.variable()?);
        if !p.eat(")") {
            return p.err("expected `)` closing the aggregate projection");
        }
    } else {
        star = p.eat("*");
        if !star {
            loop {
                p.skip_ws();
                if p.src[p.pos..].starts_with('?') {
                    let v = p.variable()?;
                    if !vars.contains(&v) {
                        vars.push(v);
                    }
                } else {
                    break;
                }
            }
            if vars.is_empty() {
                return p.err("SELECT needs at least one variable, `*`, or COUNT(*)");
            }
        }
    }
    if !p.eat_keyword("WHERE") {
        return p.err("expected WHERE");
    }
    if !p.eat("{") {
        return p.err("expected `{`");
    }
    let mut pattern = Bgp::new();
    let mut seen_vars: Vec<String> = Vec::new();
    loop {
        p.skip_ws();
        if p.eat("}") {
            break;
        }
        let s = p.term(st, false)?;
        let pred = p.term(st, true)?;
        let o = p.term(st, false)?;
        for t in [&s, &pred, &o] {
            if let TermPattern::Var(v) = t {
                if !seen_vars.contains(v) {
                    seen_vars.push(v.clone());
                }
            }
        }
        pattern.patterns.push(TriplePattern { s, p: pred, o });
        // `.` separates patterns; also allowed before `}`.
        let _ = p.eat(".");
    }
    if pattern.patterns.is_empty() {
        return p.err("WHERE block has no triple patterns");
    }
    p.skip_ws();
    if p.pos != input.len() {
        return p.err("trailing input");
    }
    let vars = if star { seen_vars.clone() } else { vars };
    // Projected variables must occur in the pattern. (The COUNT output
    // variable is an aggregate alias, not a pattern binding.)
    for v in &vars {
        if !seen_vars.contains(v) {
            return Err(SparqlParseError {
                pos: 0,
                message: format!("projected variable ?{v} not bound in WHERE"),
            });
        }
    }
    if let Some(c) = &count {
        if seen_vars.contains(c) {
            return Err(SparqlParseError {
                pos: 0,
                message: format!("COUNT alias ?{c} shadows a pattern variable"),
            });
        }
    }
    Ok(SelectQuery {
        vars,
        pattern,
        count,
    })
}

/// A projected SELECT answer that is still term symbols: `len` rows of
/// `width` cells each, row after row in `cells`, sorted by their term
/// strings and deduplicated. Strings are resolved only when the rows are
/// written.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SymTable {
    /// Cells per row: the projection's arity, 0 for `SELECT *` over an
    /// all-constant pattern.
    width: usize,
    /// Rows; kept apart from `cells`, which stay empty at width 0.
    len: usize,
    /// The cells, `width` per row.
    cells: Vec<Sym>,
}

impl SymTable {
    /// The rows, `width` symbols each (`len` empty rows at width 0,
    /// where `chunks_exact` would panic).
    pub fn rows(&self) -> impl Iterator<Item = &[Sym]> {
        let w = self.width;
        (0..self.len).map(move |i| &self.cells[i * w..(i + 1) * w])
    }
}

/// The rows of a SELECT answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SelectRows {
    /// The projected bindings.
    Table(SymTable),
    /// The one rendered cell of a `COUNT(*)` query.
    Count(String),
}

impl SelectRows {
    /// Appends the rows to `out`, one line each, cells separated by tabs.
    pub fn write(&self, st: &TripleStore, out: &mut String) {
        match self {
            SelectRows::Table(t) => {
                for row in t.rows() {
                    for (i, text) in terms(st, row).enumerate() {
                        if i > 0 {
                            out.push('\t');
                        }
                        out.push_str(text);
                    }
                    out.push('\n');
                }
            }
            SelectRows::Count(n) => {
                out.push_str(n);
                out.push('\n');
            }
        }
    }

    /// The rows as owned strings, one `Vec` per row.
    pub fn to_strings(&self, st: &TripleStore) -> Vec<Vec<String>> {
        match self {
            SelectRows::Table(t) => t
                .rows()
                .map(|row| terms(st, row).map(str::to_owned).collect())
                .collect(),
            SelectRows::Count(n) => vec![vec![n.clone()]],
        }
    }
}

/// Resolves symbols to their term strings: the one place the SELECT row
/// surface meets text, for ranking, writing and the string shim alike.
fn terms<'a>(st: &'a TripleStore, syms: &'a [Sym]) -> impl Iterator<Item = &'a str> + 'a {
    syms.iter().map(|&s| st.term_str(s))
}

/// Projects a join result onto the query's SELECT list, sorted by the
/// term strings and deduplicated for a deterministic row surface.
///
/// Only the answer's distinct symbols are sorted by string; each gets its
/// rank (equal strings, equal ranks), and the rows are ordered by their
/// rank tuples with one stable counting pass per column, last column
/// first. Adjacent equal rows are then dropped. Ranks order like the
/// strings, so this is the order of sorting the string rows themselves.
fn project(st: &TripleStore, q: &SelectQuery, sol: crate::lftj::Solution) -> SymTable {
    let idx: Vec<usize> = q
        .vars
        .iter()
        .map(|v| sol.vars.iter().position(|u| u == v).unwrap_or(0))
        .collect();
    let (width, n) = (idx.len(), sol.rows.len());
    if width == 0 || n == 0 {
        // Every row of width 0 is the same empty row.
        let len = if width == 0 { n.min(1) } else { 0 };
        return SymTable {
            width,
            len,
            cells: Vec::new(),
        };
    }
    let mut cells = Vec::with_capacity(n * width);
    for row in &sol.rows {
        cells.extend(idx.iter().map(|&i| row[i]));
    }
    drop(sol);

    // The per-answer rank, dense up to the answer's largest symbol.
    const UNSEEN: u32 = u32::MAX;
    let top = cells.iter().map(|s| s.0).max().unwrap_or(0) as usize;
    let mut rank = vec![UNSEEN; top + 1];
    let mut distinct = Vec::new();
    for &s in &cells {
        if rank[s.0 as usize] == UNSEEN {
            rank[s.0 as usize] = 0;
            distinct.push(s);
        }
    }
    let mut by_text: Vec<(&str, Sym)> =
        terms(st, &distinct).zip(distinct.iter().copied()).collect();
    by_text.sort_unstable();
    let mut buckets = 0;
    for (k, &(text, s)) in by_text.iter().enumerate() {
        if k > 0 && by_text[k - 1].0 != text {
            buckets += 1;
        }
        rank[s.0 as usize] = buckets as u32;
    }
    buckets += 1;
    let keys: Vec<u32> = cells.iter().map(|s| rank[s.0 as usize]).collect();
    let key_row = |r: usize| &keys[r * width..][..width];

    // LSD radix sort of the row numbers.
    let mut order: Vec<usize> = (0..n).collect();
    let mut spare = vec![0; n];
    let mut start = vec![0usize; buckets + 1];
    for col in (0..width).rev() {
        start.fill(0);
        for &r in &order {
            start[key_row(r)[col] as usize + 1] += 1;
        }
        for b in 1..=buckets {
            start[b] += start[b - 1];
        }
        for &r in &order {
            let b = key_row(r)[col] as usize;
            spare[start[b]] = r;
            start[b] += 1;
        }
        std::mem::swap(&mut order, &mut spare);
    }

    let mut out = Vec::with_capacity(n * width);
    let mut prev: &[u32] = &[];
    for &r in &order {
        let row = key_row(r);
        if row != prev {
            out.extend_from_slice(&cells[r * width..][..width]);
            prev = row;
        }
    }
    SymTable {
        width,
        len: out.len() / width,
        cells: out,
    }
}

/// Projected variables handed to the analyzer: a COUNT query projects
/// no bindings, so every pattern variable counts as "used".
fn projected(q: &SelectQuery) -> Option<&[String]> {
    if q.count.is_some() {
        None
    } else {
        Some(&q.vars)
    }
}

/// Parses and evaluates a SELECT query, returning rows of term strings
/// in projection order, sorted for determinism: [`select_governed_with`]
/// under an unlimited governor, over a sketch built on the spot, with
/// its symbol rows resolved.
pub fn select(st: &mut TripleStore, query: &str) -> Result<Vec<Vec<String>>, SparqlParseError> {
    let q = parse_select(query, st)?;
    match select_governed_with(st, &q, || StoreSketch::build(st), &Governor::unlimited()) {
        Ok(outcome) => Ok(outcome.rows.value.to_strings(st)),
        Err(e) => panic!("ungoverned SELECT failed: {e}"),
    }
}

/// What [`select_governed_with`] produced, plus how: the analyzer's
/// report and whether a COUNT query degraded to the FPRAS estimate —
/// the evidence the serve layer's STATS counters report.
pub struct SelectOutcome {
    /// The projected rows as symbols (or the single rendered count),
    /// governed.
    pub rows: Governed<SelectRows>,
    /// The static analysis consulted before planning; when it is
    /// `provably_empty` the rows are the short-circuit answer and no
    /// plan ran.
    pub report: BgpReport,
    /// True when a COUNT query fell back to the approximate counter.
    pub approx_count: bool,
}

/// Evaluates an already-parsed SELECT query under a governor. Static
/// analysis runs first: a provably empty pattern short-circuits before
/// planning (a COUNT then answers `0`) and before `sketch` is asked for
/// the store's statistics, so a caller that builds them on demand pays
/// nothing. Otherwise the plan is sketch-driven
/// ([`crate::lftj::plan_sketched`]; the sketch only influences
/// elimination order, never answers) and the leapfrog triejoin runs with
/// batched step accounting through every trie seek, panic-isolated
/// workers, and an exact-prefix `Partial` (of the unprojected binding
/// set) on budget exhaustion. COUNT queries climb the governed
/// degradation ladder: exact count while the budget lasts, then an
/// XOR-hash (ε, δ) estimate under a successor budget with the `degraded`
/// flag set.
pub fn select_governed_with<S: Borrow<StoreSketch>>(
    st: &TripleStore,
    q: &SelectQuery,
    sketch: impl FnOnce() -> S,
    gov: &Governor,
) -> Result<SelectOutcome, EvalError> {
    let report = analyze_bgp(st, &q.pattern, projected(q));
    let (rows, approx_count) = if report.provably_empty {
        let rows = match &q.count {
            Some(_) => SelectRows::Count("0".to_owned()),
            None => SelectRows::Table(SymTable {
                width: q.vars.len(),
                ..SymTable::default()
            }),
        };
        (Governed::complete(rows), false)
    } else {
        let sk = sketch();
        let sk = sk.borrow();
        let plan = crate::lftj::plan_sketched(st, sk, &q.pattern).plan;
        if q.count.is_none() {
            let solved = crate::lftj::solve_planned_governed(st, &q.pattern, &plan, gov)?;
            let rows = solved.map(|solution| SelectRows::Table(project(st, q, solution)));
            (rows, false)
        } else {
            let exact = crate::lftj::count_planned_governed(st, &q.pattern, &plan, gov)?;
            if exact.completion.is_complete() {
                let rows = Governed::complete(SelectRows::Count(exact.value.to_string()));
                (rows, false)
            } else {
                // Budget exhausted mid-count: degrade to the approximate
                // counter under a fresh successor budget. Its own exact
                // path (small counts) still returns the precise value.
                let approx = approx_count_bgp_governed(
                    st,
                    sk,
                    &q.pattern,
                    BgpCountParams::default(),
                    &gov.successor(),
                )?;
                let rows = approx.map(|n| SelectRows::Count(n.to_string()));
                (rows, true)
            }
        }
    };
    Ok(SelectOutcome {
        rows,
        report,
        approx_count,
    })
}

/// Renders the static diagnostics and the join plan for a SELECT query —
/// the `kgq sparql --explain` surface. Shows the chosen variable
/// elimination order and per-pattern index orderings with exact
/// cardinalities; a denied (provably empty) query shows the
/// short-circuit instead of a plan.
pub fn explain_select(st: &mut TripleStore, query: &str) -> Result<String, SparqlParseError> {
    let q = parse_select(query, st)?;
    Ok(explain_parsed(st, &q).1)
}

/// [`explain_select`] for an already-parsed query: returns the analyzer
/// report alongside the rendered text, so callers (the `ANALYZE` server
/// verb, `kgq analyze`) can count verdicts without re-analyzing.
pub fn explain_parsed(st: &TripleStore, q: &SelectQuery) -> (BgpReport, String) {
    let mut report = analyze_bgp(st, &q.pattern, projected(q));
    let mut out = String::from("== diagnostics ==\n");
    out.push_str(&report.render());
    out.push_str("== plan ==\n");
    if report.provably_empty {
        out.push_str("short-circuit: empty answer before planning\n");
    } else {
        // Both planners run: the sketch-driven plan is what executes,
        // the greedy order is printed as the oracle it remains.
        let sk = StoreSketch::build(st);
        let sp = crate::lftj::plan_sketched(st, &sk, &q.pattern);
        let greedy = crate::lftj::plan(st, &q.pattern);
        report.verdict.est_answers = sp.est_answers();
        out.push_str(&sp.plan.render(st, &q.pattern));
        out.push_str(&sp.render_estimates());
        let order = if greedy.vars.is_empty() {
            "(none)".to_owned()
        } else {
            greedy
                .vars
                .iter()
                .map(|v| format!("?{v}"))
                .collect::<Vec<_>>()
                .join(" < ")
        };
        let agrees = greedy.vars == sp.plan.vars;
        out.push_str(&format!(
            "  greedy order: {order} ({})\n",
            if agrees {
                "sketch planner agrees"
            } else {
                "sketch planner overrides"
            }
        ));
        if q.count.is_some() {
            out.push_str(
                "  count query: exact governed count; XOR-hash (\u{3b5}, \u{3b4}) estimate on budget exhaustion\n",
            );
        }
    }
    out.push_str("== verdict ==\n");
    out.push_str(&report.verdict.render());
    (report, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TripleStore {
        let mut st = TripleStore::new();
        st.insert_strs("julia", RDF_TYPE, "person");
        st.insert_strs("ana", RDF_TYPE, "person");
        st.insert_strs("b7", RDF_TYPE, "bus");
        st.insert_strs("julia", "rides", "b7");
        st.insert_strs("ana", "rides", "b7");
        st.insert_strs("julia", "name", "\"Julia\"");
        st
    }

    #[test]
    fn basic_select_with_type_abbreviation() {
        let mut st = sample();
        let rows = select(
            &mut st,
            "SELECT ?p WHERE { ?p <rides> ?b . ?p a <person> . ?b a <bus> }",
        )
        .unwrap();
        assert_eq!(rows, vec![vec!["ana"], vec!["julia"]]);
    }

    #[test]
    fn select_star_projects_in_first_appearance_order() {
        let mut st = sample();
        let q = parse_select("SELECT * WHERE { ?x <rides> ?y }", &mut st).unwrap();
        assert_eq!(q.vars, vec!["x", "y"]);
        let rows = select(&mut st, "SELECT * WHERE { ?x <rides> ?y }").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], vec!["ana", "b7"]);
    }

    #[test]
    fn literals_in_object_position() {
        let mut st = sample();
        let rows = select(&mut st, "SELECT ?p WHERE { ?p <name> \"Julia\" }").unwrap();
        assert_eq!(rows, vec![vec!["julia"]]);
    }

    #[test]
    fn multiline_and_trailing_dot() {
        let mut st = sample();
        let rows = select(
            &mut st,
            "SELECT ?p ?b WHERE {\n  ?p <rides> ?b .\n  ?p a <person> .\n}",
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].len(), 2);
    }

    #[test]
    fn errors_are_informative() {
        let mut st = sample();
        let e = select(&mut st, "ASK { ?x <p> ?y }").unwrap_err();
        assert!(e.message.contains("SELECT"));
        let e = select(&mut st, "SELECT ?x WHERE { }").unwrap_err();
        assert!(e.message.contains("no triple patterns"));
        let e = select(&mut st, "SELECT ?z WHERE { ?x <p> ?y }").unwrap_err();
        assert!(e.message.contains("not bound"));
        let e = select(&mut st, "SELECT ?x WHERE { ?x <p ?y }").unwrap_err();
        assert!(e.message.contains("unterminated IRI"));
        let e = select(&mut st, "SELECT ?x WHERE { ?x <p> ?y } garbage").unwrap_err();
        assert!(e.message.contains("trailing"));
    }

    #[test]
    fn keyword_case_and_a_as_variable_name() {
        let mut st = sample();
        // `a` in subject/object position is NOT the type keyword.
        let rows = select(&mut st, "select ?a where { ?a a <bus> }").unwrap();
        assert_eq!(rows, vec![vec!["b7"]]);
    }

    #[test]
    fn unlimited_governed_select_matches_plain() {
        let mut st = sample();
        let query = "SELECT ?p ?b WHERE { ?p <rides> ?b . ?p a <person> }";
        let plain = select(&mut st, query).unwrap();
        let q = parse_select(query, &mut st).unwrap();
        let gov = Governor::unlimited();
        let governed = select_governed_with(&st, &q, || StoreSketch::build(&st), &gov).unwrap();
        assert!(governed.rows.completion.is_complete());
        assert_eq!(governed.rows.value.to_strings(&st), plain);
    }

    #[test]
    fn explain_shows_diagnostics_and_plan() {
        let mut st = sample();
        let text =
            explain_select(&mut st, "SELECT ?p WHERE { ?p <rides> ?b . ?p a <person> }").unwrap();
        assert!(text.contains("== diagnostics =="), "{text}");
        assert!(text.contains("== plan =="), "{text}");
        assert!(text.contains("variable order:"), "{text}");
        assert!(text.contains("card"), "{text}");
        // The elimination order itself carries per-variable exact prefix
        // counts, and the complexity verdict closes the report.
        assert!(text.contains("(card "), "{text}");
        assert!(text.contains("== verdict =="), "{text}");
        assert!(text.contains("agm exponent"), "{text}");
        assert!(text.contains("acyclic"), "{text}");
    }

    #[test]
    fn provably_empty_select_short_circuits() {
        let mut st = sample();
        let rows = select(&mut st, "SELECT ?x WHERE { ?x <flies> ?y }").unwrap();
        assert!(rows.is_empty());
        let text = explain_select(&mut st, "SELECT ?x WHERE { ?x <flies> ?y }").unwrap();
        assert!(text.contains("short-circuit"), "{text}");
        assert!(text.contains("empty-pattern"), "{text}");
    }
}
