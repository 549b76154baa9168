//! The one request pipeline: analyze → short-circuit → compile/plan →
//! run → render, written once per query verb.
//!
//! Both front-ends call these bodies: `kgq serve` ([`crate::Snapshot`])
//! wraps each in lock + parse + stats, the batch CLI in load + parse +
//! print. Every function borrows already-loaded data, takes no lock and
//! runs under the caller's [`Governor`] — the CLI without GOVERN flags
//! passes an unlimited one — so a response body and `kgq` stdout are
//! the same bytes by construction, `# partial:` / `# degraded:`
//! trailers included.

use kgq_core::analyze::{Diagnostic, Severity};
use kgq_core::{
    analyze_expr, approx_count_governed, count_paths_governed_with, ApproxParams, CompiledQuery,
    Completion, CountOutcome, EvalError, Evaluator, Governed, Governor, PathExpr, PropertyView,
    QueryCache,
};
use kgq_graph::{PropertyGraph, SchemaSummary};
use kgq_rdf::{SelectQuery, StoreSketch, TripleStore};
use std::borrow::Borrow;
use std::fmt::Write;
use std::sync::Arc;

/// `# degraded:` cause when an exact algorithm ran out of budget and an
/// estimator finished the job.
pub const EXHAUSTED: &str = "exact budget exhausted, approximate estimate";

/// `# degraded:` cause when the analyzer refused the exact algorithm up
/// front.
const DENIED: &str = "exact counting denied (determinization blowup), approximate estimate";

/// What one pipeline run produced: the rendered body plus everything a
/// caller tallies.
#[derive(Debug, Default)]
pub struct Answer {
    /// CLI-formatted rows and trailers, or the error message when `!ok`.
    pub body: String,
    /// `OK` vs `ERR` on the wire; exit 0 vs 1 at the CLI.
    pub ok: bool,
    /// Whether the body ends in a `# partial:` trailer.
    pub partial: bool,
    /// Analyzer findings by severity: `[deny, warn, note]`.
    pub verdicts: [u64; 3],
    /// The analyzer proved the answer empty, so nothing was compiled,
    /// planned or run.
    pub short_circuited: bool,
    /// A SPARQL plan was executed.
    pub planned: bool,
    /// A SPARQL COUNT fell back to the approximate counter.
    pub approx_count: bool,
}

impl Answer {
    /// A successful, so far empty answer carrying the analyzer's tally.
    fn analyzed(diagnostics: &[Diagnostic]) -> Answer {
        let count = |s: Severity| diagnostics.iter().filter(|d| d.severity == s).count() as u64;
        Answer {
            ok: true,
            verdicts: [
                count(Severity::Deny),
                count(Severity::Warn),
                count(Severity::Note),
            ],
            ..Answer::default()
        }
    }

    /// The one renderer: the rows (`lines` writes one line per row), then
    /// the trailers; an engine error becomes the `ERR` body instead.
    fn render<R>(
        mut self,
        res: Result<Governed<R>, EvalError>,
        degraded_cause: &str,
        lines: impl FnOnce(&mut String, &R),
    ) -> Answer {
        match res {
            Ok(res) => {
                lines(&mut self.body, &res.value);
                self.partial = trailer(&mut self.body, &res, degraded_cause);
            }
            Err(e) => {
                self.ok = false;
                self.body = e.to_string();
            }
        }
        self
    }

    /// The body on success, the error message otherwise.
    pub fn into_result(self) -> Result<String, String> {
        if self.ok {
            Ok(self.body)
        } else {
            Err(self.body)
        }
    }
}

/// Appends the `# partial: REASON` / `# degraded: CAUSE` lines that mark
/// a governed result as incomplete or downgraded; returns whether it
/// was partial.
pub fn trailer<T>(out: &mut String, res: &Governed<T>, degraded_cause: &str) -> bool {
    // Writing into a `String` cannot fail.
    if let Completion::Partial(why) = &res.completion {
        let _ = writeln!(out, "# partial: {why}");
    }
    if res.degraded {
        let _ = writeln!(out, "# degraded: {degraded_cause}");
    }
    res.is_partial()
}

/// Writes a line per row; `cols` writes its tab-separated columns.
fn lines<T>(out: &mut String, rows: &[T], mut cols: impl FnMut(&mut String, &T)) {
    for row in rows {
        cols(out, row);
        out.push('\n');
    }
}

/// Writes a row of strings as tab-separated columns.
fn tabbed(out: &mut String, row: &[String]) {
    for (i, col) in row.iter().enumerate() {
        if i > 0 {
            out.push('\t');
        }
        out.push_str(col);
    }
}

/// The functionality an RPQ request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RpqOp {
    /// All `(start, end)` pairs.
    Pairs,
    /// Node extraction: every node that starts a matching path.
    Starts,
    /// `Count(G, r, k)`: matching paths of length exactly `k`.
    Count(usize),
}

impl RpqOp {
    /// Parses `pairs` | `starts` | `count K` from its words (the wire's
    /// op line, or the CLI's positional arguments).
    pub fn parse<'a>(mut words: impl Iterator<Item = &'a str>) -> Result<RpqOp, String> {
        match words.next().unwrap_or("") {
            "pairs" => Ok(RpqOp::Pairs),
            "starts" => Ok(RpqOp::Starts),
            "count" => words
                .next()
                .and_then(|k| k.parse().ok())
                .map(RpqOp::Count)
                .ok_or_else(|| "count needs K".to_owned()),
            other => Err(format!("unknown query op `{other}`")),
        }
    }
}

/// RPQ `pairs` | `starts` | `count K` over a property graph. `text` is
/// the expression's source, for the analyzer's messages.
pub fn rpq(
    g: &PropertyGraph,
    schema: &SchemaSummary,
    cache: &QueryCache,
    op: RpqOp,
    expr: &PathExpr,
    text: &str,
    gov: &Governor,
) -> Answer {
    let names = g.labeled();
    let report = analyze_expr(expr, schema, Some((text, names.consts())));
    let mut answer = Answer::analyzed(&report.diagnostics);
    if report.provably_empty {
        // An empty language has no pairs, no starts, and zero paths of
        // any length: answer without compiling a product.
        cache.note_short_circuit();
        answer.short_circuited = true;
        if let RpqOp::Count(_) = op {
            answer.body.push_str("0\n");
        }
        return answer;
    }
    let view = PropertyView::new(g);
    if let RpqOp::Count(k) = op {
        // A determinization blowup the analyzer already condemned goes
        // straight to the FPRAS estimator instead of burning half the
        // step budget on a doomed exact stage.
        let (count, cause) = if report.denies_exact_count() {
            let estimate = approx_count_governed(&view, expr, k, gov).map(|e| Governed {
                value: CountOutcome::Approximate(e),
                completion: Completion::Complete,
                degraded: true,
            });
            (estimate, DENIED)
        } else {
            let params = ApproxParams::default();
            (
                count_paths_governed_with(&view, expr, k, gov, &params),
                EXHAUSTED,
            )
        };
        return answer.render(count, cause, |out, c| {
            let _ = writeln!(out, "{c}");
        });
    }
    // `pairs` and `starts` share one compiled product via the cache
    // (keyed by the graph's generation and the minimal-DFA signature).
    let compiled = cache.get_or_compile_governed(&view, g.generation(), expr, gov);
    if op == RpqOp::Pairs {
        let pairs = scanned(compiled, |ev| ev.pairs_governed(gov));
        answer.render(pairs, EXHAUSTED, |out, rows| {
            lines(out, rows, |out, &(a, b)| {
                out.push_str(names.node_name(a));
                out.push('\t');
                out.push_str(names.node_name(b));
            })
        })
    } else {
        let starts = scanned(compiled, |ev| ev.matching_starts_governed(gov));
        answer.render(starts, EXHAUSTED, |out, rows| {
            lines(out, rows, |out, &n| out.push_str(names.node_name(n)))
        })
    }
}

/// Runs a multi-source scan on a compiled query. A budget exhausted
/// before the automaton even built yields the empty prefix — a typed
/// partial rather than a hard error.
fn scanned<T>(
    compiled: Result<Arc<CompiledQuery>, EvalError>,
    scan: impl FnOnce(&Evaluator) -> Result<Governed<Vec<T>>, EvalError>,
) -> Result<Governed<Vec<T>>, EvalError> {
    match compiled {
        Ok(compiled) => scan(compiled.evaluator()),
        Err(EvalError::Interrupted(why)) => Ok(Governed::partial(Vec::new(), why)),
        Err(e) => Err(e),
    }
}

/// A Cypher `MATCH … RETURN` over a property graph.
pub fn cypher(
    g: &PropertyGraph,
    cache: &QueryCache,
    q: &kgq_cypher::Query,
    gov: &Governor,
) -> Answer {
    let report = kgq_cypher::analyze_query(g, q, None);
    let mut answer = Answer::analyzed(&report.diagnostics);
    if report.provably_empty {
        cache.note_short_circuit();
        answer.short_circuited = true;
        return answer;
    }
    let rows = kgq_cypher::execute_governed(g, q, cache, gov);
    answer.render(rows, EXHAUSTED, |out, rows| {
        lines(out, rows, |out, row| tabbed(out, row))
    })
}

/// A SPARQL `SELECT` — rows, or the single-row `COUNT(*)` — over a
/// triple store. `sketch` supplies the planner statistics and is only
/// called when a plan is needed (not for a provably-empty pattern). The
/// rows stay term symbols until they are written into the body.
pub fn sparql<S: Borrow<StoreSketch>>(
    st: &TripleStore,
    sketch: impl FnOnce() -> S,
    q: &SelectQuery,
    gov: &Governor,
) -> Answer {
    let (answer, rows) = match kgq_rdf::select_governed_with(st, q, sketch, gov) {
        Ok(outcome) => {
            let mut answer = Answer::analyzed(&outcome.report.diagnostics);
            answer.short_circuited = outcome.report.provably_empty;
            answer.planned = !answer.short_circuited;
            answer.approx_count = outcome.approx_count;
            (answer, Ok(outcome.rows))
        }
        Err(e) => (Answer::analyzed(&[]), Err(e)),
    };
    answer.render(rows, EXHAUSTED, |out, rows| rows.write(st, out))
}

/// What an `ANALYZE` request (or a `--explain` flag) inspects: a parsed
/// query of one of the four languages, with the data it was parsed
/// against.
pub enum Subject<'a> {
    /// A path expression and its source text.
    Rpq(&'a PropertyGraph, &'a SchemaSummary, &'a PathExpr, &'a str),
    /// A Cypher query and its source text.
    Cypher(&'a PropertyGraph, &'a kgq_cypher::Query, &'a str),
    /// A SPARQL `SELECT`.
    Sparql(&'a TripleStore, &'a SelectQuery),
    /// A Horn-rule program.
    Rules(&'a TripleStore, &'a [kgq_logic::Rule]),
}

/// `ANALYZE`: runs the subject's static analyzer and renders its report
/// without executing anything.
pub fn analyze(subject: Subject<'_>) -> Answer {
    let (diagnostics, body) = match subject {
        Subject::Rpq(g, schema, expr, text) => {
            let report = analyze_expr(expr, schema, Some((text, g.labeled().consts())));
            let body = report.render(text);
            (report.diagnostics, body)
        }
        Subject::Cypher(g, q, text) => {
            let report = kgq_cypher::analyze_query(g, q, Some(text));
            let body = report.render(text);
            (report.diagnostics, body)
        }
        Subject::Sparql(st, q) => {
            let (report, body) = kgq_rdf::explain_parsed(st, q);
            (report.diagnostics, body)
        }
        Subject::Rules(st, rules) => {
            let report = kgq_logic::analyze_program(st, rules);
            let body = report.render();
            (report.diagnostics, body)
        }
    };
    Answer {
        body,
        ..Answer::analyzed(&diagnostics)
    }
}

/// The error both front-ends give for an `ANALYZE` kind they do not
/// know.
pub fn unknown_analyze_kind(kind: &str) -> String {
    format!("unknown analyze kind `{kind}` (expected query|cypher|sparql|rules)")
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgq_core::parse_expr;
    use kgq_graph::generate::gnm_labeled;

    fn count(g: &mut PropertyGraph, text: &str, k: usize) -> Answer {
        let expr = parse_expr(text, g.labeled_mut().consts_mut()).unwrap();
        let schema = SchemaSummary::from_property(g);
        let (cache, gov) = (QueryCache::new(), Governor::unlimited());
        rpq(g, &schema, &cache, RpqOp::Count(k), &expr, text, &gov)
    }

    #[test]
    fn count_routes_on_the_analyzer_verdict() {
        let mut g = PropertyGraph::from_labeled(gnm_labeled(20, 80, &["v"], &["p", "q"], 3));
        // Provably empty: exact zero without building anything.
        let dead = count(&mut g, "ghost/p", 3);
        assert!(dead.ok && dead.short_circuited, "{}", dead.body);
        assert_eq!(dead.body, "0\n");
        // Deny (determinization blowup): straight to the FPRAS estimate,
        // degraded with the analyzer's cause, not the budget's.
        let blowup = "(p+q)*/p".to_string() + &"/(p+q)".repeat(13);
        let denied = count(&mut g, &blowup, 2);
        assert!(denied.ok && !denied.partial, "{}", denied.body);
        assert_eq!(denied.verdicts[0], 1, "{:?}", denied.verdicts);
        let (estimate, trailer) = denied.body.split_once('\n').unwrap();
        assert!(estimate.starts_with('~'), "{estimate}");
        assert_eq!(trailer, format!("# degraded: {DENIED}\n"));
        // Clean queries still count exactly.
        let live = count(&mut g, "p/q", 2);
        let exact: u128 = live.body.trim().parse().expect("an exact count");
        assert!(exact > 0 && !live.short_circuited);
    }
}
