//! Horn rules over triple stores, with bodies matched by the
//! worst-case optimal join engine.
//!
//! The paper's §2.3 "producing new knowledge" facet is rule application:
//! a Datalog-style rule `head ← body` derives the head triple for every
//! binding of its body — a conjunction of triple patterns, i.e. exactly
//! a BGP. Bodies are therefore matched through `kgq-rdf`'s leapfrog
//! triejoin ([`kgq_rdf::lftj`]): cyclic rule bodies (the expensive case
//! for the old backtracking matcher) evaluate within the AGM bound, and
//! each fixpoint round bulk-inserts its derivations with one sort per
//! ordering instead of per-triple splices.
//!
//! Rules must be *range-restricted* (every head variable occurs in the
//! body), the classic safety condition guaranteeing derived triples are
//! ground.

use crate::analyze::ProgramReport;
use kgq_core::govern::{Completion, EvalError, Governed, Governor, Interrupt};
use kgq_rdf::bgp::{Bgp, TermPattern, TriplePattern};
use kgq_rdf::store::{Triple, TripleStore};
use kgq_rdf::{lftj, Binding};
use std::fmt;

/// A Horn rule: derive `head` for every match of `body`.
#[derive(Clone, Debug)]
pub struct Rule {
    /// The derived triple pattern (constants and body variables only).
    pub head: TriplePattern,
    /// The condition: a conjunction of triple patterns.
    pub body: Bgp,
}

/// Why a rule was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuleError {
    /// A head variable does not occur in the body, so the derived triple
    /// would not be ground.
    NotRangeRestricted(String),
}

impl fmt::Display for RuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleError::NotRangeRestricted(v) => {
                write!(f, "head variable ?{v} does not occur in the rule body")
            }
        }
    }
}

impl std::error::Error for RuleError {}

fn body_vars(body: &Bgp) -> Vec<&str> {
    let mut vars = Vec::new();
    for pat in &body.patterns {
        for t in [&pat.s, &pat.p, &pat.o] {
            if let TermPattern::Var(v) = t {
                if !vars.contains(&v.as_str()) {
                    vars.push(v.as_str());
                }
            }
        }
    }
    vars
}

impl Rule {
    /// Validates range restriction and builds the rule.
    pub fn new(head: TriplePattern, body: Bgp) -> Result<Rule, RuleError> {
        let vars = body_vars(&body);
        for t in [&head.s, &head.p, &head.o] {
            if let TermPattern::Var(v) = t {
                if !vars.contains(&v.as_str()) {
                    return Err(RuleError::NotRangeRestricted(v.clone()));
                }
            }
        }
        Ok(Rule { head, body })
    }

    /// Convenience constructor with the `?var` string convention of
    /// [`Bgp::add`]: `Rule::parse(st, ("?x", "knows", "?z"),
    /// &[("?x", "knows", "?y"), ("?y", "knows", "?z")])`.
    pub fn parse(
        st: &mut TripleStore,
        head: (&str, &str, &str),
        body: &[(&str, &str, &str)],
    ) -> Result<Rule, RuleError> {
        let mut head_bgp = Bgp::new();
        head_bgp.add(st, head.0, head.1, head.2);
        let mut body_bgp = Bgp::new();
        for (s, p, o) in body {
            body_bgp.add(st, s, p, o);
        }
        let head_pat = head_bgp.patterns.remove(0);
        Rule::new(head_pat, body_bgp)
    }

    /// Instantiates the head under one body match.
    fn instantiate(&self, binding: &Binding) -> Option<Triple> {
        let value = |t: &TermPattern| match t {
            TermPattern::Const(c) => Some(*c),
            TermPattern::Var(v) => binding.get(v).copied(),
        };
        Some(Triple {
            s: value(&self.head.s)?,
            p: value(&self.head.p)?,
            o: value(&self.head.o)?,
        })
    }
}

/// Result of running rules to a fixpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FixpointStats {
    /// Triples added by rule application.
    pub derived: usize,
    /// Rounds executed (the last one derives nothing new).
    pub rounds: usize,
}

/// Applies `rules` to a fixpoint, materializing derived triples into
/// `st`. Every body is matched by the leapfrog triejoin; each round's
/// derivations are bulk-inserted ([`TripleStore::extend`]).
///
/// The program is statically analyzed first
/// ([`crate::analyze::analyze_program`]): rules the analyzer proves dead
/// are skipped (they can never fire, so skipping is sound), and the
/// iteration is capped at the analyzer's round bound — a defensive
/// backstop that turns a bound-analysis bug into early termination of a
/// monotone (hence still sound, merely incomplete) materialization
/// rather than an infinite loop.
pub fn fixpoint(st: &mut TripleStore, rules: &[Rule]) -> FixpointStats {
    let analysis = crate::analyze::analyze_program(st, rules);
    match rounds(st, rules, &analysis, None) {
        Ok(done) => done.value,
        Err(e) => unreachable!("ungoverned rounds cannot fail: {e}"),
    }
}

/// [`fixpoint`] under a governor. Body matching charges the governor
/// through every trie seek; when a round's matching is interrupted, the
/// triples derived so far are still sound (rule application is
/// monotone), so they stay materialized and the result reports
/// `Partial` with the interrupt reason.
///
/// Like [`fixpoint`], consults the static program analysis first: a
/// [`kgq_core::analyze::Severity::Deny`] verdict (an unsafe rule built
/// by hand around [`Rule::new`]) is refused up front as
/// [`EvalError::InvalidInput`], dead rules are skipped, and the round
/// bound pre-sizes the iteration budget.
pub fn fixpoint_governed(
    st: &mut TripleStore,
    rules: &[Rule],
    gov: &Governor,
) -> Result<Governed<FixpointStats>, EvalError> {
    let analysis = crate::analyze::analyze_program(st, rules);
    if let Some(denied) = analysis
        .diagnostics
        .iter()
        .find(|d| d.severity == kgq_core::analyze::Severity::Deny)
    {
        return Err(EvalError::InvalidInput(denied.message.clone()));
    }
    rounds(st, rules, &analysis, Some(gov))
}

/// The round loop of both entries: match every live rule's body
/// (governed when `gov` is given), bulk-insert the round's derivations,
/// and stop when a round derives nothing, matching is interrupted, or
/// the analyzer's round bound is reached.
fn rounds(
    st: &mut TripleStore,
    rules: &[Rule],
    analysis: &ProgramReport,
    gov: Option<&Governor>,
) -> Result<Governed<FixpointStats>, EvalError> {
    let live: Vec<&Rule> = rules
        .iter()
        .enumerate()
        .filter(|(i, _)| !analysis.dead_rules.contains(i))
        .map(|(_, r)| r)
        .collect();
    let mut derived = 0usize;
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        let mut fresh: Vec<Triple> = Vec::new();
        let mut interrupted = None;
        for rule in &live {
            let matched = match gov {
                Some(gov) => lftj::solve_governed(st, &rule.body, gov)?,
                None => Governed::complete(lftj::solve(st, &rule.body)),
            };
            for binding in matched.value.bindings() {
                if let Some(t) = rule.instantiate(&binding) {
                    fresh.push(t);
                }
            }
            if let Completion::Partial(why) = matched.completion {
                interrupted = Some(why);
                break;
            }
        }
        let added = st.extend(fresh);
        derived += added;
        let stats = FixpointStats { derived, rounds };
        if let Some(why) = interrupted {
            return Ok(Governed::partial(stats, why));
        }
        if added == 0 {
            return Ok(Governed::complete(stats));
        }
        // Defensive: the analyzer's round bound is the iteration budget.
        // A sound bound is never hit (every productive round derives at
        // least one triple); hitting it means a bound-analysis bug, and
        // the monotone partial materialization is reported honestly.
        if rounds as u64 >= analysis.round_bound {
            return Ok(Governed::partial(stats, Interrupt::StepBudget));
        }
    }
}

/// Why a rule program text failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuleParseError {
    /// 1-based line number of the offending rule.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for RuleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for RuleParseError {}

fn rule_tokens(line: usize, atom: &str) -> Result<[String; 3], RuleParseError> {
    let toks: Vec<&str> = atom.split_whitespace().collect();
    if toks.len() != 3 {
        return Err(RuleParseError {
            line,
            message: format!(
                "atom `{}` must have exactly three terms, found {}",
                atom.trim(),
                toks.len()
            ),
        });
    }
    Ok([0, 1, 2].map(|i| {
        let t = toks[i];
        // `<iri>` brackets are cosmetic; strip them like the N-Triples
        // reader so rule constants line up with loaded data.
        match t.strip_prefix('<').and_then(|u| u.strip_suffix('>')) {
            Some(inner) => inner.to_owned(),
            None => t.to_owned(),
        }
    }))
}

/// Parses a rule program in the textual syntax used by `kgq analyze
/// rules` and the `ANALYZE` server verb: one rule per line,
///
/// ```text
/// # transitive closure
/// ?x path ?y :- ?x edge ?y .
/// ?x path ?z :- ?x path ?y, ?y edge ?z .
/// ```
///
/// Terms are whitespace-separated; `?name` is a variable, `<iri>`
/// brackets are stripped, anything else is a constant. `#` starts a
/// comment, the trailing `.` is optional, blank lines are skipped. Every
/// rule is validated by [`Rule::new`] (range restriction).
pub fn parse_program(st: &mut TripleStore, text: &str) -> Result<Vec<Rule>, RuleParseError> {
    let mut rules = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let stripped = match raw.split_once('#') {
            Some((code, _comment)) => code,
            None => raw,
        };
        let stripped = stripped.trim();
        let stripped = stripped.strip_suffix('.').unwrap_or(stripped).trim();
        if stripped.is_empty() {
            continue;
        }
        let Some((head_text, body_text)) = stripped.split_once(":-") else {
            return Err(RuleParseError {
                line,
                message: "expected `head :- body` (missing `:-`)".to_owned(),
            });
        };
        let head = rule_tokens(line, head_text)?;
        let mut head_holder = Bgp::new();
        head_holder.add(st, &head[0], &head[1], &head[2]);
        let head_pat = head_holder.patterns.remove(0);
        let mut body = Bgp::new();
        for atom in body_text.split(',') {
            if atom.trim().is_empty() {
                return Err(RuleParseError {
                    line,
                    message: "empty atom in rule body".to_owned(),
                });
            }
            let t = rule_tokens(line, atom)?;
            body.add(st, &t[0], &t[1], &t[2]);
        }
        if body.patterns.is_empty() {
            return Err(RuleParseError {
                line,
                message: "rule body needs at least one atom".to_owned(),
            });
        }
        let rule = Rule::new(head_pat, body).map_err(|e| RuleParseError {
            line,
            message: e.to_string(),
        })?;
        rules.push(rule);
    }
    Ok(rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgq_core::govern::{Budget, Interrupt};

    fn chain_store(n: usize) -> TripleStore {
        let mut st = TripleStore::new();
        for i in 0..n {
            st.insert_strs(&format!("n{i}"), "edge", &format!("n{}", i + 1));
        }
        st
    }

    #[test]
    fn transitive_closure_via_fixpoint() {
        let mut st = chain_store(4);
        let rules = vec![
            Rule::parse(&mut st, ("?x", "path", "?y"), &[("?x", "edge", "?y")]).unwrap(),
            Rule::parse(
                &mut st,
                ("?x", "path", "?z"),
                &[("?x", "path", "?y"), ("?y", "edge", "?z")],
            )
            .unwrap(),
        ];
        let stats = fixpoint(&mut st, &rules);
        // Chain n0→…→n4: 4+3+2+1 = 10 path triples.
        assert_eq!(stats.derived, 10);
        assert!(stats.rounds >= 3, "closure needs chaining, got {stats:?}");
        let path = st.get_term("path").unwrap();
        assert_eq!(st.count(None, Some(path), None), 10);
    }

    #[test]
    fn cyclic_body_rule() {
        // Mutual acquaintance: both directions present.
        let mut st = TripleStore::new();
        st.insert_strs("a", "knows", "b");
        st.insert_strs("b", "knows", "a");
        st.insert_strs("b", "knows", "c");
        let rule = Rule::parse(
            &mut st,
            ("?x", "friend", "?y"),
            &[("?x", "knows", "?y"), ("?y", "knows", "?x")],
        )
        .unwrap();
        let stats = fixpoint(&mut st, &[rule]);
        assert_eq!(stats.derived, 2); // (a,b) and (b,a)
        let friend = st.get_term("friend").unwrap();
        assert_eq!(st.count(None, Some(friend), None), 2);
    }

    #[test]
    fn head_constants_are_allowed() {
        let mut st = TripleStore::new();
        st.insert_strs("ana", "advises", "ben");
        let rule = Rule::parse(
            &mut st,
            ("?x", "type", "Advisor"),
            &[("?x", "advises", "?y")],
        )
        .unwrap();
        fixpoint(&mut st, &[rule]);
        let t = Triple {
            s: st.get_term("ana").unwrap(),
            p: st.get_term("type").unwrap(),
            o: st.get_term("Advisor").unwrap(),
        };
        assert!(st.contains(t));
    }

    #[test]
    fn unsafe_rule_is_rejected() {
        let mut st = TripleStore::new();
        let err = Rule::parse(&mut st, ("?x", "p", "?ghost"), &[("?x", "q", "?y")]).unwrap_err();
        assert_eq!(err, RuleError::NotRangeRestricted("ghost".to_owned()));
    }

    #[test]
    fn fixpoint_is_idempotent() {
        let mut st = chain_store(3);
        let rules = vec![
            Rule::parse(&mut st, ("?x", "path", "?y"), &[("?x", "edge", "?y")]).unwrap(),
            Rule::parse(
                &mut st,
                ("?x", "path", "?z"),
                &[("?x", "path", "?y"), ("?y", "edge", "?z")],
            )
            .unwrap(),
        ];
        fixpoint(&mut st, &rules);
        let size = st.len();
        let again = fixpoint(&mut st, &rules);
        assert_eq!(again.derived, 0);
        assert_eq!(st.len(), size);
    }

    #[test]
    fn governed_fixpoint_unlimited_matches_plain() {
        let mut a = chain_store(4);
        let mut b = chain_store(4);
        let mk = |st: &mut TripleStore| {
            vec![
                Rule::parse(st, ("?x", "path", "?y"), &[("?x", "edge", "?y")]).unwrap(),
                Rule::parse(
                    st,
                    ("?x", "path", "?z"),
                    &[("?x", "path", "?y"), ("?y", "edge", "?z")],
                )
                .unwrap(),
            ]
        };
        let ra = mk(&mut a);
        let rb = mk(&mut b);
        let plain = fixpoint(&mut a, &ra);
        let gov = Governor::unlimited();
        let governed = fixpoint_governed(&mut b, &rb, &gov).unwrap();
        assert!(governed.completion.is_complete());
        assert_eq!(governed.value, plain);
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn parse_program_round_trips_closure() {
        let mut st = chain_store(4);
        let text = "# transitive closure\n\
                    ?x path ?y :- ?x edge ?y .\n\
                    \n\
                    ?x path ?z :- ?x path ?y, ?y edge ?z .\n";
        let rules = parse_program(&mut st, text).unwrap();
        assert_eq!(rules.len(), 2);
        let stats = fixpoint(&mut st, &rules);
        assert_eq!(stats.derived, 10);
    }

    #[test]
    fn parse_program_strips_iri_brackets() {
        let mut st = TripleStore::new();
        st.insert_strs("http://x.test/a", "http://x.test/p", "b");
        let rules = parse_program(
            &mut st,
            "?s <http://x.test/q> ?o :- ?s <http://x.test/p> ?o",
        )
        .unwrap();
        let stats = fixpoint(&mut st, &rules);
        assert_eq!(stats.derived, 1);
        let q = st.get_term("http://x.test/q").unwrap();
        assert_eq!(st.count(None, Some(q), None), 1);
    }

    #[test]
    fn parse_program_reports_errors_with_lines() {
        let mut st = TripleStore::new();
        let err = parse_program(&mut st, "\n?x p ?y ?z :- ?x q ?y").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("three terms"));
        let err = parse_program(&mut st, "?x p ?y").unwrap_err();
        assert!(err.message.contains(":-"));
        let err = parse_program(&mut st, "?x p ?ghost :- ?x q ?y").unwrap_err();
        assert!(err.message.contains("?ghost"));
        let err = parse_program(&mut st, "?x p ?y :- ?x q ?y,").unwrap_err();
        assert!(err.message.contains("empty atom"));
    }

    #[test]
    fn fixpoint_skips_dead_rules_without_changing_results() {
        let mut st = chain_store(3);
        let rules = vec![
            Rule::parse(&mut st, ("?x", "hop", "?y"), &[("?x", "edge", "?y")]).unwrap(),
            // Dead: `ghost` never appears and nothing derives it.
            Rule::parse(&mut st, ("?x", "haunt", "?y"), &[("?x", "ghost", "?y")]).unwrap(),
        ];
        let stats = fixpoint(&mut st, &rules);
        assert_eq!(stats.derived, 3);
        assert!(
            st.get_term("haunt").is_none() || {
                let h = st.get_term("haunt").unwrap();
                st.count(None, Some(h), None) == 0
            }
        );
    }

    #[test]
    fn governed_fixpoint_denies_hand_built_unsafe_rule() {
        let mut st = chain_store(2);
        let mut body = Bgp::new();
        body.add(&mut st, "?x", "edge", "?y");
        let mut head_holder = Bgp::new();
        head_holder.add(&mut st, "?x", "edge", "?ghost");
        let rule = Rule {
            head: head_holder.patterns.remove(0),
            body,
        };
        let gov = Governor::unlimited();
        let err = fixpoint_governed(&mut st, &[rule], &gov).unwrap_err();
        assert!(matches!(err, EvalError::InvalidInput(_)));
        assert!(err.to_string().contains("?ghost"));
    }

    #[test]
    fn governed_fixpoint_interrupts_soundly() {
        let mut st = chain_store(6);
        let rules = vec![
            Rule::parse(&mut st, ("?x", "path", "?y"), &[("?x", "edge", "?y")]).unwrap(),
            Rule::parse(
                &mut st,
                ("?x", "path", "?z"),
                &[("?x", "path", "?y"), ("?y", "edge", "?z")],
            )
            .unwrap(),
        ];
        let before = st.len();
        let gov = Governor::new(&Budget::unlimited().with_max_results(3));
        let out = fixpoint_governed(&mut st, &rules, &gov).unwrap();
        assert_eq!(out.completion, Completion::Partial(Interrupt::ResultBudget));
        // Everything materialized is a genuine derivation: all derived
        // triples use the `path` predicate and connect chain nodes.
        let path = st.get_term("path").unwrap();
        let derived: Vec<Triple> = st.scan(None, Some(path), None).collect();
        assert_eq!(st.len(), before + derived.len());
        assert!(!derived.is_empty());
    }
}
