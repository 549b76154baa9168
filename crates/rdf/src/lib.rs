//! # kgq-rdf — an RDF triple store with pattern matching
//!
//! Section 3 of the reproduced paper singles out RDF as "a class of
//! labeled graphs that is widely used in practice": edges are replaced by
//! triples `(s, p, o)` without edge identifiers, and constants are IRIs
//! with a universal interpretation. This crate provides:
//!
//! * [`store`] — a [`store::TripleStore`] keeping every triple in all
//!   six sorted orderings (SPO, POS, OSP, SOP, PSO, OPS), with
//!   index-selected scans, binary-search lookups, exact prefix counts
//!   and bulk [`store::TripleStore::extend`] loading;
//! * [`ntriples`] — a reader/writer for an N-Triples subset;
//! * [`bgp`] — basic graph pattern matching (the conjunctive core of
//!   SPARQL \[38\]); [`bgp::Bgp::solve`] runs on the worst-case optimal
//!   leapfrog triejoin in [`lftj`], with the original backtracking
//!   matcher kept as [`bgp::Bgp::solve_baseline`], the testing oracle;
//! * [`lftj`] — the triejoin itself: cardinality-driven variable
//!   elimination order, galloping trie cursors over the sorted
//!   orderings, deterministic partitioned parallelism, and governed
//!   execution yielding exact-prefix partial answers;
//! * [`analyze`] — static BGP checks (provable emptiness, unused
//!   variables, cartesian products) surfaced by `kgq sparql --explain`
//!   and short-circuited before planning;
//! * [`convert`] — the correspondence with labeled graphs used throughout
//!   the paper: predicates become edge labels, `rdf:type` triples become
//!   node labels, so the path-query machinery of `kgq-core` applies to
//!   RDF data directly;
//! * [`reason`] — RDFS forward chaining (§2.3: knowledge graphs "produce"
//!   knowledge by deduction), materializing subclass/subproperty/domain/
//!   range entailments into the store.

//! ```
//! use kgq_rdf::{TripleStore, Bgp, rpq_pairs};
//!
//! let mut st = TripleStore::new();
//! st.insert_strs("ana", "knows", "ben");
//! st.insert_strs("ben", "knows", "cal");
//! let mut q = Bgp::new();
//! q.add(&mut st, "?x", "knows", "?y");
//! assert_eq!(q.solve(&st).len(), 2);
//! // Property paths via the §4 machinery:
//! let closure = rpq_pairs(&st, "knows/(knows)*").unwrap();
//! assert!(closure.contains(&("ana".to_string(), "cal".to_string())));
//! ```

pub mod analyze;
pub mod bgp;
pub mod convert;
pub mod lftj;
pub mod ntriples;
pub mod query;
pub mod reason;
pub mod sketch;
pub mod sparql;
pub mod store;

pub use analyze::{analyze_bgp, BgpReport, BgpVerdict};
pub use bgp::{Bgp, Binding, TermPattern, TriplePattern};
pub use convert::{labeled_to_rdf, rdf_to_labeled, RDF_TYPE};
pub use lftj::{
    count_planned_governed, plan_sketched, verify_plan, LevelConstraints, LevelEstimate, Plan,
    SketchPlan, Solution,
};
pub use ntriples::{parse_ntriples, write_ntriples};
pub use query::{rpq_pairs, rpq_starts, RpqError};
pub use reason::{
    materialize_rdfs, InferenceStats, RDFS_DOMAIN, RDFS_RANGE, RDFS_SUBCLASS, RDFS_SUBPROPERTY,
};
pub use sketch::{approx_count_bgp, approx_count_bgp_governed, BgpCountParams, StoreSketch};
pub use sparql::{
    explain_parsed, explain_select, parse_select, select, select_governed_with, SelectOutcome,
    SelectQuery, SelectRows, SparqlParseError, SymTable,
};
pub use store::{IndexOrder, Triple, TripleStore};
