//! # kgq-cypher — declarative pattern matching for property graphs
//!
//! Section 3 of the reproduced paper presents property graphs as the
//! model "widely used in graph databases \[28, 49, 59, 67\]", citing
//! Cypher and PGQL as its query languages. This crate implements a
//! Cypher-inspired subset over [`kgq_graph::PropertyGraph`]:
//!
//! ```text
//! MATCH (a:person)-[r:rides]->(b:bus), (c:infected)-[:rides]->(b)
//! WHERE a.age = '33' AND r.date <> '3/3/21'
//! RETURN a, a.name, b
//! ```
//!
//! * node patterns `(var:label)` — the label and the variable are both
//!   optional;
//! * relationship patterns `-[var:label]->` and `<-[var:label]-`
//!   (direction matters; label/variable optional);
//! * `WHERE` with `=` / `<>` comparisons of properties against string
//!   literals, combined with `AND`;
//! * `RETURN` of variables (bound node/edge names) and property lookups.
//!
//! Matching uses Cypher's *relationship isomorphism* semantics: within
//! one solution, no relationship (edge) is used twice, while nodes may
//! repeat. Evaluation is backtracking search, extending the most
//! constrained pattern element first.
//!
//! ```
//! use kgq_graph::figures::figure2_property;
//! use kgq_cypher::{execute, parse_query};
//!
//! let g = figure2_property();
//! let q = parse_query("MATCH (p:person) WHERE p.age = '33' RETURN p.name").unwrap();
//! assert_eq!(execute(&g, &q), vec![vec!["Julia".to_string()]]);
//! ```

pub mod analyze;
pub mod ast;
pub mod exec;
pub mod parser;

pub use analyze::analyze_query;
pub use ast::{Direction, Query};
pub use exec::{execute, execute_governed, Row};
pub use parser::{parse_query, QueryParseError};
