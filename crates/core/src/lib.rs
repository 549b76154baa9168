//! # kgq-core — querying graphs with path regular expressions
//!
//! The primary contribution of the reproduced tutorial (Arenas, Gutierrez
//! & Sequeda, SIGMOD 2021): a unified path-query engine over the three
//! graph data models of `kgq-graph`, implementing Section 4 end to end.
//!
//! * [`expr`] / [`parser`] — the regular-expression grammar (1) with node
//!   tests `?t`, inverse steps `t^-`, boolean tests, property tests
//!   `[p=v]` and feature tests `[#i=v]`.
//! * [`automata`] — Thompson NFAs with guarded ε-transitions, plus
//!   Hopcroft minimization of their determinization (canonical automata
//!   for smaller products and better cache sharing).
//! * [`bitkernel`] — bit-parallel multi-source reachability: 64 BFS
//!   sources advance per pass over the product.
//! * [`model`] — the [`model::PathGraph`] evaluation interface and views
//!   for labeled, property and vector-labeled graphs.
//! * [`product`] — the graph × NFA product over the path-word alphabet,
//!   and its determinization.
//! * [`eval`] — reachability-style evaluation: node extraction, pairs,
//!   shortest witnesses.
//! * [`count`] — exact `Count(G, r, k)` (DP on the determinized product)
//!   and the brute-force baseline.
//! * [`approx`] — FPRAS-style approximate counting and
//!   approximately-uniform generation (ACJR \[9, 10\]).
//! * [`gen`] — exactly-uniform generation with a preprocessing +
//!   generation-phase interface.
//! * [`enumerate`] — polynomial-delay enumeration of answers.
//! * [`path`] — paths as first-class values.
//! * [`simplify`] — semantics-preserving expression rewriting.
//! * [`govern`] — resource governance: budgets, deadlines, cooperative
//!   cancellation, panic isolation, graceful degradation.
//! * [`analyze`] — static query analysis ahead of compilation:
//!   emptiness, test satisfiability, finiteness/blowup, plan advice and
//!   complexity-class tagging with spanned diagnostics.

// Several hot loops index multiple parallel arrays at once; the
// iterator rewrites clippy suggests obscure them.
#![allow(clippy::needless_range_loop)]
pub mod analyze;
pub mod approx;
pub mod automata;
pub mod bitkernel;
pub mod cache;
pub mod count;
pub mod enumerate;
pub mod eval;
pub mod expr;
pub mod gen;
pub mod govern;
pub mod model;
pub mod parallel;
pub mod parser;
pub mod path;
pub mod product;
pub mod scale;
pub mod simplify;

pub use analyze::{
    analyze_expr, ComplexityClass, Diagnostic, LanguageFacts, PlanAdvice, Position, Report,
    Severity, Tri,
};
pub use approx::{
    approx_count, approx_count_amplified, approx_count_governed, ApproxCounter, ApproxParams,
};
pub use automata::{MinimizedNfa, Nfa, NfaSignature};
pub use cache::{CacheStats, CompiledQuery, QueryCache};
pub use count::{
    count_paths, count_paths_governed, count_paths_governed_with, count_paths_naive, CountError,
    CountOutcome, ExactCounter,
};
pub use enumerate::{
    enumerate_paths, enumerate_paths_governed, enumerate_paths_resumed, enumerate_paths_upto,
    Cursor, CursorError, EnumerationPage, PathEnumerator,
};
pub use eval::{eval_pairs, matching_starts, paths_between, Evaluator};
pub use expr::{PathExpr, Test};
pub use gen::UniformSampler;
pub use govern::{
    Budget, CancelToken, Completion, EvalError, Governed, Governor, Interrupt, Ticker,
};
pub use model::{LabeledView, PathGraph, PropertyView, VectorView};
pub use parser::{parse_expr, ParseError};
pub use path::Path;
pub use product::{DetProduct, Product};
pub use scale::{
    triangle_count, LabelAdjacency, LabelDfa, PackedAdjacency, RawAdjacency, ScaleError,
    ScaleEvaluator, TriangleCount,
};
pub use simplify::{simplify, simplify_test};
