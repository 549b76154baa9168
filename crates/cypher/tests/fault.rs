//! Fault injection through the Cypher executor (requires
//! `--features fault-injection`): an injected panic inside the governed
//! backtracking search must surface as a typed [`EvalError::Panic`] and
//! leave the shared query cache reusable.
#![cfg(feature = "fault-injection")]

use kgq_core::cache::QueryCache;
use kgq_core::govern::{fault, EvalError, Governor};
use kgq_cypher::{execute, execute_governed, parse_query};
use kgq_graph::figures::figure2_property;

#[test]
fn injected_match_panic_is_typed_and_the_cache_survives() {
    let g = figure2_property();
    let q = parse_query("MATCH (p:person)-[:rides]->(b:bus) RETURN p, b").unwrap();
    let cache = QueryCache::new();
    let reference = execute(&g, &q);

    fault::arm("cypher::match", fault::Action::Panic, 0);
    let err = execute_governed(&g, &q, &cache, &Governor::unlimited()).unwrap_err();
    fault::clear();
    match err {
        EvalError::Panic(msg) => assert!(msg.contains("injected fault at cypher::match")),
        other => panic!("expected a typed panic, got {other}"),
    }

    // The next run on the same cache is correct.
    let again = execute_governed(&g, &q, &cache, &Governor::unlimited()).unwrap();
    assert!(!again.is_partial());
    assert_eq!(again.value, reference);
}
