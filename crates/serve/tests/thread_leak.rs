//! The thread-leak check, alone in its own test binary.
//!
//! It compares the *process-wide* thread count from `/proc/self/status`
//! before boot and after shutdown, so it must be the only test in its
//! process: beside sibling tests that boot servers of their own (as it
//! once sat in `serve.rs`) the count moves under it and the comparison
//! fails at random. Keep this file to this one test.

use kgq_core::Budget;
use kgq_graph::generate::{contact_network, ContactParams};
use kgq_rdf::parse_ntriples;
use kgq_serve::{process_thread_count, serve, stat, Caps, Client, ServerConfig};
use std::time::Duration;

#[test]
fn ping_stats_and_clean_shutdown_without_leaked_threads() {
    let before = process_thread_count().expect("procfs");
    let g = contact_network(&ContactParams {
        people: 40,
        buses: 5,
        addresses: 15,
        seed: 23,
        ..ContactParams::default()
    });
    let st = parse_ntriples("<a> <knows> <b> .\n<b> <knows> <c> .\n").unwrap();
    let handle = serve(
        g,
        st,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 3,
            caps: Budget::unlimited(),
        },
    )
    .expect("bind");
    let mut c = Client::connect(handle.addr()).expect("connect");
    c.set_timeout(Some(Duration::from_secs(60))).unwrap();
    assert!(c.ping().unwrap());
    // One request per engine, so the workers and the scans they fan out
    // have run before the count is taken.
    let rpq = c.rpq("pairs", "(rides + contact)*", &Caps::none()).unwrap();
    let cypher = c
        .cypher(
            "MATCH (p:person)-[:rides]->(b:bus) RETURN p, b",
            &Caps::none(),
        )
        .unwrap();
    let sparql = c
        .sparql("SELECT ?x ?y WHERE { ?x <knows> ?y . }", &Caps::none())
        .unwrap();
    assert!(rpq.ok && cypher.ok && sparql.ok);
    let stats = c.stats().unwrap();
    assert_eq!(stat(&stats, "workers"), Some(3));
    assert!(stat(&stats, "requests").unwrap() >= 4);
    assert_eq!(stat(&stats, "errors"), Some(0));
    drop(c);
    handle.shutdown();
    // Every spawned thread (accept, workers, readers) is joined.
    let after = process_thread_count().expect("procfs");
    assert_eq!(after, before, "threads leaked across server lifetime");
}
