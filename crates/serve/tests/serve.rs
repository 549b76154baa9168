//! End-to-end server tests over real TCP connections.

use kgq_core::Budget;
use kgq_graph::generate::{contact_network, ContactParams};
use kgq_rdf::parse_ntriples;
use kgq_serve::{serve, stat, Caps, Client, ServerConfig};
use std::time::Duration;

const NT: &str = "<a> <knows> <b> .\n<b> <knows> <c> .\n<c> <knows> <a> .\n\
                  <a> <type> <P> .\n<b> <type> <P> .\n";

fn boot(caps: Budget, workers: usize) -> kgq_serve::ServerHandle {
    let g = contact_network(&ContactParams {
        people: 40,
        buses: 5,
        addresses: 15,
        seed: 23,
        ..ContactParams::default()
    });
    let st = parse_ntriples(NT).unwrap();
    serve(
        g,
        st,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            caps,
        },
    )
    .expect("bind")
}

fn connect(handle: &kgq_serve::ServerHandle) -> Client {
    let c = Client::connect(handle.addr()).expect("connect");
    c.set_timeout(Some(Duration::from_secs(60))).unwrap();
    c
}

#[test]
fn shutdown_verb_unblocks_wait() {
    let handle = boot(Budget::unlimited(), 2);
    let mut c = connect(&handle);
    let resp = c.shutdown().unwrap();
    assert!(resp.ok);
    handle.wait(); // returns because SHUTDOWN flipped the flag
    handle.shutdown();
}

#[test]
fn concurrent_clients_get_byte_identical_results_to_a_solo_run() {
    let handle = boot(Budget::unlimited(), 4);
    // Solo baselines, one per engine, on a fresh connection.
    let mut solo = connect(&handle);
    let rpq_expr = "(rides + contact)/rides^-";
    let cy = "MATCH (p:person)-[:rides]->(b:bus) RETURN p, b";
    let sq = "SELECT ?x ?y WHERE { ?x <knows> ?y . ?y <type> <P> . }";
    let base_rpq = solo.rpq("pairs", rpq_expr, &Caps::none()).unwrap();
    let base_cy = solo.cypher(cy, &Caps::none()).unwrap();
    let base_sq = solo.sparql(sq, &Caps::none()).unwrap();
    assert!(base_rpq.ok && base_cy.ok && base_sq.ok);
    assert!(!base_rpq.body.is_empty());

    let clients = 6;
    let rounds = 8;
    std::thread::scope(|scope| {
        for t in 0..clients {
            let (base_rpq, base_cy, base_sq) = (&base_rpq, &base_cy, &base_sq);
            let handle = &handle;
            scope.spawn(move || {
                let mut c = connect(handle);
                for r in 0..rounds {
                    // Stagger the mix so all three engines overlap.
                    match (t + r) % 3 {
                        0 => {
                            let got = c.rpq("pairs", rpq_expr, &Caps::none()).unwrap();
                            assert_eq!(got.body, base_rpq.body, "client {t} round {r}");
                        }
                        1 => {
                            let got = c.cypher(cy, &Caps::none()).unwrap();
                            assert_eq!(got.body, base_cy.body, "client {t} round {r}");
                        }
                        _ => {
                            let got = c.sparql(sq, &Caps::none()).unwrap();
                            assert_eq!(got.body, base_sq.body, "client {t} round {r}");
                        }
                    }
                }
            });
        }
    });
    // The shared cache served the repeats, and STATS reports it.
    assert!(handle.snapshot().cache().hits() > 0);
    let stats = solo.stats().unwrap();
    assert!(stat(&stats, "cache_hits").unwrap() > 0);
    assert_eq!(stat(&stats, "errors"), Some(0));
    handle.shutdown();
}

#[test]
fn budget_tripping_client_gets_exact_prefix_partials_while_others_run_clean() {
    let handle = boot(Budget::unlimited(), 3);
    let expr = "(rides + contact + lives)*";
    let mut solo = connect(&handle);
    let full = solo.rpq("pairs", expr, &Caps::none()).unwrap();
    assert!(full.ok && !full.is_partial());

    std::thread::scope(|scope| {
        // The tripper: a tiny result budget on an expensive query.
        let handle_ref = &handle;
        let full_ref = &full;
        scope.spawn(move || {
            let mut c = connect(handle_ref);
            let caps = Caps {
                max_results: Some(5),
                ..Caps::default()
            };
            for _ in 0..10 {
                let got = c.rpq("pairs", expr, &caps).unwrap();
                assert!(got.ok, "{}", got.body);
                assert!(got.is_partial(), "tiny budget must trip");
                let trailer = "# partial: result budget reached\n";
                let prefix = got.body.strip_suffix(trailer).expect("typed trailer");
                assert!(
                    full_ref.body.starts_with(prefix),
                    "partial must be an exact prefix"
                );
                assert_eq!(prefix.lines().count(), 5);
            }
        });
        // Two well-behaved clients, running alongside the tripper.
        for t in 0..2 {
            let handle_ref = &handle;
            let full_ref = &full;
            scope.spawn(move || {
                let mut c = connect(handle_ref);
                for r in 0..10 {
                    let got = c.rpq("pairs", expr, &Caps::none()).unwrap();
                    assert!(got.ok && !got.is_partial());
                    assert_eq!(got.body, full_ref.body, "client {t} round {r} diverged");
                }
            });
        }
    });
    let mut c = connect(&handle);
    let stats = c.stats().unwrap();
    assert!(stat(&stats, "partials").unwrap() >= 10);
    assert_eq!(stat(&stats, "errors"), Some(0));
    handle.shutdown();
}

#[test]
fn server_caps_apply_even_to_capless_clients() {
    // Server-side admission control: 4 results max, client asks for
    // nothing special and still gets a typed partial.
    let handle = boot(Budget::unlimited().with_max_results(4), 2);
    let mut c = connect(&handle);
    let got = c
        .rpq("pairs", "(rides + contact + lives)*", &Caps::none())
        .unwrap();
    assert!(got.ok && got.is_partial(), "{}", got.body);
    assert_eq!(got.body.lines().count(), 5); // 4 rows + trailer
    handle.shutdown();
}

/// A small answer costs processor time, not a timer: with a response
/// split over several writes and Nagle on, each round trip waited for
/// the client's delayed ACK, about 44 ms.
#[test]
fn small_answers_round_trip_without_the_delayed_ack_stall() {
    let handle = boot(Budget::unlimited(), 2);
    let mut c = connect(&handle);
    assert!(c.rpq("pairs", "rides", &Caps::none()).unwrap().ok); // warm the cache
    let mut rtt = Vec::new();
    for i in 0..30 {
        let started = std::time::Instant::now();
        if i % 2 == 0 {
            assert!(c.ping().unwrap());
        } else {
            assert!(c.rpq("pairs", "rides", &Caps::none()).unwrap().ok);
        }
        rtt.push(started.elapsed());
    }
    rtt.sort();
    let median = rtt[rtt.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "median round trip {median:?} (all: {rtt:?})"
    );
    handle.shutdown();
}

#[test]
fn malformed_frames_and_bad_queries_do_not_wedge_the_server() {
    let handle = boot(Budget::unlimited(), 2);
    // A connection that sends garbage gets an ERR frame and is dropped.
    {
        use std::io::{Read, Write};
        let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        raw.write_all(b"this is not a frame\n").unwrap();
        let mut buf = Vec::new();
        raw.read_to_end(&mut buf).unwrap(); // server responds then closes
        let text = String::from_utf8_lossy(&buf);
        assert!(text.contains("ERR"), "{text}");
    }
    // Bad queries are ERR responses; the connection stays usable.
    let mut c = connect(&handle);
    let bad = c.rpq("pairs", "((((", &Caps::none()).unwrap();
    assert!(!bad.ok);
    let good = c.rpq("pairs", "rides", &Caps::none()).unwrap();
    assert!(good.ok);
    assert!(c.ping().unwrap());
    handle.shutdown();
}

#[test]
fn an_endless_header_line_closes_the_connection() {
    use std::io::{ErrorKind, Read, Write};
    let handle = boot(Budget::unlimited(), 2);
    let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    raw.set_write_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // 1 MiB with no newline: the server reads one header's worth, answers
    // a protocol error and hangs up, so the rest of the write may fail.
    let _ = raw.write_all(&vec![b'7'; 1 << 20]);
    let mut buf = Vec::new();
    match raw.read_to_end(&mut buf) {
        // The hang-up may reset the connection before the ERR frame lands.
        Ok(_) => assert!(
            buf.is_empty() || String::from_utf8_lossy(&buf).starts_with("0 ERR"),
            "{}",
            String::from_utf8_lossy(&buf)
        ),
        Err(e) => assert!(
            matches!(
                e.kind(),
                ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
            ),
            "the connection stayed open: {e}"
        ),
    }
    let mut c = connect(&handle);
    assert!(c.ping().unwrap());
    handle.shutdown();
}

#[test]
fn disconnect_reclaims_queued_work() {
    // One worker so a backlog can build; a client queues several slow
    // queries then vanishes. The server must reclaim the backlog and
    // stay healthy for others.
    let handle = boot(Budget::unlimited(), 1);
    {
        use std::io::Write;
        let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
        // Hand-rolled pipelined frames (the Client type is lock-step).
        let payload = "pairs\n(rides + contact + lives)*";
        let mut frames = String::new();
        for id in 1..=6 {
            frames.push_str(&format!("{id} QUERY - {}\n{payload}", payload.len()));
        }
        raw.write_all(frames.as_bytes()).unwrap();
        raw.flush().unwrap();
        // Vanish without reading responses.
        drop(raw);
    }
    // The server reclaims the dead client's backlog and serves us.
    let mut c = connect(&handle);
    let got = c.rpq("pairs", "rides", &Caps::none()).unwrap();
    assert!(got.ok);
    handle.shutdown();
}

#[test]
fn sparql_count_is_exact_when_budget_allows_and_degrades_when_starved() {
    let handle = boot(Budget::unlimited(), 2);
    let mut c = connect(&handle);
    // Unlimited budget: COUNT(*) answers exactly, with no markers.
    let exact = c
        .sparql(
            "SELECT (COUNT(*) AS ?n) WHERE { ?x <knows> ?y . }",
            &Caps::none(),
        )
        .unwrap();
    assert!(exact.ok, "{}", exact.body);
    assert_eq!(exact.body, "3\n");
    assert!(!exact.is_partial());
    // A one-step budget: the exact counter trips, the governed
    // approximate path takes over and the reply carries the typed
    // degraded marker (the FPRAS degradation contract).
    let starved = c
        .sparql(
            "SELECT (COUNT(*) AS ?n) WHERE { ?x <knows> ?y . }",
            &Caps {
                max_steps: Some(1),
                ..Caps::default()
            },
        )
        .unwrap();
    assert!(starved.ok, "{}", starved.body);
    assert!(
        starved.body.contains("# degraded:"),
        "starved COUNT must carry the degraded marker: {}",
        starved.body
    );
    // A plain SELECT exercises the sketch-driven planner.
    let plain = c
        .sparql("SELECT ?x ?y WHERE { ?x <knows> ?y . }", &Caps::none())
        .unwrap();
    assert!(plain.ok, "{}", plain.body);
    let stats = c.stats().unwrap();
    assert!(stat(&stats, "plans_sketch").unwrap() >= 1, "{stats}");
    assert!(stat(&stats, "approx_counts").unwrap() >= 1, "{stats}");
    drop(c);
    handle.shutdown();
}
