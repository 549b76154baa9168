//! The TCP server: accept loop, per-connection readers, worker pool.
//!
//! Thread architecture (all joined on shutdown — nothing is detached):
//!
//! ```text
//! accept loop ──spawns──▶ reader (one per connection)
//!                            │ submit(conn_id, job)
//!                            ▼
//!                      FairScheduler ◀──next()── worker × W
//!                                                  │ execute + respond
//!                                                  ▼
//!                                       conn writer (mutex per conn)
//! ```
//!
//! - Every request runs **governed**: effective budget = server caps ∧
//!   client caps, plus the connection's [`CancelToken`] so a disconnect
//!   trips in-flight work at its next batch boundary.
//! - Responses are written under a per-connection mutex and carry the
//!   request id, so pipelined requests may complete out of order
//!   without interleaving bytes.
//! - Shutdown (the `SHUTDOWN` verb or [`ServerHandle::shutdown`])
//!   closes the scheduler, shuts both halves of every live socket
//!   (unblocking readers), and joins every thread it ever spawned.

use crate::exec::Snapshot;
use crate::protocol::{read_request, write_response, Request, Response, Verb};
use crate::sched::FairScheduler;
use kgq_core::{Budget, CancelToken};
use kgq_graph::PropertyGraph;
use kgq_rdf::TripleStore;
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server construction parameters.
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick.
    pub addr: String,
    /// Worker threads executing queries.
    pub workers: usize,
    /// Server-side caps applied to every request (componentwise min
    /// with the client's own caps).
    pub caps: Budget,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            caps: Budget::unlimited(),
        }
    }
}

/// One live connection: the write half plus its cancellation token.
struct Conn {
    id: u64,
    writer: Mutex<TcpStream>,
    cancel: CancelToken,
}

impl Conn {
    fn respond(&self, resp: &Response) {
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        // A failed write means the client left; in-flight work for this
        // connection is already being cancelled by its reader.
        let _ = write_response(&mut *w, resp);
    }
}

/// One unit of scheduled work.
struct Job {
    conn: Arc<Conn>,
    req: Request,
}

struct Shared {
    snapshot: Snapshot,
    sched: FairScheduler<Job>,
    /// Set once shutdown begins; the accept loop observes it.
    stop: AtomicBool,
    /// Flipped by the `SHUTDOWN` verb; [`ServerHandle::wait`] returns.
    shutdown_requested: Mutex<bool>,
    shutdown_cv: Condvar,
    conns: Mutex<HashMap<u64, Arc<Conn>>>,
    reader_handles: Mutex<Vec<JoinHandle<()>>>,
    workers: usize,
}

impl Shared {
    fn request_shutdown(&self) {
        let mut flag = self
            .shutdown_requested
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        *flag = true;
        self.shutdown_cv.notify_all();
    }
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] aborts the process-exit path of joining
/// threads; call `shutdown` for a clean stop.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

/// Binds, spawns the accept loop and `cfg.workers` workers, and returns
/// immediately. The handle's [`ServerHandle::addr`] carries the actual
/// bound address (useful with port 0).
pub fn serve(
    graph: PropertyGraph,
    store: TripleStore,
    cfg: ServerConfig,
) -> std::io::Result<ServerHandle> {
    serve_with_store(graph, store, None, cfg)
}

/// [`serve`], with a durable store attached: `INSERT`/`DELETE` batches
/// are WAL-committed (fsynced) before they are applied or acknowledged,
/// and `FLUSH` compacts the store. With `durable` the server serves the
/// durable store's own triples and `store` is dropped (see
/// [`Snapshot::with_durable`]); the caller should already have loaded
/// its edge records into `graph` (the CLI does this with
/// [`crate::apply_edges`]).
pub fn serve_with_store(
    graph: PropertyGraph,
    store: TripleStore,
    durable: Option<kgq_store::DurableStore>,
    cfg: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    // Non-blocking accept so the loop can observe the stop flag; real
    // connections switch back to blocking mode.
    listener.set_nonblocking(true)?;
    let workers = cfg.workers.max(1);
    let mut snapshot = Snapshot::new(graph, store, cfg.caps);
    if let Some(durable) = durable {
        snapshot = snapshot.with_durable(durable);
    }
    let shared = Arc::new(Shared {
        snapshot,
        sched: FairScheduler::new(),
        stop: AtomicBool::new(false),
        shutdown_requested: Mutex::new(false),
        shutdown_cv: Condvar::new(),
        conns: Mutex::new(HashMap::new()),
        reader_handles: Mutex::new(Vec::new()),
        workers,
    });
    let mut threads = Vec::new();
    {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("kgq-accept".into())
                .spawn(move || accept_loop(listener, &shared))?,
        );
    }
    for i in 0..workers {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("kgq-worker-{i}"))
                .spawn(move || worker_loop(&shared))?,
        );
    }
    Ok(ServerHandle {
        addr,
        shared,
        threads,
    })
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared snapshot (stats, cache) — mainly for tests and the
    /// CLI's final stats line.
    pub fn snapshot(&self) -> &Snapshot {
        &self.shared.snapshot
    }

    /// Blocks until a client sends `SHUTDOWN` (or `shutdown` is called
    /// from another thread).
    pub fn wait(&self) {
        let mut requested = self
            .shared
            .shutdown_requested
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        while !*requested {
            requested = self
                .shared
                .shutdown_cv
                .wait(requested)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Stops accepting, cancels and unblocks every connection, drains
    /// the scheduler, and joins **all** threads the server spawned.
    /// Returns only when no server thread remains.
    pub fn shutdown(self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.request_shutdown();
        self.shared.sched.close();
        // Unblock readers stuck in read(): cancel their in-flight work
        // and shut both socket halves.
        {
            let conns = self.shared.conns.lock().unwrap_or_else(|e| e.into_inner());
            for conn in conns.values() {
                conn.cancel.cancel();
                let w = conn.writer.lock().unwrap_or_else(|e| e.into_inner());
                let _ = w.shutdown(Shutdown::Both);
            }
        }
        let readers = std::mem::take(
            &mut *self
                .shared
                .reader_handles
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        for h in readers {
            let _ = h.join();
        }
        for h in self.threads {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    let mut next_conn_id: u64 = 0;
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                next_conn_id += 1;
                if let Err(e) = spawn_reader(stream, next_conn_id, shared) {
                    eprintln!("kgq serve: connection {next_conn_id} setup failed: {e}");
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => {
                eprintln!("kgq serve: accept failed: {e}");
                break;
            }
        }
    }
}

fn spawn_reader(stream: TcpStream, conn_id: u64, shared: &Arc<Shared>) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    // Every response is one vectored write (see `protocol::write_frame`),
    // so Nagle has nothing to coalesce: it would only hold a frame's
    // tail until the client's delayed ACK, about 40 ms.
    stream.set_nodelay(true)?;
    let read_half = stream.try_clone()?;
    let conn = Arc::new(Conn {
        id: conn_id,
        writer: Mutex::new(stream),
        cancel: CancelToken::new(),
    });
    shared
        .conns
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(conn_id, Arc::clone(&conn));
    let shared2 = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name(format!("kgq-conn-{conn_id}"))
        .spawn(move || reader_loop(read_half, conn, &shared2))?;
    shared
        .reader_handles
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(handle);
    Ok(())
}

fn reader_loop(read_half: TcpStream, conn: Arc<Conn>, shared: &Arc<Shared>) {
    let mut reader = BufReader::new(read_half);
    loop {
        match read_request(&mut reader) {
            Ok(Some(req)) => {
                shared.snapshot.stats.request();
                shared.sched.submit(
                    conn.id,
                    Job {
                        conn: Arc::clone(&conn),
                        req,
                    },
                );
            }
            // Clean EOF or a framing/transport error: either way the
            // conversation is over.
            Ok(None) => break,
            Err(e) => {
                // Tell the client what was wrong with its frame when the
                // socket still works, then drop the connection (framing
                // is unrecoverable: we no longer know where frames
                // start).
                conn.respond(&Response {
                    id: 0,
                    ok: false,
                    body: format!("protocol error: {e}"),
                });
                break;
            }
        }
    }
    // Disconnect: trip in-flight work, reclaim this client's backlog,
    // deregister.
    conn.cancel.cancel();
    let dropped = shared.sched.forget_client(conn.id);
    for _ in 0..dropped {
        shared.snapshot.stats.cancel();
    }
    shared
        .conns
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(&conn.id);
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.sched.next() {
        let Job { conn, req } = job;
        let started = Instant::now();
        let resp = match req.verb {
            Verb::Ping => Response {
                id: req.id,
                ok: true,
                body: req.payload,
            },
            Verb::Stats => Response {
                id: req.id,
                ok: true,
                body: {
                    let mut body = shared
                        .snapshot
                        .stats
                        .render(&shared.snapshot.cache().stats(), shared.workers);
                    body.push_str(&shared.snapshot.durability_stats());
                    body
                },
            },
            Verb::Shutdown => {
                let resp = Response {
                    id: req.id,
                    ok: true,
                    body: "shutting down\n".into(),
                };
                conn.respond(&resp);
                shared.snapshot.stats.finish(true, false, 0);
                shared.request_shutdown();
                continue;
            }
            verb => {
                let outcome =
                    shared
                        .snapshot
                        .execute(verb, &req.caps, &req.payload, conn.cancel.clone());
                let elapsed = started.elapsed().as_micros() as u64;
                shared
                    .snapshot
                    .stats
                    .finish(outcome.ok, outcome.partial, elapsed);
                conn.respond(&Response {
                    id: req.id,
                    ok: outcome.ok,
                    body: outcome.body,
                });
                continue;
            }
        };
        let elapsed = started.elapsed().as_micros() as u64;
        shared.snapshot.stats.finish(resp.ok, false, elapsed);
        conn.respond(&resp);
    }
}

/// Counts this process's live threads via `/proc/self/status` — the
/// leak check of the serve tests (`tests/thread_leak.rs`). Returns
/// `None` on platforms without procfs.
pub fn process_thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}
