//! `kgq_bench` — the repository's benchmark. See `perfbench/README.md`.

mod harness;
mod packed;
mod served;
mod trace;
mod workloads;

use harness::{kgq_binary, target_dir, Children, RunDir};
use kgq_perfbench::{
    benchmark_json, best_decile, median, percentile, quartiles, spread, Measured, Report, Rng,
    END_TO_END, RUN_SECONDS, WORKLOADS,
};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Barrier;
use std::time::Duration;
use workloads::{ContactSize, Pool, CONTACT_10K, CONTACT_2K};

/// Everything one run needs to know.
pub struct Config {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds` / `--window-s`.
    pub window: Duration,
    /// `--quick`: 3 s windows, `contact-2k` everywhere, a 10⁵-edge
    /// segment.
    pub quick: bool,
    /// The `kgq` binary under test.
    pub kgq: PathBuf,
    /// Times the program's set-up is run (its median is `setup_s`).
    pub setup_repeats: usize,
}

impl Config {
    /// Untimed traffic before the window. `scan_reads` is still
    /// speeding up a second in (the server's heap grows to fit its
    /// multi-megabyte answers), so this is not shortened with the
    /// window below 2 s unless the window itself is that short.
    fn warm(&self) -> Duration {
        self.window.div_f64(2.0).min(Duration::from_secs(2))
    }

    fn durable_size(&self) -> ContactSize {
        if self.quick {
            CONTACT_2K
        } else {
            CONTACT_10K
        }
    }
}

/// Tail percentile of each workload, fixed so that at least twice the
/// ten samples the percentile routine asks for lie beyond it at the
/// committed window length on this code. `rw_durable`'s is only p75:
/// the top fifth of its reader's round trips is the RPQ `starts`
/// template, whose time moves by a quarter between runs of one seed (it
/// drops from ~208 to ~160 ms after the first `FLUSH` in some runs and
/// not in others), so no percentile inside it can carry a bound; p75 is
/// the Cypher template under writes. `scan_reads`' p90 is taken inside
/// each deck of ten as well ([`deck_timings`]): the ninth slowest of the
/// ten, the faster of the deck's two co-rider joins.
fn tail_percentile(workload: &str) -> f64 {
    match workload {
        "point_reads" => 95.0,
        "scan_reads" => 90.0,
        _ => 75.0,
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: kgq_bench [trace] [--workload NAME|all] [--seed N] [--seconds S | --window-s S]\n\
         \x20                [--trace 0|1] [--quick] [--repeat N] [--emit-benchmark-json]\n\
         workloads: {}",
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(" ")
    );
    ExitCode::from(2)
}

/// The command line, parsed.
struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    quick: bool,
    repeat: usize,
    emit_benchmark_json: bool,
}

fn parse_args(args: &[String]) -> Option<Args> {
    let mut out = Args {
        workload: "all".to_owned(),
        seed: 1,
        seconds: None,
        traced: false,
        quick: false,
        repeat: 1,
        emit_benchmark_json: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "trace" => out.traced = true,
            "--quick" => out.quick = true,
            "--emit-benchmark-json" => out.emit_benchmark_json = true,
            "--workload" => out.workload = it.next()?.clone(),
            "--seed" => out.seed = it.next()?.parse().ok()?,
            "--seconds" | "--window-s" => out.seconds = Some(it.next()?.parse().ok()?),
            "--repeat" => out.repeat = it.next()?.parse().ok()?,
            "--trace" => {
                out.traced = match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    Some(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(Args {
        workload,
        seed,
        seconds,
        traced,
        quick,
        repeat,
        emit_benchmark_json,
    }) = parse_args(&args)
    else {
        return usage();
    };
    if emit_benchmark_json {
        print!("{}", benchmark_json());
        return ExitCode::SUCCESS;
    }
    let names: Vec<&'static str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| workload == "all" || workload == *n)
        .collect();
    let window = seconds.unwrap_or(if quick { 3.0 } else { RUN_SECONDS as f64 });
    if names.is_empty() || !(window.is_finite() && window >= 1.0) || repeat == 0 {
        return usage();
    }
    let kgq = match kgq_binary() {
        Ok(k) => k,
        Err(e) => {
            eprintln!("kgq_bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut cfg = Config {
        seed,
        window: Duration::from_secs_f64(window),
        quick,
        kgq,
        setup_repeats: served::SETUP_REPEATS,
    };
    let git_rev = git_rev();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut all_correct = true;
    for name in names {
        let mut runs: Vec<Report> = Vec::new();
        for k in 0..repeat {
            cfg.seed = seed + k as u64;
            let report = match run_one(name, &cfg, traced) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("kgq_bench: {name}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = report.validate() {
                eprintln!("kgq_bench: {e}");
                return ExitCode::FAILURE;
            }
            all_correct &= report.failed == 0;
            print!("{}", report.render_text());
            let record = report.record_json(nproc, &git_rev);
            let path = target_dir().join("bench").join(format!(
                "report_{name}_{}.json",
                if traced { "traced" } else { "e2e" }
            ));
            if let Err(e) = std::fs::write(&path, record + "\n") {
                eprintln!("kgq_bench: {}: {e}", path.display());
            }
            println!("{}", report.result_line());
            runs.push(report);
        }
        if repeat > 1 && !traced {
            print_spreads(name, &runs);
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("kgq_bench: answers differ from the oracle");
        ExitCode::FAILURE
    }
}

/// `--repeat`: each end-to-end metric's spread over the repeats (other
/// seeds, as the acceptance rule draws them) beside its bound.
fn print_spreads(name: &str, runs: &[Report]) {
    for d in END_TO_END {
        let values: Vec<f64> = runs.iter().filter_map(|r| r.get(d.name)).collect();
        let bound = d.bound.unwrap_or(0.0);
        match (spread(&values), median(&values)) {
            (Some(s), Some(m)) => println!(
                "{name:<16} {:<36} median {m:>14.4} {:<5} spread {:>6.2}% of bound {:>4.0}%{}",
                d.name,
                d.unit,
                s * 100.0,
                bound * 100.0,
                if s > bound / 3.0 {
                    "  <-- above a third of the bound"
                } else {
                    ""
                }
            ),
            _ => println!("{name:<16} {:<36} too few runs for a spread", d.name),
        }
    }
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

fn run_one(name: &'static str, cfg: &Config, traced: bool) -> Result<Report, String> {
    let children = Children::new();
    let dir = RunDir::create(name).map_err(|e| format!("run directory: {e}"))?;
    let report = if traced {
        trace::run(name, cfg, &children, &dir)
    } else {
        match name {
            "point_reads" | "scan_reads" => run_reads(name, cfg, &children, &dir).map(|r| r.report),
            "rw_durable" => run_rw_durable(cfg, &children, &dir).map(|r| r.report),
            "packed_cli" => packed::run(cfg, &children, &dir).map(|r| r.report),
            other => Err(format!("unknown workload `{other}`")),
        }
    };
    let left = children.reap_all();
    if !left.is_empty() {
        return Err(format!("children left running: {left:?}"));
    }
    report
}

/// Closed-loop connections of a read-only workload. `scan_reads` has
/// one: its client reads and hashes megabytes per answer, so two
/// connections put two client threads beside two busy server workers on
/// a two-core box, and every round trip then depends on which requests
/// happen to overlap (the 3-hop path answers in 7 ms alone and in
/// 15–50 ms beside the co-rider join). With one loop a round trip is
/// the request's own time.
pub fn connections(name: &str) -> u64 {
    match name {
        "scan_reads" => 1,
        _ => 2,
    }
}

/// The pool of a read-only workload.
pub fn reads_pool(name: &str) -> Pool {
    match name {
        "point_reads" => workloads::point_reads_pool(CONTACT_2K),
        _ => workloads::scan_reads_pool(),
    }
}

fn measured(name: &'static str, value: f64, samples: usize) -> Measured {
    Measured {
        name,
        value,
        samples,
    }
}

/// Per-template round trips on stderr: which template the window's
/// time went to.
fn log_templates(name: &str, pool: &Pool, conns: &[&served::ConnStats]) {
    for first in pool.warmup() {
        let lat: Vec<f64> = conns
            .iter()
            .flat_map(|c| c.sent.iter().zip(&c.lat_ms))
            .filter(|(&idx, _)| pool.template_of(idx) == first)
            .map(|(_, &ms)| ms)
            .collect();
        let req = &pool.reqs[first];
        let [q1, q2, q3] = quartiles(&lat).unwrap_or([0.0; 3]);
        eprintln!(
            "kgq_bench: {name}: n={:<5} quartiles {q1:>8.3} {q2:>8.3} {q3:>8.3} ms  {} {}",
            lat.len(),
            req.verb.as_str(),
            req.payload.replace('\n', " ")
        );
    }
}

/// Median and fixed tail of a latency sample, as two metrics. A
/// `--quick` window may hold too few samples for the tail; it then
/// reports the median in its place and says so, since quick numbers are
/// a smoke test and compare with nothing.
fn latency_metrics(cfg: &Config, workload: &str, lat_ms: &[f64]) -> Result<[Measured; 2], String> {
    let p50 = percentile(lat_ms, 50.0)?;
    let tail = match percentile(lat_ms, tail_percentile(workload)) {
        Ok(tail) => tail,
        Err(why) if cfg.quick => {
            eprintln!("kgq_bench: {workload}: latency_tail_ms reads the median: {why}");
            p50
        }
        Err(why) => return Err(why),
    };
    Ok([
        measured("latency_p50_ms", p50, lat_ms.len()),
        measured("latency_tail_ms", tail, lat_ms.len()),
    ])
}

/// Whether a read-only workload's four timings are read per deck.
/// Every `scan_reads` template is one fixed request, so every deck is
/// the same ten requests and gives one reading of each timing; the run
/// reports the best tenth of its decks ([`best_decile`]). Its requests
/// are all processor time, which a neighbour on a shared host stretches
/// by half for seconds at a time; pooled over the window, the median is
/// then this program in one run and the neighbour in the next.
/// `point_reads` draws its instances by Zipf, so its decks differ, and
/// its round trip is a timer (the 44 ms stall), which no neighbour
/// moves: its timings stay pooled over the window.
fn timed_by_deck(name: &str) -> bool {
    name == "scan_reads"
}

/// `latency_p50_ms`, `latency_tail_ms`, `throughput_rps` and
/// `rows_per_s` of the whole window: percentiles of every round trip,
/// and requests and rows over each connection's seconds, summed.
fn window_timings(
    cfg: &Config,
    name: &str,
    conns: &[served::ConnStats],
) -> Result<[Measured; 4], String> {
    let lat: Vec<f64> = conns
        .iter()
        .flat_map(|c| c.lat_ms.iter().copied())
        .collect();
    let per_s = |f: fn(&served::ConnStats) -> u64| -> f64 {
        conns
            .iter()
            .filter(|c| c.elapsed_s > 0.0)
            .map(|c| f(c) as f64 / c.elapsed_s)
            .sum()
    };
    let [p50, tail] = latency_metrics(cfg, name, &lat)?;
    Ok([
        p50,
        tail,
        measured(
            "throughput_rps",
            per_s(|c| c.lat_ms.len() as u64),
            lat.len(),
        ),
        measured("rows_per_s", per_s(|c| c.rows), lat.len()),
    ])
}

/// The same four, one reading per whole deck — the deck's median and
/// tail-percentile round trip, its requests and its rows over its
/// seconds — and of each the best tenth of the decks; rates are summed
/// over connections. The sample count is the number of decks.
fn deck_timings(name: &str, conns: &[served::ConnStats]) -> Result<[Measured; 4], String> {
    let (mut p50s, mut tails, mut decks) = (Vec::new(), Vec::new(), 0);
    let (mut rps, mut rows_per_s) = (0.0, 0.0);
    for c in conns {
        let mut rates = (Vec::new(), Vec::new());
        for d in &c.decks {
            let mut lat = c.lat_ms[d.lat.clone()].to_vec();
            lat.sort_by(f64::total_cmp);
            let rank = (tail_percentile(name) / 100.0 * lat.len() as f64).ceil() as usize;
            p50s.extend(median(&lat));
            tails.extend(lat.get(rank.saturating_sub(1)));
            rates.0.push(lat.len() as f64 / d.secs);
            rates.1.push(d.rows as f64 / d.secs);
        }
        rps += best_decile(&rates.0, false).unwrap_or(0.0);
        rows_per_s += best_decile(&rates.1, false).unwrap_or(0.0);
        decks += c.decks.len();
    }
    match (best_decile(&p50s, true), best_decile(&tails, true)) {
        (Some(p50), Some(tail)) if conns.iter().all(|c| !c.decks.is_empty()) => Ok([
            measured("latency_p50_ms", p50, decks),
            measured("latency_tail_ms", tail, decks),
            measured("throughput_rps", rps, decks),
            measured("rows_per_s", rows_per_s, decks),
        ]),
        _ => Err("a connection finished no whole deck inside the window".to_owned()),
    }
}

/// A read-only workload's result: the end-to-end report plus the
/// server's own `STATS p50_us` at the end of the window.
pub struct ReadsResult {
    /// End-to-end metrics.
    pub report: Report,
    /// Service time as the server measured it.
    pub service_p50_us: u64,
}

/// `point_reads` and `scan_reads`: [`connections`] closed loops against
/// `kgq serve contact-2k --nt`.
pub fn run_reads(
    name: &'static str,
    cfg: &Config,
    children: &Children,
    dir: &RunDir,
) -> Result<ReadsResult, String> {
    let data = workloads::contact_data(CONTACT_2K, cfg.seed);
    let mut pool = reads_pool(name);
    pool.compute_oracle(&data)?;
    let inputs = served::ServedInputs::write(dir, &data, false)?;
    let half = served::FAST_BOOTS / 2;
    let mut recover_s = served::boot_cycles(children, &cfg.kgq, dir, &inputs, half)?;
    let booted = served::set_up(children, &cfg.kgq, dir, &inputs, &pool, cfg.setup_repeats)?;
    let addr = booted.server.addr;
    let n_conns = connections(name);
    let start = Barrier::new(n_conns as usize);
    let conns: Vec<served::ConnStats> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n_conns)
            .map(|c| {
                let (pool, start) = (&pool, &start);
                let rng = Rng::new(cfg.seed, c);
                s.spawn(move || served::reader_loop(addr, pool, rng, cfg.warm(), cfg.window, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let rss = served::server_rss_mb(&booted.server)?;
    let service_p50_us = harness::WireClient::connect(addr)?.stat("p50_us")?;
    children.kill(booted.server.pid);
    recover_s.extend(served::boot_cycles(children, &cfg.kgq, dir, &inputs, half)?);
    for c in &conns {
        if let Some(why) = &c.first_failure {
            eprintln!("kgq_bench: {name}: {why}");
        }
    }
    log_templates(name, &pool, &conns.iter().collect::<Vec<_>>());
    let mut timings = window_timings(cfg, name, &conns)?;
    if timed_by_deck(name) {
        match deck_timings(name, &conns) {
            Ok(by_deck) => {
                let [p50, tail, rps, _] = &timings;
                eprintln!(
                    "kgq_bench: {name}: the window as a whole, neighbours included: \
                     p50 {:.3} ms, tail {:.3} ms, {:.3} requests/s",
                    p50.value, tail.value, rps.value
                );
                timings = by_deck;
            }
            // As with the tail, a `--quick` window may be too short.
            Err(why) if cfg.quick => {
                eprintln!("kgq_bench: {name}: timings are the window's: {why}")
            }
            Err(why) => return Err(why),
        }
    }
    let [p50, tail, throughput, rows_per_s] = timings;
    let report = Report {
        workload: name,
        traced: false,
        seed: cfg.seed,
        window_s: cfg.window.as_secs_f64(),
        attempted: conns.iter().map(|c| c.attempted).sum(),
        failed: conns.iter().map(|c| c.failed).sum(),
        metrics: vec![
            measured(
                "setup_s",
                median(&booted.setup_s).expect("set-up ran"),
                booted.setup_s.len(),
            ),
            p50,
            tail,
            throughput,
            rows_per_s,
            measured("peak_rss_mb", rss, 1),
            measured(
                "recover_s",
                best_decile(&recover_s, true).expect("at least one cycle"),
                recover_s.len(),
            ),
        ],
    };
    Ok(ReadsResult {
        report,
        service_p50_us,
    })
}

/// `rw_durable`'s result: the end-to-end report plus the writer-side
/// numbers the traced run lists among its per-layer metrics.
pub struct RwResult {
    /// End-to-end metrics.
    pub report: Report,
    /// Writer measurements and ledger.
    pub writer: served::WriterStats,
    /// Acknowledged writes the recovered server does not have.
    pub lost: u64,
    /// `STATS p50_us` of the server at the end of the window.
    pub service_p50_us: u64,
}

/// `rw_durable`: a writer and a reader against `kgq serve --store`, then
/// `SIGKILL`, restart and the ledger check.
pub fn run_rw_durable(cfg: &Config, children: &Children, dir: &RunDir) -> Result<RwResult, String> {
    let name = "rw_durable";
    let size = cfg.durable_size();
    let data = workloads::contact_data(size, cfg.seed);
    let mut pool = workloads::rw_reader_pool(size);
    pool.compute_oracle(&data)?;
    let inputs = served::ServedInputs::write(dir, &data, true)?;
    let booted = served::set_up(children, &cfg.kgq, dir, &inputs, &pool, cfg.setup_repeats)?;
    let addr = booted.server.addr;
    let base_triples = data.nt_text.lines().count();
    let stream = workloads::WriterStream::new(cfg.seed, base_triples);
    let start = Barrier::new(2);
    let (reader, writer) = std::thread::scope(|s| {
        let (pool, start, store) = (&pool, &start, booted.store.as_path());
        let reader = s.spawn(move || {
            served::reader_loop(
                addr,
                pool,
                Rng::new(cfg.seed, 0),
                cfg.warm(),
                cfg.window,
                start,
            )
        });
        let nt_bytes = data.nt_text.len();
        let writer =
            s.spawn(move || served::writer_loop(addr, stream, store, nt_bytes, cfg.window, start));
        (
            reader.join().expect("reader thread panicked"),
            writer.join().expect("writer thread panicked"),
        )
    });
    let rss = served::server_rss_mb(&booted.server)?;
    let service_p50_us = harness::WireClient::connect(addr)?.stat("p50_us")?;
    let setup_s = booted.setup_s.clone();
    let (recovered, recover_s) =
        served::crash_and_recover(children, &cfg.kgq, dir, &inputs, booted)?;
    let lost = served::lost_acked_writes(recovered.addr, &writer)?;
    for why in [&reader.first_failure, &writer.first_failure]
        .into_iter()
        .flatten()
    {
        eprintln!("kgq_bench: {name}: {why}");
    }
    if lost > 0 {
        eprintln!("kgq_bench: {name}: {lost} acknowledged write(s) lost across the crash");
    }
    log_templates(name, &pool, &[&reader]);
    let [p50, tail] = latency_metrics(cfg, name, &reader.lat_ms)?;
    let rate = |n: usize, elapsed: f64| {
        if elapsed > 0.0 {
            n as f64 / elapsed
        } else {
            0.0
        }
    };
    let acked = writer.commit_ms.len() + writer.flush_ms.len();
    let report = Report {
        workload: name,
        traced: false,
        seed: cfg.seed,
        window_s: cfg.window.as_secs_f64(),
        attempted: reader.attempted + writer.attempted,
        failed: reader.failed + writer.failed + lost,
        metrics: vec![
            measured(
                "setup_s",
                median(&setup_s).expect("set-up ran"),
                setup_s.len(),
            ),
            p50,
            tail,
            measured(
                "throughput_rps",
                rate(reader.lat_ms.len(), reader.elapsed_s) + rate(acked, writer.elapsed_s),
                reader.lat_ms.len() + acked,
            ),
            measured(
                "rows_per_s",
                rate(reader.rows as usize, reader.elapsed_s),
                reader.lat_ms.len(),
            ),
            measured("peak_rss_mb", rss, 1),
            measured("recover_s", recover_s, 1),
        ],
    };
    Ok(RwResult {
        report,
        writer,
        lost,
        service_p50_us,
    })
}
