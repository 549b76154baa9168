//! `packed_cli`: one `kgq scale` process at a time over an mmap'd packed
//! Barabási–Albert segment, each output checked against answers computed
//! here with plain loops over the same edge stream.

use crate::harness::{run_cli, Children, RunDir};
use crate::workloads::Expected;
use crate::{latency_metrics, measured, Config};
use kgq_graph::generate::ba_edge_stream;
use kgq_perfbench::{median, Report, Rng};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Edges attached per new node (`--m`).
pub const M_PER: u32 = 10;

/// Source windows the invocations rotate over.
const WINDOWS: usize = 4;

/// The three invocation kinds, in rotation order.
pub const KINDS: [&str; 3] = ["pairs", "starts", "triangles"];

/// Shape of the segment and of the queries over it.
#[derive(Clone, Copy, Debug)]
pub struct PackedShape {
    /// Nodes of the BA graph; edges are `M_PER` times that.
    pub nodes: u32,
    /// Sources (or apexes) per invocation (`--span`).
    pub span: u32,
}

impl PackedShape {
    /// `ba-5m` (5 M edges), or the 10⁵-edge segment of `--quick`.
    pub fn of(cfg: &Config) -> PackedShape {
        if cfg.quick {
            PackedShape {
                nodes: 10_000,
                span: 2_000,
            }
        } else {
            PackedShape {
                nodes: 500_000,
                span: 5_000,
            }
        }
    }

    /// The seeded window starts, one in each quarter of the node range:
    /// a BA graph's old nodes are its hubs, so where a window falls
    /// decides how much work it is, and four free draws would make two
    /// seeds two different workloads.
    pub fn windows(&self, seed: u64) -> Vec<u32> {
        let mut rng = Rng::new(seed, 0xBA);
        let stratum = (self.nodes - self.span) as usize / WINDOWS;
        (0..WINDOWS)
            .map(|k| (k * stratum + rng.below(stratum)) as u32)
            .collect()
    }
}

/// Sorted out-adjacency of the single-label BA stream, as a flat CSR.
pub struct PlainCsr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl PlainCsr {
    /// Builds it from `(src, label, dst)` edges.
    pub fn build(nodes: u32, edges: &[(u32, u32, u32)]) -> PlainCsr {
        let mut offsets = vec![0u32; nodes as usize + 1];
        for &(s, _, _) in edges {
            offsets[s as usize + 1] += 1;
        }
        for i in 0..nodes as usize {
            offsets[i + 1] += offsets[i];
        }
        let mut fill = offsets.clone();
        let mut targets = vec![0u32; edges.len()];
        for &(s, _, d) in edges {
            targets[fill[s as usize] as usize] = d;
            fill[s as usize] += 1;
        }
        for v in 0..nodes as usize {
            targets[offsets[v] as usize..offsets[v + 1] as usize].sort_unstable();
        }
        PlainCsr { offsets, targets }
    }

    /// Out-neighbours of `v`, ascending.
    pub fn out(&self, v: u32) -> &[u32] {
        &self.targets[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }
}

/// What `kgq scale query SEG l0/l0 pairs|starts` and `kgq scale
/// triangles SEG l0 l0 l0` must print for sources `from..from+span`.
pub fn expected_output(csr: &PlainCsr, kind: &str, from: u32, span: u32) -> String {
    let mut out = String::new();
    let mut reach: Vec<u32> = Vec::new();
    let (mut triangles, mut sample) = (0u64, String::new());
    for a in from..from + span {
        match kind {
            "pairs" | "starts" => {
                reach.clear();
                for &b in csr.out(a) {
                    reach.extend_from_slice(csr.out(b));
                }
                reach.sort_unstable();
                reach.dedup();
                if kind == "starts" {
                    if !reach.is_empty() {
                        let _ = writeln!(out, "{a}");
                    }
                } else {
                    for c in &reach {
                        let _ = writeln!(out, "{a}\t{c}");
                    }
                }
            }
            _ => {
                for &b in csr.out(a) {
                    for &c in csr.out(b) {
                        if csr.out(a).binary_search(&c).is_ok() {
                            if triangles < 10 {
                                let _ = writeln!(sample, "{a}\t{b}\t{c}");
                            }
                            triangles += 1;
                        }
                    }
                }
            }
        }
    }
    if kind == "triangles" {
        out = format!("{triangles} triangles\n{sample}");
    }
    out
}

/// The CLI arguments of one invocation.
pub fn invocation<'a>(seg: &'a str, kind: &'a str, from: &'a str, span: &'a str) -> Vec<&'a str> {
    let tail = ["--from", from, "--span", span];
    let mut args = match kind {
        "triangles" => vec!["scale", "triangles", seg, "l0", "l0", "l0"],
        op => vec!["scale", "query", seg, "l0/l0", op],
    };
    args.extend(tail);
    args
}

/// `kgq scale gen` for the run's segment.
pub fn generate(
    children: &Children,
    kgq: &Path,
    seg: &str,
    shape: PackedShape,
    seed: u64,
) -> Result<(), String> {
    let (nodes, m, seed) = (shape.nodes.to_string(), M_PER.to_string(), seed.to_string());
    run_cli(
        children,
        kgq,
        &[
            "scale", "gen", seg, "--nodes", &nodes, "--m", &m, "--labels", "1", "--seed", &seed,
        ],
    )
    .map(|_| ())
}

/// The oracle: expected output of every `(kind, window)` invocation.
pub fn oracle(shape: PackedShape, seed: u64) -> (Vec<u32>, Vec<Vec<Expected>>) {
    let edges = ba_edge_stream(shape.nodes, M_PER, 1, seed);
    let csr = PlainCsr::build(shape.nodes, &edges);
    drop(edges);
    let windows = shape.windows(seed);
    let expected = KINDS
        .iter()
        .map(|kind| {
            windows
                .iter()
                .map(|&from| Expected::of(&expected_output(&csr, kind, from, shape.span)))
                .collect()
        })
        .collect();
    (windows, expected)
}

/// `packed_cli`'s result: the report plus the spawn cost the traced run
/// lists as `cli.spawn_ms`.
pub struct PackedResult {
    /// End-to-end metrics.
    pub report: Report,
    /// Median wall of `kgq scale stats SEG` in ms.
    pub spawn_ms: f64,
}

/// Runs the workload.
pub fn run(cfg: &Config, children: &Children, dir: &RunDir) -> Result<PackedResult, String> {
    let name = "packed_cli";
    let shape = PackedShape::of(cfg);
    let (windows, expected) = oracle(shape, cfg.seed);
    let seg_path = dir.join("ba.seg");
    let seg = seg_path.to_str().expect("run paths are UTF-8");
    let span = shape.span.to_string();
    let froms: Vec<String> = windows.iter().map(u32::to_string).collect();
    let check = |kind_i: usize, win_i: usize, out: &[u8]| -> bool {
        std::str::from_utf8(out).is_ok_and(|s| expected[kind_i][win_i].matches(s))
    };

    // Set-up: generate the segment, then one warm-up pass over the
    // three kinds, checked.
    let mut setup_s = Vec::new();
    for _ in 0..cfg.setup_repeats.max(1) {
        let started = Instant::now();
        generate(children, &cfg.kgq, seg, shape, cfg.seed)?;
        for (k, kind) in KINDS.iter().enumerate() {
            let (out, _, _) =
                run_cli(children, &cfg.kgq, &invocation(seg, kind, &froms[0], &span))?;
            if !check(k, 0, &out) {
                return Err(format!("warm-up: scale {kind} does not match the oracle"));
            }
        }
        setup_s.push(started.elapsed().as_secs_f64());
    }

    let (mut lat_ms, mut rows, mut failed, mut rss) = (Vec::new(), 0u64, 0u64, 0.0f64);
    let mut elapsed_s = 0.0;
    let t0 = Instant::now();
    let mut i = 0usize;
    while t0.elapsed() < cfg.window {
        let (k, w) = (i % KINDS.len(), (i / KINDS.len()) % WINDOWS);
        i += 1;
        match run_cli(
            children,
            &cfg.kgq,
            &invocation(seg, KINDS[k], &froms[w], &span),
        ) {
            Ok((out, wall_s, hwm)) => {
                lat_ms.push(wall_s * 1e3);
                rss = rss.max(hwm);
                if check(k, w, &out) {
                    rows += expected[k][w].rows as u64;
                } else {
                    failed += 1;
                    eprintln!(
                        "kgq_bench: {name}: scale {} from {} differs from the oracle",
                        KINDS[k], froms[w]
                    );
                }
            }
            Err(e) => {
                failed += 1;
                eprintln!("kgq_bench: {name}: {e}");
            }
        }
        elapsed_s = t0.elapsed().as_secs_f64();
    }

    // A cold start on the prepared segment: spawn, mmap, whole-file CRC.
    let mut stats_s = Vec::new();
    for _ in 0..5 {
        let (_, wall_s, _) = run_cli(children, &cfg.kgq, &["scale", "stats", seg])?;
        stats_s.push(wall_s);
    }
    let recover_s = median(&stats_s).expect("five samples");

    let [p50, tail] = latency_metrics(cfg, name, &lat_ms)?;
    let report = Report {
        workload: name,
        traced: false,
        seed: cfg.seed,
        window_s: cfg.window.as_secs_f64(),
        attempted: i as u64,
        failed,
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
                lat_ms.len() as f64 / elapsed_s,
                lat_ms.len(),
            ),
            measured("rows_per_s", rows as f64 / elapsed_s, lat_ms.len()),
            measured("peak_rss_mb", rss, lat_ms.len()),
            measured("recover_s", recover_s, stats_s.len()),
        ],
    };
    Ok(PackedResult {
        report,
        spawn_ms: recover_s * 1e3,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_oracle_on_a_hand_made_graph() {
        // 0 -> 1, 0 -> 2, 1 -> 2, 2 -> 3, 3 -> 0
        let edges = [(0, 0, 1), (0, 0, 2), (1, 0, 2), (2, 0, 3), (3, 0, 0)];
        let csr = PlainCsr::build(4, &edges);
        assert_eq!(csr.out(0), &[1, 2]);
        assert_eq!(
            expected_output(&csr, "pairs", 0, 4),
            "0\t2\n0\t3\n1\t3\n2\t0\n3\t1\n3\t2\n"
        );
        assert_eq!(expected_output(&csr, "starts", 1, 2), "1\n2\n");
        // The only closed wedge: 0 -> 1 -> 2 with 0 -> 2.
        assert_eq!(
            expected_output(&csr, "triangles", 0, 4),
            "1 triangles\n0\t1\t2\n"
        );
        assert_eq!(expected_output(&csr, "triangles", 1, 3), "0 triangles\n");
    }

    #[test]
    fn windows_repeat_per_seed_and_fit() {
        let shape = PackedShape {
            nodes: 1_000,
            span: 100,
        };
        assert_eq!(shape.windows(4), shape.windows(4));
        assert_ne!(shape.windows(4), shape.windows(5));
        assert!(shape
            .windows(4)
            .iter()
            .all(|&w| w + shape.span <= shape.nodes));
        assert_eq!(
            invocation("s.seg", "triangles", "7", "9"),
            [
                "scale",
                "triangles",
                "s.seg",
                "l0",
                "l0",
                "l0",
                "--from",
                "7",
                "--span",
                "9"
            ]
        );
    }
}
