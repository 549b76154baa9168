//! # kgq-bench — experiment harness
//!
//! One binary per experiment of `DESIGN.md` §3 (run with
//! `cargo run -p kgq-bench --release --bin <exp_id>`). This library
//! hosts the shared table-printing and timing helpers so every
//! experiment prints the same kind of aligned, self-describing output
//! recorded in `EXPERIMENTS.md`.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Prints an aligned text table with a header rule.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<width$}  ", c, width = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        line(row);
    }
}

/// Times a closure once, returning its value and the wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let v = f();
    (v, start.elapsed())
}

/// Formats a duration with adaptive units.
pub fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos}ns")
    } else if nanos < 1_000_000 {
        format!("{:.1}µs", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else {
        format!("{:.2}s", nanos as f64 / 1e9)
    }
}

/// Mean of a sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Percentile (nearest-rank) of a sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let rank = ((p / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

/// Where an experiment's JSON report goes: `--out FILE` when given, else
/// the committed `BENCH_<name>.json` for a full run. A `--quick` run
/// without `--out` goes to `target/BENCH_<name>.json`, so a trimmed run
/// never replaces the committed full-run numbers.
fn report_path(args: &[String], name: &str) -> PathBuf {
    let file = format!("BENCH_{name}.json");
    match args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
    {
        Some(out) => PathBuf::from(out),
        None if args.iter().any(|a| a == "--quick") => Path::new("target").join(file),
        None => PathBuf::from(file),
    }
}

/// Writes `json` to [`report_path`], creating `target/` for a quick run;
/// a failed write ends the process with exit code 1.
pub fn write_report(args: &[String], name: &str, json: &str) {
    let path = report_path(args, name);
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    let written = dir
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, json));
    if let Err(e) = written {
        eprintln!("exp_{name}: write {}: {e}", path.display());
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_formatting_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500ns");
        assert!(fmt_duration(Duration::from_micros(42)).ends_with("µs"));
        assert!(fmt_duration(Duration::from_millis(42)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(2)).ends_with("s"));
    }

    #[test]
    fn stats_helpers() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert_eq!(percentile(&xs, 50.0), 2.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn quick_reports_stay_out_of_the_committed_files() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            report_path(&args(&["exp"]), "bgp"),
            Path::new("BENCH_bgp.json")
        );
        assert_eq!(
            report_path(&args(&["exp", "--quick"]), "bgp"),
            Path::new("target/BENCH_bgp.json")
        );
        assert_eq!(
            report_path(&args(&["exp", "--quick", "--out", "x.json"]), "bgp"),
            Path::new("x.json")
        );
    }

    #[test]
    fn timed_returns_value() {
        let (v, d) = timed(|| 6 * 7);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
    }
}
