//! Bench-regression check: diffs a fresh bench JSON against the
//! committed `BENCH_*.json` baseline and flags metrics that moved more
//! than a threshold in the bad direction.
//!
//! ```text
//! bench_check <baseline.json> <fresh.json> [--threshold 0.25] [--strict]
//! ```
//!
//! Metrics are flattened dotted paths of every numeric leaf present in
//! *both* files. The direction of "worse" follows the metric name:
//! throughputs, speedup ratios, and correlations (`*_per_s`, `speedup`,
//! `*_c8`, `*_r`) regress downward, timings and errors (`*_ms`,
//! `seconds`, `*_mape`) regress upward, and environment / count fields
//! (`threads`, `requests`, `cache_hits`, `shed`, …) are skipped
//! entirely.
//!
//! Regressions print as GitHub Actions `::warning::` annotations so they
//! surface on the PR without failing the job — bench noise on shared CI
//! runners (and smoke-sized request counts) makes a hard gate flaky.
//! `--strict` turns regressions into a non-zero exit for local use on
//! quiet hardware.
//!
//! The workspace has no JSON library (it builds offline), so the
//! flattener below is a minimal recursive-descent JSON reader — enough
//! for the bench writers' own output, which is the only input this tool
//! is pointed at.

use std::process::ExitCode;

/// A parsed numeric leaf: dotted path and value.
#[derive(Debug, PartialEq)]
struct Metric {
    path: String,
    value: f64,
}

/// Minimal JSON cursor over the bench writers' output.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Reader<'a> {
        Reader {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    // The bench writers never emit escapes beyond \" and
                    // \\, but pass anything else through verbatim.
                    self.pos += 1;
                    if let Some(c) = self.bytes.get(self.pos).copied() {
                        s.push(char::from(c));
                        self.pos += 1;
                    }
                }
                Some(c) => {
                    s.push(char::from(c));
                    self.pos += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    /// Parses one value, appending numeric leaves under `prefix`.
    fn value(&mut self, prefix: &str, out: &mut Vec<Metric>) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(());
                }
                loop {
                    let key = self.string()?;
                    self.expect(b':')?;
                    let path = if prefix.is_empty() {
                        key
                    } else {
                        format!("{prefix}.{key}")
                    };
                    self.value(&path, out)?;
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(());
                }
                let mut i = 0usize;
                loop {
                    self.value(&format!("{prefix}[{i}]"), out)?;
                    i += 1;
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'"') => {
                self.string()?;
                Ok(())
            }
            Some(b't') | Some(b'f') | Some(b'n') => {
                // true / false / null: skip the keyword.
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| b.is_ascii_alphabetic())
                {
                    self.pos += 1;
                }
                Ok(())
            }
            Some(_) => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.pos += 1;
                }
                let text =
                    std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
                let value: f64 = text
                    .parse()
                    .map_err(|_| format!("bad number {text:?} at byte {start}"))?;
                out.push(Metric {
                    path: prefix.to_string(),
                    value,
                });
                Ok(())
            }
            None => Err("unexpected end of input".into()),
        }
    }
}

/// Flattens every numeric leaf of a JSON document to `path -> value`.
fn flatten(text: &str) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let mut r = Reader::new(text);
    r.value("", &mut out)?;
    r.skip_ws();
    if r.pos != r.bytes.len() {
        return Err(format!("trailing input at byte {}", r.pos));
    }
    Ok(out)
}

/// Whether a larger value is better, smaller is better, or the metric is
/// an environment/count field with no regression direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    HigherIsBetter,
    LowerIsBetter,
    Skip,
}

fn direction(path: &str) -> Direction {
    let leaf = path.rsplit('.').next().unwrap_or(path);
    // Environment, raw-count, and reference-leg fields: not comparable
    // across runs (`seed_seconds` / `scalar_seconds` are the fixed
    // reference legs of a speedup ratio — the ratio itself is gated).
    if matches!(
        leaf,
        "threads"
            | "host_cpus"
            | "requests"
            | "clients"
            | "cache_hits"
            | "cache_misses"
            | "flood"
            | "shed"
            | "shed_rate"
            | "seed_seconds"
            | "scalar_seconds"
    ) {
        return Direction::Skip;
    }
    if leaf.ends_with("_ms")
        || leaf == "seconds"
        || leaf.ends_with("_seconds")
        || leaf.ends_with("_mape")
    {
        return Direction::LowerIsBetter;
    }
    if leaf.ends_with("_per_s")
        || leaf == "speedup"
        || leaf.ends_with("_speedup")
        || leaf.ends_with("_c8")
        || leaf.ends_with("_r")
    {
        return Direction::HigherIsBetter;
    }
    Direction::Skip
}

/// A metric that moved past the threshold in the bad direction.
#[derive(Debug, PartialEq)]
struct Regression {
    path: String,
    baseline: f64,
    fresh: f64,
    /// Relative change in the bad direction (0.30 = 30% worse).
    worse_by: f64,
}

/// Compares fresh metrics against the baseline, returning the metrics
/// that regressed more than `threshold` (relative).
fn compare(baseline: &[Metric], fresh: &[Metric], threshold: f64) -> Vec<Regression> {
    let mut regressions = Vec::new();
    for b in baseline {
        let dir = direction(&b.path);
        if dir == Direction::Skip || b.value == 0.0 || !b.value.is_finite() {
            continue;
        }
        let Some(f) = fresh.iter().find(|m| m.path == b.path) else {
            continue;
        };
        if !f.value.is_finite() {
            continue;
        }
        let worse_by = match dir {
            Direction::HigherIsBetter => (b.value - f.value) / b.value,
            Direction::LowerIsBetter => (f.value - b.value) / b.value,
            Direction::Skip => unreachable!(),
        };
        if worse_by > threshold {
            regressions.push(Regression {
                path: b.path.clone(),
                baseline: b.value,
                fresh: f.value,
                worse_by,
            });
        }
    }
    regressions.sort_by(|a, b| b.worse_by.total_cmp(&a.worse_by));
    regressions
}

fn usage() -> String {
    "usage: bench_check <baseline.json> <fresh.json> [--threshold 0.25] [--strict]".into()
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut paths = Vec::new();
    let mut threshold = 0.25f64;
    let mut strict = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threshold" => {
                threshold = it.next().ok_or_else(usage)?.parse().map_err(|_| usage())?;
            }
            "--strict" => strict = true,
            "--help" | "-h" => return Err(usage()),
            _ => paths.push(arg.clone()),
        }
    }
    let [baseline_path, fresh_path] = paths.as_slice() else {
        return Err(usage());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let baseline = flatten(&read(baseline_path)?).map_err(|e| format!("{baseline_path}: {e}"))?;
    let fresh = flatten(&read(fresh_path)?).map_err(|e| format!("{fresh_path}: {e}"))?;
    let compared = baseline
        .iter()
        .filter(|m| direction(&m.path) != Direction::Skip)
        .filter(|m| fresh.iter().any(|f| f.path == m.path))
        .count();
    let regressions = compare(&baseline, &fresh, threshold);
    println!(
        "bench_check: {compared} comparable metrics, threshold {:.0}%, {} regression(s)",
        threshold * 100.0,
        regressions.len()
    );
    for r in &regressions {
        // GitHub Actions surfaces ::warning:: lines on the run summary
        // without failing the job.
        println!(
            "::warning title=bench regression::{} is {:.0}% worse than the committed baseline \
             ({:.4} -> {:.4})",
            r.path,
            r.worse_by * 100.0,
            r.baseline,
            r.fresh
        );
    }
    if strict && !regressions.is_empty() {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flattens_nested_numeric_leaves() {
        let doc = r#"{
            "threads": 4,
            "scenarios": {"cold_c8": {"reqs_per_s": 2186.4, "p50_ms": 3.6}},
            "note": "text is skipped",
            "warm_speedup_c8": 6.587
        }"#;
        let m = flatten(doc).expect("parses");
        let get = |p: &str| m.iter().find(|x| x.path == p).map(|x| x.value);
        assert_eq!(get("threads"), Some(4.0));
        assert_eq!(get("scenarios.cold_c8.reqs_per_s"), Some(2186.4));
        assert_eq!(get("scenarios.cold_c8.p50_ms"), Some(3.6));
        assert_eq!(get("warm_speedup_c8"), Some(6.587));
        assert_eq!(get("note"), None);
    }

    #[test]
    fn parses_scientific_notation_and_arrays() {
        let m = flatten(r#"{"kernels": {"matmul": {"seconds": 1.234e-3}}, "xs": [1, 2]}"#)
            .expect("parses");
        assert_eq!(
            m.iter()
                .find(|x| x.path == "kernels.matmul.seconds")
                .map(|x| x.value),
            Some(1.234e-3)
        );
        assert_eq!(
            m.iter().find(|x| x.path == "xs[1]").map(|x| x.value),
            Some(2.0)
        );
    }

    #[test]
    fn malformed_json_is_an_error_not_a_panic() {
        assert!(flatten("{").is_err());
        assert!(flatten(r#"{"a": }"#).is_err());
        assert!(flatten(r#"{"a": 1} trailing"#).is_err());
    }

    #[test]
    fn directions_follow_metric_names() {
        assert_eq!(
            direction("scenarios.cold_c8.reqs_per_s"),
            Direction::HigherIsBetter
        );
        assert_eq!(
            direction("scenarios.cold_c8.p99_ms"),
            Direction::LowerIsBetter
        );
        assert_eq!(
            direction("kernels.matmul.seconds"),
            Direction::LowerIsBetter
        );
        assert_eq!(
            direction("kernels.matmul.speedup"),
            Direction::HigherIsBetter
        );
        assert_eq!(
            direction("socket_vs_inprocess_c8"),
            Direction::HigherIsBetter
        );
        assert_eq!(
            direction("tasks.wirelength.fused_r"),
            Direction::HigherIsBetter
        );
        assert_eq!(
            direction("tasks.slack.fused_mape"),
            Direction::LowerIsBetter
        );
        assert_eq!(
            direction("extraction.cones_per_s"),
            Direction::HigherIsBetter
        );
        assert_eq!(direction("serve.warm_speedup"), Direction::HigherIsBetter);
        assert_eq!(direction("simd.axpy_64k.seconds"), Direction::LowerIsBetter);
        assert_eq!(
            direction("simd.axpy_64k.speedup"),
            Direction::HigherIsBetter
        );
        assert_eq!(direction("simd.axpy_64k.scalar_seconds"), Direction::Skip);
        assert_eq!(direction("kernels.x.seed_seconds"), Direction::Skip);
        assert_eq!(direction("wall_seconds"), Direction::LowerIsBetter);
        assert_eq!(direction("threads"), Direction::Skip);
        assert_eq!(direction("overload.shed_rate"), Direction::Skip);
        assert_eq!(direction("scenarios.cold_c8.cache_misses"), Direction::Skip);
    }

    fn metrics(pairs: &[(&str, f64)]) -> Vec<Metric> {
        pairs
            .iter()
            .map(|(p, v)| Metric {
                path: (*p).into(),
                value: *v,
            })
            .collect()
    }

    #[test]
    fn throughput_drop_past_threshold_flags_and_improvement_does_not() {
        let baseline = metrics(&[("s.reqs_per_s", 1000.0), ("s.p50_ms", 1.0)]);
        let ok = metrics(&[("s.reqs_per_s", 900.0), ("s.p50_ms", 1.1)]);
        assert!(compare(&baseline, &ok, 0.25).is_empty());
        let bad = metrics(&[("s.reqs_per_s", 700.0), ("s.p50_ms", 0.5)]);
        let regs = compare(&baseline, &bad, 0.25);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].path, "s.reqs_per_s");
        assert!((regs[0].worse_by - 0.3).abs() < 1e-9);
    }

    #[test]
    fn latency_regression_flags_in_the_other_direction() {
        let baseline = metrics(&[("s.p99_ms", 2.0)]);
        let slower = metrics(&[("s.p99_ms", 3.0)]);
        let regs = compare(&baseline, &slower, 0.25);
        assert_eq!(regs.len(), 1);
        assert!((regs[0].worse_by - 0.5).abs() < 1e-9);
        let faster = metrics(&[("s.p99_ms", 1.0)]);
        assert!(compare(&baseline, &faster, 0.25).is_empty());
    }

    #[test]
    fn missing_keys_and_skipped_fields_never_flag() {
        let baseline = metrics(&[
            ("gone.reqs_per_s", 1000.0),
            ("threads", 4.0),
            ("overload.shed", 60.0),
        ]);
        let fresh = metrics(&[("threads", 1.0), ("overload.shed", 0.0)]);
        assert!(compare(&baseline, &fresh, 0.25).is_empty());
    }

    #[test]
    fn worst_regression_sorts_first() {
        let baseline = metrics(&[("a.reqs_per_s", 100.0), ("b.reqs_per_s", 100.0)]);
        let fresh = metrics(&[("a.reqs_per_s", 60.0), ("b.reqs_per_s", 20.0)]);
        let regs = compare(&baseline, &fresh, 0.25);
        assert_eq!(regs[0].path, "b.reqs_per_s");
        assert_eq!(regs[1].path, "a.reqs_per_s");
    }
}
