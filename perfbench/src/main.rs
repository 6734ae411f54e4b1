//! NetTAG end-to-end benchmark.
//!
//! Three workloads measure the system as its users see it: an EDA flow
//! embedding whole designs (`design_cold`), an interactive tool
//! re-querying known cones (`cone_hot`), and a trainer pre-training the
//! model (`pretrain`). Every workload uses `NetTagConfig::tiny()` loaded
//! from a checkpoint file; the serving workloads go through a loopback
//! `NetServer` with the default `ServeConfig`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload design_cold --seed 101 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload and then replays its inputs in-process through each layer's
//! public functions with a timer around every call, printing per-layer
//! metrics. The last line of standard output is the JSON result; the
//! process exits non-zero when a correctness gate fails. See
//! `perfbench/README.md` for what each metric means per workload.

mod common;
mod cone_hot;
mod design_cold;
mod pretrain;
mod stats;

use common::{Report, Scratch};
use stats::{result_json, Metric};
use std::process::ExitCode;

/// End-to-end metrics every workload reports, as `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
];

/// Per-layer metrics, as `(name, unit)`. A workload reports 0 for a layer
/// it does not exercise.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("synth.generate_ms", "ms"),
    ("netlist.chunk_ms", "ms"),
    ("netlist.digest_us", "us"),
    ("netlist.tag_build_us", "us"),
    ("expr.tokenize_us", "us"),
    ("core.exprllm_ms", "ms"),
    ("core.exprllm_rows", "count"),
    ("core.exprllm_unique_ratio", "ratio"),
    ("core.scatter_us", "us"),
    ("core.tagformer_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.dedup_hits", "count"),
    ("serve.mean_batch", "count"),
    ("serve.batches", "count"),
    ("serve.shed", "count"),
    ("serve.deadline_expired", "count"),
    ("serve.proto_encode_us", "us"),
    ("serve.proto_decode_us", "us"),
    ("serve.frame_bytes", "bytes"),
    ("serve.cache_get_us", "us"),
    ("net.ping_rtt_us", "us"),
    ("serve.hit_floor_us", "us"),
    ("loadgen.late_ms_p99", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.answered", "count"),
    ("core.pretrain.step1_ms", "ms"),
    ("core.pretrain.step2_ms", "ms"),
    ("core.pretrain.freeze_ms", "ms"),
    ("core.pretrain.freeze_unique_ratio", "ratio"),
    ("nn.dp_step_ms", "ms"),
    ("nn.adam_step_ms", "ms"),
    ("trace.coverage", "ratio"),
];

/// A workload with its default seed and a held-out validation seed that
/// no tuning has looked at.
struct Workload {
    name: &'static str,
    default_seed: u64,
    validation_seed: u64,
    run: fn(u64, f64, bool, &Scratch) -> common::Res<Report>,
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "design_cold",
        default_seed: 101,
        validation_seed: 90_101,
        run: design_cold::run,
    },
    Workload {
        name: "cone_hot",
        default_seed: 202,
        validation_seed: 90_202,
        run: cone_hot::run,
    },
    Workload {
        name: "pretrain",
        default_seed: 303,
        validation_seed: 90_303,
        run: pretrain::run,
    },
];

const USAGE: &str = "usage: nettag-perfbench --workload <design_cold|cone_hot|pretrain> \
                     [--seed <n|default|validation>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seed_role: &'static str,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let (seed, seed_role) = match seed.as_deref() {
        None | Some("default") => (workload.default_seed, "default"),
        Some("validation") => (workload.validation_seed, "validation"),
        Some(n) => {
            let n = n.parse().map_err(|_| format!("bad --seed {n}"))?;
            let role = if n == workload.default_seed {
                "default"
            } else if n == workload.validation_seed {
                "validation"
            } else {
                "given"
            };
            (n, role)
        }
    };
    Ok(Args {
        workload,
        seed,
        seed_role,
        seconds,
        trace,
    })
}

/// Orders a workload's metrics by `table`, filling layers it did not
/// exercise with 0. Returns the metrics and the names filled.
fn tabulate(
    table: &[(&'static str, &'static str)],
    measured: &[Metric],
    fill: bool,
) -> Result<(Vec<Metric>, Vec<&'static str>), String> {
    if let Some(m) = measured
        .iter()
        .find(|m| !table.iter().any(|(n, u)| *n == m.name && *u == m.unit))
    {
        return Err(format!(
            "metric {} ({}) is not in the table",
            m.name, m.unit
        ));
    }
    let mut out = Vec::with_capacity(table.len());
    let mut filled = Vec::new();
    for &(name, unit) in table {
        match measured.iter().find(|m| m.name == name) {
            Some(m) => out.push(m.clone()),
            None if fill => {
                filled.push(name);
                out.push(Metric {
                    name,
                    value: 0.0,
                    unit,
                });
            }
            None => return Err(format!("workload did not report {name}")),
        }
    }
    Ok((out, filled))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = Scratch::create()
        .and_then(|scratch| (args.workload.run)(args.seed, args.seconds, args.trace, &scratch));
    let mut report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{}: run failed: {e}", args.workload.name);
            return ExitCode::FAILURE;
        }
    };
    let model = format!(
        "{:?}",
        nettag_core::NetTagConfig {
            seed: args.seed,
            ..nettag_core::NetTagConfig::tiny()
        }
    );
    report.meta("workload", format!("\"{}\"", args.workload.name));
    report.meta("seed", args.seed.to_string());
    report.meta("seed_role", format!("\"{}\"", args.seed_role));
    report.meta("seconds", args.seconds.to_string());
    report.meta("trace", u8::from(args.trace).to_string());
    report.meta(
        "host_cpus",
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .to_string(),
    );
    report.meta("threads", nettag_par::num_threads().to_string());
    report.meta(
        "simd",
        format!("\"{}\"", nettag_nn::simd::active_tier().name()),
    );
    report.meta("model", format!("\"{}\"", model.replace('"', "'")));

    let printed = if args.trace {
        tabulate(PER_LAYER, &report.layers, true)
    } else {
        tabulate(END_TO_END, &report.e2e, false)
    };
    let (metrics, filled) = match printed {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{}: {e}", args.workload.name);
            return ExitCode::FAILURE;
        }
    };
    if !filled.is_empty() {
        let names: Vec<String> = filled.iter().map(|n| format!("\"{n}\"")).collect();
        report.meta("layers_not_exercised", format!("[{}]", names.join(", ")));
    }
    let attempted = report.attempted.max(1);
    let line = |name: &str, value: f64, unit: &str, note: &str| {
        let w = args.workload.name;
        println!("{w:<12} {name:<34} {value:>14.4} {unit:<5} {note}");
    };
    if !args.trace {
        for (name, value, unit, note) in &report.named {
            line(name, *value, unit, note);
        }
        let fail_ratio = report.failed as f64 / attempted as f64;
        line(
            "fail_ratio",
            fail_ratio,
            "1",
            &format!("{} of {attempted}", report.failed),
        );
    }
    for m in &metrics {
        line(m.name, m.value, m.unit, "");
    }
    for msg in &report.mismatches {
        println!("CORRECTNESS FAILURE: {msg}");
    }
    let meta: Vec<String> = report
        .meta
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("meta {{{}}}", meta.join(", "));
    let correct = report.mismatches.is_empty();
    match result_json(correct, attempted, report.failed, &metrics) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("{}: {e}", args.workload.name);
            return ExitCode::FAILURE;
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stats::valid_metric_name;

    #[test]
    fn metric_tables_are_valid_and_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(name), "{name}");
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let mut names: Vec<_> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
        // Every listed workload exists; `cone_hot` may be left unlisted.
        let listed = spec.split("\"workloads\"").nth(1).expect("workloads");
        let listed = listed.split(']').next().expect("workload list");
        for entry in listed.split("\"name\": \"").skip(1) {
            let name = entry.split('"').next().expect("quoted name");
            assert!(WORKLOADS.iter().any(|w| w.name == name), "{name}");
        }
        for w in WORKLOADS {
            assert_ne!(w.default_seed, w.validation_seed);
        }
    }

    #[test]
    fn args_parse_seeds_by_role() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload cone_hot --seed validation --seconds 2 --trace 1").expect("ok");
        assert_eq!(
            (a.workload.name, a.seed, a.seed_role),
            ("cone_hot", 90_202, "validation")
        );
        assert!(a.trace && a.seconds == 2.0);
        let a = parse("--workload pretrain").expect("ok");
        assert_eq!((a.seed, a.seed_role), (303, "default"));
        assert_eq!(
            parse("--workload pretrain --seed 7").expect("ok").seed_role,
            "given"
        );
        for bad in [
            "",
            "--workload nope",
            "--workload pretrain --trace 2",
            "--workload pretrain --seconds -1",
            "--workload pretrain --seed x",
            "--workload",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn tabulate_fills_only_per_layer_gaps() {
        let measured = [Metric {
            name: "trace.coverage",
            value: 0.95,
            unit: "ratio",
        }];
        let (out, filled) = tabulate(PER_LAYER, &measured, true).expect("ok");
        assert_eq!(out.len(), PER_LAYER.len());
        assert_eq!(filled.len(), PER_LAYER.len() - 1);
        assert!(tabulate(END_TO_END, &measured, false).is_err());
        let stray = [Metric {
            name: "made.up",
            value: 1.0,
            unit: "ms",
        }];
        assert!(tabulate(PER_LAYER, &stray, true).is_err());
    }
}
