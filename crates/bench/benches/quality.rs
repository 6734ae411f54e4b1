//! Quality recorder: the paper's quality tables and figures in one
//! deterministic `BENCH_quality.json`.
//!
//! For each of [`SEEDS`] the recorder pre-trains the main model once
//! (the seed changes the model init and the task-suite designs; see
//! `nettag_bench::build_pipeline`) and shares it across:
//!
//! * **Tables III–V** — Tasks 1–4, NetTAG against GNN-RE, ReIGNN, the
//!   timing GNN, PowPrediCT and the synthesis-tool estimate, per design
//!   (per target for Table V) and averaged;
//! * **Fig. 5** — gate function classification on the AIG-lowered Task 1
//!   designs: FGNN-like and DeepGate3-like AIG encoders, ExprLLM-only
//!   features and full NetTAG;
//! * **geometry** — wirelength, congestion and slack regressed from the
//!   late-fused `[CLS] ‖ mean geometry` embedding
//!   (`nettag_core::fuse_geometry`, no trained fusion weights) and from
//!   the plain TAGFormer embedding, three ITC'99-family designs with the
//!   last held out;
//! * **Figs. 6 and 7** (`fig6_fig7`) — the main model (Fig. 6's full
//!   model, Fig. 7(a)'s 8B stand-in, Fig. 7(b)'s 100%) and one variant per
//!   ablated objective, smaller model and data fraction, all pre-trained
//!   on the main schedule. Each is scored by its NetTAG heads only (the
//!   baselines do not depend on the model): Task 1 accuracy over the first
//!   [`VARIANT_TASK1_DESIGNS`] designs, Task 2 balanced accuracy and the
//!   Task 3 and Task 4 MAPEs over the full suite. Task 4's sign-off labels
//!   do not depend on the model either: each seed computes them once.
//!
//! Table II (dataset statistics) does not depend on the seed and is
//! computed once. Every other leaf holds `mean`, `min` and `max` over the
//! seeds, plus `n` when only some seeds produced it (a design with no
//! scorable registers). The file holds only deterministic values, so it
//! is byte-identical across thread counts and SIMD tiers.
//!
//! Run with `cargo bench -p nettag-bench --bench quality`;
//! `NETTAG_SCALE=smoke` runs the seconds-scale configuration, which only
//! proves determinism (it ranks nothing) and writes its JSON only when
//! `NETTAG_BENCH_OUT` names a path. Results land in `BENCH_quality.json`
//! at the workspace root, or at `NETTAG_BENCH_OUT` when set.

use nettag_bench::{build_pipeline, pretrained, Pipeline, Scale};
use nettag_core::data::{build_pretrain_data, DataConfig, PretrainData};
use nettag_core::{NetTag, NetTagConfig, Objectives};
use nettag_expr::token::tokenize_expr;
use nettag_netlist::{Library, Tag};
use nettag_nn::Tensor;
use nettag_physical::FlowConfig;
use nettag_synth::{
    generate_design, restructure_equivalent, Design, Family, GenerateConfig, ALL_BLOCK_LABELS,
    ALL_FAMILIES,
};
use nettag_tasks::aig_encoders::{
    aig_sample, labeled_rows, pretrain_deepgate_like, pretrain_fgnn_like, AigSample,
};
use nettag_tasks::{
    loo_classify, mean_classification, nettag_task1, nettag_task2, nettag_task3, nettag_task4,
    ppa_features, ppa_samples, register_samples, run_geom_tasks, run_task1, run_task2, run_task3,
    run_task4, slack_samples, BinarySensitivity, Classification, DesignSamples, GeomScenario,
    PpaSamples, Regression, TaskSuite,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;

/// The seeds every per-seed metric is aggregated over.
const SEEDS: [u64; 3] = [0, 1, 2];

/// Task 1 designs a Fig. 6/7 variant is scored on: Task 1's nine
/// leave-one-out heads are most of a variant's cost.
const VARIANT_TASK1_DESIGNS: usize = 4;

/// A recorded metric: computed once, or one value per seed that
/// produced it.
enum Value {
    Once(f64),
    PerSeed(Vec<f64>),
}

/// Metrics keyed by `/`-separated path. Sorted keys keep every JSON
/// object's members contiguous.
type Metrics = BTreeMap<String, Value>;

fn put(m: &mut Metrics, path: String, v: f64) {
    match m.entry(path).or_insert_with(|| Value::PerSeed(Vec::new())) {
        Value::PerSeed(vs) => vs.push(v),
        Value::Once(_) => unreachable!("a seed-independent metric recorded per seed"),
    }
}

fn put_classification(m: &mut Metrics, path: &str, c: &Classification) {
    put(m, format!("{path}/accuracy"), c.accuracy);
    put(m, format!("{path}/precision"), c.precision);
    put(m, format!("{path}/recall"), c.recall);
    put(m, format!("{path}/f1"), c.f1);
}

fn put_sensitivity(m: &mut Metrics, path: &str, s: &BinarySensitivity) {
    put(m, format!("{path}/sensitivity"), s.sensitivity);
    put(m, format!("{path}/balanced_accuracy"), s.balanced_accuracy);
}

fn put_regression(m: &mut Metrics, path: &str, r: &Regression) {
    put(m, format!("{path}/r"), r.r);
    put(m, format!("{path}/mape"), r.mape);
}

fn mean(vs: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = vs.len() as f64;
    vs.sum::<f64>() / n
}

/// Table II: per-family expression and cone counts with their average
/// token and node counts.
fn table2(m: &mut Metrics, scale: &Scale) {
    let lib = Library::default();
    let vocab = NetTag::vocab();
    let mut once = |path: String, v: f64| m.insert(path, Value::Once(v));
    let (mut total_exprs, mut total_cones) = (0, 0);
    for family in ALL_FAMILIES {
        let gen = GenerateConfig {
            scale: scale.pretrain_scale,
            ..GenerateConfig::default()
        };
        let designs: Vec<Design> = (0..scale.pretrain_per_family.max(2))
            .map(|i| generate_design(family, i, 0x7AB2, &gen))
            .collect();
        let data = build_pretrain_data(
            &designs,
            &lib,
            &DataConfig {
                max_cones_per_design: scale.max_cones * 4,
                ..DataConfig::default()
            },
        );
        let tokens = data
            .exprs
            .iter()
            .map(|e| tokenize_expr(vocab, e, 4096).len());
        let nodes = data.cones.iter().map(|c| c.tag.len());
        let key = family.name();
        once(format!("table2/{key}/exprs"), data.exprs.len() as f64);
        once(
            format!("table2/{key}/avg_tokens"),
            mean(tokens.map(|t| t as f64)),
        );
        once(format!("table2/{key}/cones"), data.cones.len() as f64);
        once(
            format!("table2/{key}/avg_nodes"),
            mean(nodes.map(|n| n as f64)),
        );
        total_exprs += data.exprs.len();
        total_cones += data.cones.len();
    }
    once("table2/total/exprs".into(), total_exprs as f64);
    once("table2/total/cones".into(), total_cones as f64);
}

/// Tables III–V: every task, NetTAG and its baselines.
fn tables(m: &mut Metrics, p: &Pipeline, ppa: &PpaSamples) {
    let (model, suite, lib) = (&p.model, &p.suite, &p.suite.lib);
    let (ft, gnn) = (p.scale.finetune(), p.scale.gnn());
    let t1 = run_task1(model, &suite.task1, lib, &ft, &gnn);
    for (i, r) in t1.rows.iter().enumerate() {
        let d = format!("table3_task1/design{}", i + 1);
        put_classification(m, &format!("{d}/gnnre"), &r.gnnre);
        put_classification(m, &format!("{d}/nettag"), &r.nettag);
    }
    put_classification(m, "table3_task1/avg/gnnre", &t1.avg_gnnre);
    put_classification(m, "table3_task1/avg/nettag", &t1.avg_nettag);

    let t2 = run_task2(model, &suite.task23, lib, &ft, &gnn);
    for r in &t2.rows {
        let d = format!("table4_task2/{}", r.design);
        put_sensitivity(m, &format!("{d}/reignn"), &r.reignn);
        put_sensitivity(m, &format!("{d}/nettag"), &r.nettag);
    }
    put_sensitivity(m, "table4_task2/avg/reignn", &t2.avg_reignn);
    put_sensitivity(m, "table4_task2/avg/nettag", &t2.avg_nettag);

    let t3 = run_task3(model, &suite.task23, lib, &gnn, &FlowConfig::default());
    for r in &t3.rows {
        let d = format!("table4_task3/{}", r.design);
        put_regression(m, &format!("{d}/gnn"), &r.gnn);
        put_regression(m, &format!("{d}/nettag"), &r.nettag);
    }
    put_regression(m, "table4_task3/avg/gnn", &t3.avg_gnn);
    put_regression(m, "table4_task3/avg/nettag", &t3.avg_nettag);

    let t4 = run_task4(ppa, &ppa_features(model, &suite.task4, lib), &gnn);
    let targets = ["area_wo_opt", "area_w_opt", "power_wo_opt", "power_w_opt"];
    for (key, r) in targets.into_iter().zip(&t4.rows) {
        put_regression(m, &format!("table5_task4/{key}/tool"), &r.tool);
        put_regression(m, &format!("table5_task4/{key}/gnn"), &r.gnn);
        put_regression(m, &format!("table5_task4/{key}/nettag"), &r.nettag);
    }
}

/// Fig. 5: the Task 1 designs lowered to AND-inverter form, classified
/// leave-one-design-out from four frozen feature sets.
fn fig5(m: &mut Metrics, p: &Pipeline) {
    let gnn = p.scale.gnn();
    let samples: Vec<AigSample> = p.suite.task1.iter().map(|d| aig_sample(d, 0xA16)).collect();
    let mut rng = StdRng::seed_from_u64(0xF66);
    let variants: Vec<AigSample> = p
        .suite
        .task1
        .iter()
        .map(|d| aig_sample(&restructure_equivalent(d, 6, &mut rng), 0xA17))
        .collect();
    let fgnn = pretrain_fgnn_like(&samples, &variants, &gnn, p.scale.step2_steps);
    let dg3 = pretrain_deepgate_like(&samples, &gnn, p.scale.step2_steps * 2);
    let tag = |s: &AigSample| Tag::from_netlist(&s.netlist, &p.suite.lib, &p.model.tag_options());
    let rows = |f: &dyn Fn(&AigSample) -> Tensor| -> Vec<DesignSamples> {
        samples.iter().map(|s| labeled_rows(s, &f(s))).collect()
    };
    let methods = [
        ("fgnn", rows(&|s| fgnn.node_embeddings(s))),
        ("deepgate3", rows(&|s| dg3.node_embeddings(s))),
        ("exprllm_only", rows(&|s| p.model.node_features(&tag(s)))),
        ("nettag", rows(&|s| p.model.embed_tag(&tag(s)).nodes)),
    ];
    for (key, features) in methods {
        let scores = loo_classify(&features, ALL_BLOCK_LABELS.len(), &p.scale.finetune());
        put_classification(m, &format!("fig5/{key}"), &mean_classification(&scores));
    }
}

/// Geometry fusion: three ITC'99-family designs (about 20 register cones
/// each), the heads trained on the first two and scored on the third.
fn geometry(m: &mut Metrics, p: &Pipeline, seed: u64) {
    let designs: Vec<(String, Design)> = (0..3)
        .map(|i| {
            let d = generate_design(Family::Itc99, i, 0x9E0 ^ seed, &GenerateConfig::default());
            (format!("itc{i}"), d)
        })
        .collect();
    let report = run_geom_tasks(&p.model, &designs, &p.suite.lib);
    let scenarios: [(&str, &GeomScenario); 3] = [
        ("wirelength", &report.wirelength),
        ("congestion", &report.congestion),
        ("slack", &report.slack),
    ];
    for (key, s) in scenarios {
        put_regression(m, &format!("geometry/{key}/fused"), &s.fused);
        put_regression(m, &format!("geometry/{key}/plain"), &s.plain);
    }
    put(m, "geometry/train_cones".into(), report.train_cones as f64);
    put(m, "geometry/test_cones".into(), report.test_cones as f64);
}

/// The leading `f` share of the corpus (Fig. 7(b)).
fn fraction(data: &PretrainData, f: f64) -> PretrainData {
    PretrainData {
        exprs: data.exprs[..((data.exprs.len() as f64 * f) as usize).max(4)].to_vec(),
        cones: data.cones[..((data.cones.len() as f64 * f) as usize).max(2)].to_vec(),
    }
}

/// Figs. 6 and 7 beside the main model: `(key, config, objectives,
/// text_scale, data fraction)`.
fn variants(scale: &Scale) -> Vec<(&'static str, NetTagConfig, Objectives, f32, f64)> {
    let on = Objectives::default();
    let main = &scale.model;
    let without = |drop: fn(&mut Objectives)| {
        let mut objectives = on;
        drop(&mut objectives);
        objectives
    };
    let ablations = [
        ("wo_expr_contrast", without(|o| o.expr_contrast = false)),
        ("wo_masked_gate", without(|o| o.masked_gate = false)),
        ("wo_graph_contrast", without(|o| o.graph_contrast = false)),
        ("wo_size_prediction", without(|o| o.size_prediction = false)),
        ("wo_cross_stage", without(|o| o.cross_stage = false)),
    ];
    let presets = NetTagConfig::scaling_presets();
    let mut list = vec![("wo_tag", main.clone(), on, 0.0, 1.0)];
    list.extend(ablations.map(|(key, o)| (key, main.clone(), o, 1.0, 1.0)));
    list.extend([
        ("model_110m", presets[0].1.clone(), on, 1.0, 1.0),
        ("model_1_3b", presets[1].1.clone(), on, 1.0, 1.0),
        ("data_25pct", main.clone(), on, 1.0, 0.25),
        ("data_50pct", main.clone(), on, 1.0, 0.5),
    ]);
    list
}

/// One Fig. 6/7 row: the headline metric of each task, NetTAG heads only.
fn variant_scores(
    m: &mut Metrics,
    key: &str,
    model: &NetTag,
    suite: &TaskSuite,
    ppa: &PpaSamples,
    scale: &Scale,
) {
    let (lib, ft) = (&suite.lib, scale.finetune());
    let designs = &suite.task1[..VARIANT_TASK1_DESIGNS.min(suite.task1.len())];
    let t1 = nettag_task1(model, designs, lib, &ft);
    let registers: Vec<_> = suite
        .task23
        .iter()
        .map(|(_, d)| register_samples(model, d, lib))
        .collect();
    let t2 = nettag_task2(&registers, &ft);
    let slacks: Vec<_> = suite
        .task23
        .iter()
        .map(|(_, d)| slack_samples(model, d, lib, &FlowConfig::default()))
        .collect();
    let t3 = nettag_task3(&slacks);
    let t4 = nettag_task4(ppa, &ppa_features(model, &suite.task4, lib));
    let row = |metric: &str| format!("fig6_fig7/{key}/{metric}");
    put(
        m,
        row("task1_accuracy"),
        mean(t1.iter().map(|c| c.accuracy)),
    );
    let t2_acc = mean(t2.iter().map(|s| s.balanced_accuracy));
    put(m, row("task2_balanced_accuracy"), t2_acc);
    put(m, row("task3_mape"), mean(t3.iter().map(|r| r.mape)));
    put(m, row("task4_mape"), mean(t4.iter().map(|r| r.mape)));
}

fn record_seed(m: &mut Metrics, scale: &Scale, seed: u64) {
    let t0 = Instant::now();
    let p = build_pipeline(scale.clone(), seed);
    let ppa = ppa_samples(&p.suite.task4, &p.suite.lib);
    tables(m, &p, &ppa);
    fig5(m, &p);
    geometry(m, &p, seed);
    variant_scores(m, "main", &p.model, &p.suite, &ppa, scale);
    for (key, config, objectives, text_scale, f) in variants(scale) {
        let config = NetTagConfig {
            seed: config.seed ^ seed,
            ..config
        };
        let schedule = nettag_core::PretrainConfig {
            objectives,
            ..scale.pretrain_config()
        };
        let model = pretrained(config, text_scale, &fraction(&p.data, f), &schedule);
        variant_scores(m, key, &model, &p.suite, &ppa, scale);
    }
    eprintln!(
        "[quality] seed {seed} in {:.0}s",
        t0.elapsed().as_secs_f64()
    );
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "null".into()
    }
}

fn leaf(v: &Value) -> String {
    match v {
        Value::Once(v) => num(*v),
        Value::PerSeed(vs) => {
            let lo = vs.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = vs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let n = if vs.len() < SEEDS.len() {
                format!(", \"n\": {}", vs.len())
            } else {
                String::new()
            };
            let mean = mean(vs.iter().copied());
            format!(
                "{{\"mean\": {}, \"min\": {}, \"max\": {}{n}}}",
                num(mean),
                num(lo),
                num(hi)
            )
        }
    }
}

/// Writes the metrics as nested JSON objects, one leaf per line.
fn to_json(scale: &Scale, m: &Metrics) -> String {
    let mut out = format!(
        "{{\n  \"scale\": \"{}\",\n  \"seeds\": {:?}",
        scale.name, SEEDS
    );
    let indent = |depth: usize| "  ".repeat(depth + 1);
    let mut open: Vec<&str> = Vec::new();
    let mut first = false; // the header precedes every entry
    for (path, value) in m {
        let parts: Vec<&str> = path.split('/').collect();
        let (dirs, name) = parts.split_at(parts.len() - 1);
        let common = open.iter().zip(dirs).take_while(|(a, b)| a == b).count();
        while open.len() > common {
            open.pop();
            out.push_str(&format!("\n{}}}", indent(open.len())));
            first = false;
        }
        for dir in &dirs[common..] {
            let sep = if first { "" } else { "," };
            out.push_str(&format!("{sep}\n{}\"{dir}\": {{", indent(open.len())));
            open.push(dir);
            first = true;
        }
        let sep = if first { "" } else { "," };
        out.push_str(&format!(
            "{sep}\n{}\"{}\": {}",
            indent(open.len()),
            name[0],
            leaf(value)
        ));
        first = false;
    }
    while open.pop().is_some() {
        out.push_str(&format!("\n{}}}", indent(open.len())));
    }
    out.push_str("\n}\n");
    out
}

fn main() {
    let t0 = Instant::now();
    let scale = Scale::from_env();
    let out_override = std::env::var("NETTAG_BENCH_OUT").ok();
    let mut metrics = Metrics::new();
    table2(&mut metrics, &scale);
    for seed in SEEDS {
        record_seed(&mut metrics, &scale, seed);
    }
    eprintln!("[quality] {:.0}s wall", t0.elapsed().as_secs_f64());
    if scale.name == "smoke" && out_override.is_none() {
        println!("smoke run: skipping BENCH_quality.json");
        return;
    }
    let path = match &out_override {
        Some(p) => std::path::PathBuf::from(p),
        None => std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_quality.json"),
    };
    if let Err(e) = std::fs::write(&path, to_json(&scale, &metrics)) {
        eprintln!("could not write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("wrote {}", path.display());
}
