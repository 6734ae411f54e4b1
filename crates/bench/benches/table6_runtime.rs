//! Table VI — runtime comparison.
//!
//! Measures NetTAG's pipeline stages per benchmark family — preprocessing
//! (chunking into cones + TAG conversion), ExprLLM node inference,
//! TAGFormer graph inference — against the substituted EDA P&R flow
//! (placement + parasitics + STA + activity + power with optimization),
//! reporting the speedup. The paper reports ~10× over commercial P&R; at
//! our scale the flow is also simulated, so the target is stage-dominance
//! shape (preprocessing + ExprLLM dominate NetTAG runtime) and a
//! substantial speedup factor.

use nettag_bench::{build_pipeline, print_table, Scale};
use nettag_netlist::{chunk_into_cones, cone_to_netlist, Tag};
use nettag_physical::{run_flow, FlowConfig};
use nettag_synth::{generate_design, GenerateConfig, ALL_FAMILIES};
use std::time::Instant;

fn main() {
    let scale = Scale::from_env();
    let pipeline = build_pipeline(scale);
    let model = &pipeline.model;
    let lib = &pipeline.suite.lib;
    let mut rows = Vec::new();
    let paper = [
        ("ITC99", "164", "2", "5", "0", "7"),
        ("OpenCores", "288", "18", "12", "1", "31"),
        ("Chipyard", "251", "15", "10", "1", "26"),
        ("VexRiscv", "207", "8", "5", "2", "15"),
    ];
    for (fi, family) in ALL_FAMILIES.into_iter().enumerate() {
        // A clone per design: its ExprLLM stage starts with an empty cache.
        let model = &model.clone();
        let design = generate_design(
            family,
            0,
            0x7B6,
            &GenerateConfig {
                scale: pipeline.scale.pretrain_scale,
                ..GenerateConfig::default()
            },
        );
        // EDA flow (P&R + sign-off) with optimization.
        let t0 = Instant::now();
        let _ = run_flow(
            &design.netlist,
            lib,
            &FlowConfig {
                optimize: true,
                ..FlowConfig::default()
            },
        );
        let pnr = t0.elapsed().as_secs_f64();
        // NetTAG stage 1: preprocessing (chunk + TAG conversion).
        let t1 = Instant::now();
        let cones = chunk_into_cones(&design.netlist);
        let tags: Vec<Tag> = cones
            .iter()
            .map(|c| {
                let sub = cone_to_netlist(&design.netlist, c);
                Tag::from_netlist(&sub, lib, &model.tag_options())
            })
            .collect();
        let pre = t1.elapsed().as_secs_f64();
        // Stage 2: ExprLLM node inference (the dominant model cost).
        let t2 = Instant::now();
        let features: Vec<_> = tags.iter().map(|t| model.node_features(t)).collect();
        let exprllm = t2.elapsed().as_secs_f64();
        // Stage 3: TAGFormer graph inference.
        let t3 = Instant::now();
        for (tag, feats) in tags.iter().zip(features.iter()) {
            let _ = model.tagformer.encode(feats, &tag.edges);
        }
        let tagformer = t3.elapsed().as_secs_f64();
        let total = pre + exprllm + tagformer;
        let p = paper[fi];
        rows.push(vec![
            family.name().to_string(),
            format!("{pnr:.2}"),
            format!("{pre:.2}"),
            format!("{exprllm:.2}"),
            format!("{tagformer:.2}"),
            format!("{total:.2}"),
            format!("{:.1}x", pnr / total.max(1e-9)),
            format!("{}/{}/{}/{}/{}", p.1, p.2, p.3, p.4, p.5),
        ]);
    }
    print_table(
        &format!(
            "Table VI: runtime in seconds (paper: minutes), scale={}",
            pipeline.scale.name
        ),
        &[
            "Source",
            "P&R",
            "Pre",
            "ExprLLM",
            "TAGFormer",
            "Total",
            "Speedup",
            "paper(P&R/Pre/Ex/TF/Tot)",
        ],
        &rows,
    );
    println!(
        "\nShape check: preprocessing + ExprLLM inference dominate NetTAG runtime\n\
         (paper Sec. III-E), and the model path is much faster than the P&R flow."
    );
}
