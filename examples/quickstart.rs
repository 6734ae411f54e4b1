//! Quickstart: the whole NetTAG pipeline in miniature.
//!
//! Generates a small benchmark corpus, pre-trains NetTAG (both steps),
//! embeds a netlist at gate/cone/circuit granularity, and fine-tunes a
//! head — the full paper workflow in under a minute on a laptop.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! Thread count follows `RAYON_NUM_THREADS` / `NETTAG_NUM_THREADS`, and
//! the numeric core auto-dispatches to AVX2 lane kernels where the host
//! supports them (bitwise identical to the portable scalar path; set
//! `NETTAG_SIMD=scalar|avx2` to force a tier — see PERF.md).

use nettag::core::data::{build_pretrain_data, DataConfig};
use nettag::core::{pretrain, NetTag, NetTagConfig, PretrainConfig};
use nettag::netlist::{chunk_into_cones, Library, NetlistStats, Tag};
use nettag::synth::{generate_design, Family, GenerateConfig};
use nettag::tasks::metrics::classification_metrics;

fn main() {
    let lib = Library::default();

    // 1. Generate a pre-training corpus (the Table II pipeline, tiny).
    println!("== 1. generating benchmark circuits ==");
    let designs: Vec<_> = (0..3)
        .map(|i| generate_design(Family::OpenCores, i, 42, &GenerateConfig::default()))
        .collect();
    for d in &designs {
        let s = NetlistStats::of(&d.netlist);
        println!(
            "  {:<14} {:>4} gates  {:>2} registers  depth {}",
            d.netlist.name(),
            s.nodes,
            s.registers,
            s.depth
        );
    }
    let data = build_pretrain_data(&designs, &lib, &DataConfig::default());
    println!(
        "  corpus: {} symbolic expressions, {} register cones",
        data.exprs.len(),
        data.cones.len()
    );

    // 2. Pre-train NetTAG: step 1 (ExprLLM) + step 2 (TAGFormer + align).
    println!("\n== 2. pre-training NetTAG (two steps, eq. 8) ==");
    let mut model = NetTag::new(NetTagConfig::tiny());
    let report = pretrain(
        &mut model,
        &data,
        &PretrainConfig {
            step1_steps: 20,
            step2_steps: 15,
            ..PretrainConfig::default()
        },
    );
    println!(
        "  step 1 expression-contrastive loss: {:.3} -> {:.3}",
        report.step1_losses.first().unwrap_or(&f32::NAN),
        report.step1_losses.last().unwrap_or(&f32::NAN)
    );
    println!(
        "  step 2 combined loss:               {:.3} -> {:.3}",
        report.step2_losses.first().unwrap_or(&f32::NAN),
        report.step2_losses.last().unwrap_or(&f32::NAN)
    );

    // 3. Multi-grained embeddings (paper Sec. II-F).
    println!("\n== 3. embeddings at three granularities ==");
    let target = &designs[0];
    let tag = Tag::from_netlist(&target.netlist, &lib, &model.tag_options());
    let emb = model.embed_tag(&tag);
    println!(
        "  gate embeddings: {} x {}  (one per gate)",
        emb.nodes.rows, emb.nodes.cols
    );
    let cones = chunk_into_cones(&target.netlist);
    println!("  register cones:  {}", cones.len());
    let circuit = model.embed_circuit(&target.netlist, &lib, None);
    println!(
        "  circuit embedding: 1 x {} (sum of cone [CLS] embeddings)",
        circuit.cols
    );

    // 4. Fine-tune a lightweight head on gate-function labels.
    println!("\n== 4. fine-tuning a gate-function classifier head ==");
    let train = nettag::tasks::task1::nettag_gate_samples(&model, &designs[1], &lib);
    let test = nettag::tasks::task1::nettag_gate_samples(&model, &designs[2], &lib);
    let head = nettag::core::ClassifierHead::train(
        &train.features,
        &train.labels,
        nettag::synth::ALL_BLOCK_LABELS.len(),
        &nettag::core::FinetuneConfig {
            epochs: 60,
            ..nettag::core::FinetuneConfig::default()
        },
    );
    let pred = head.predict(&test.features);
    let m = classification_metrics(&pred, &test.labels, nettag::synth::ALL_BLOCK_LABELS.len());
    println!(
        "  held-out design accuracy {:.0}%  (macro F1 {:.0}%)",
        m.accuracy * 100.0,
        m.f1 * 100.0
    );
    println!("\nDone. See the benches in crates/bench for every paper table and figure,");
    println!("and `cargo run --release --example serve_demo` for the embedding-serving");
    println!("engine (dynamic batching + structural-hash cone cache) on this model.");
    println!("For serving over the network — the TCP front-end, multi-lane batching,");
    println!("typed load shedding, and checkpoint hot-swaps — run");
    println!("`cargo run --release --example serve_net_demo`.");
    println!("Every engine also serves `embed_cone_fused`: the cone's [CLS] embedding");
    println!("followed by the mean of its layout-geometry features from the placement flow.");
}
