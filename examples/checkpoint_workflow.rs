//! Checkpoint workflow: pre-train once, ship the model, fine-tune later.
//!
//! Mirrors the paper's release model (footnote 1: "The code and pre-trained
//! NetTAG model are available… enables users to easily generate and
//! fine-tune embeddings for their own netlist tasks"): one party pre-trains
//! and saves a checkpoint; another party loads it and fine-tunes a head on
//! their own labeled netlists without re-running pre-training.
//!
//! Run with: `cargo run --release --example checkpoint_workflow`

use nettag::core::data::{build_pretrain_data, DataConfig};
use nettag::core::{
    load_checkpoint, pretrain, save_checkpoint, NetTag, NetTagConfig, PretrainConfig,
};
use nettag::netlist::Library;
use nettag::synth::{generate_design, generate_gnnre_design, Family, GenerateConfig};
use nettag::tasks::metrics::classification_metrics;
use nettag::tasks::task1::nettag_gate_samples;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lib = Library::default();
    let ckpt_path = std::env::temp_dir().join("nettag_pretrained.ckpt");

    // ----- Party A: pre-train and publish ------------------------------
    println!("[party A] pre-training NetTAG…");
    let designs: Vec<_> = (0..3)
        .map(|i| generate_design(Family::OpenCores, i, 77, &GenerateConfig::default()))
        .collect();
    let data = build_pretrain_data(&designs, &lib, &DataConfig::default());
    let mut model = NetTag::new(NetTagConfig::tiny());
    let report = pretrain(
        &mut model,
        &data,
        &PretrainConfig {
            step1_steps: 15,
            step2_steps: 10,
            ..PretrainConfig::default()
        },
    );
    println!(
        "[party A] step1 loss {:.2} -> {:.2}; saving checkpoint to {}",
        report.step1_losses.first().unwrap_or(&f32::NAN),
        report.step1_losses.last().unwrap_or(&f32::NAN),
        ckpt_path.display()
    );
    save_checkpoint(&model, &ckpt_path)?;
    let bytes = std::fs::metadata(&ckpt_path)?.len();
    println!("[party A] checkpoint size: {} KiB", bytes / 1024);
    drop(model); // party A is done.

    // ----- Party B: load and fine-tune on their own designs ------------
    println!("\n[party B] loading the published checkpoint…");
    let model = load_checkpoint(&ckpt_path)?;
    let my_designs: Vec<_> = (20..24).map(|i| generate_gnnre_design(i, 99, 4)).collect();
    let mut train_x = Vec::new();
    let mut train_y = Vec::new();
    for d in &my_designs[..3] {
        let s = nettag_gate_samples(&model, d, &lib);
        train_x.extend(s.features);
        train_y.extend(s.labels);
    }
    let head = nettag::core::ClassifierHead::train(
        &train_x,
        &train_y,
        nettag::synth::ALL_BLOCK_LABELS.len(),
        &nettag::core::FinetuneConfig {
            epochs: 60,
            ..nettag::core::FinetuneConfig::default()
        },
    );
    let test = nettag_gate_samples(&model, &my_designs[3], &lib);
    let pred = head.predict(&test.features);
    let m = classification_metrics(&pred, &test.labels, nettag::synth::ALL_BLOCK_LABELS.len());
    println!(
        "[party B] fine-tuned gate-function head on 3 designs, held-out accuracy {:.0}%",
        m.accuracy * 100.0
    );
    std::fs::remove_file(&ckpt_path).ok();
    Ok(())
}
