//! Early PPA feedback at the netlist stage (Task 3 / Task 4 scenario).
//!
//! Right after synthesis — before spending hours in place-and-route — ask
//! NetTAG for the sign-off picture: per-register endpoint slack and
//! circuit-level power/area, including the optimization effects the
//! synthesis report cannot see. Then run the actual physical flow and
//! compare.
//!
//! Run with: `cargo run --release --example early_ppa`

use nettag::core::{NetTag, NetTagConfig, RegressorHead};
use nettag::netlist::Library;
use nettag::physical::{run_flow, FlowConfig};
use nettag::synth::{generate_design, Family, GenerateConfig};
use nettag::tasks::metrics::regression_metrics;
use nettag::tasks::task3::slack_samples;

fn main() {
    let lib = Library::default();
    let model = NetTag::new(NetTagConfig::tiny());
    let gen = GenerateConfig {
        scale: 0.5,
        ..GenerateConfig::default()
    };

    // Train a slack predictor on designs with completed sign-off.
    println!("collecting sign-off slack labels from finished designs…");
    let mut train_x = Vec::new();
    let mut train_y = Vec::new();
    for (fam, idx) in [
        (Family::VexRiscv, 0usize),
        (Family::Itc99, 0),
        (Family::Chipyard, 0),
    ] {
        let d = generate_design(fam, idx, 11, &gen);
        let s = slack_samples(&model, &d, &lib, &FlowConfig::default());
        println!(
            "  {:<12} {:>3} register endpoints",
            d.netlist.name(),
            s.targets.len()
        );
        train_x.extend(s.features);
        train_y.extend(s.targets);
    }
    let head = RegressorHead::train(&train_x, &train_y);

    // A fresh design straight out of synthesis.
    let fresh = generate_design(Family::VexRiscv, 5, 11, &gen);
    println!(
        "\nfresh design '{}' ({} gates) — predicting sign-off slack at the netlist stage…",
        fresh.netlist.name(),
        fresh.netlist.gate_count()
    );
    let s = slack_samples(&model, &fresh, &lib, &FlowConfig::default());
    let pred: Vec<f64> = head
        .predict(&s.features)
        .into_iter()
        .map(f64::from)
        .collect();
    let truth: Vec<f64> = s.targets.iter().map(|&t| f64::from(t)).collect();
    let m = regression_metrics(&pred, &truth);
    println!("  slack prediction: R = {:.2}, MAPE = {:.0}%", m.r, m.mape);

    // Circuit-level power/area versus the eventual optimized layout.
    println!("\ncircuit-level PPA (sign-off vs synthesis estimate):");
    let base = run_flow(&fresh.netlist, &lib, &FlowConfig::default());
    let opt = run_flow(
        &fresh.netlist,
        &lib,
        &FlowConfig {
            optimize: true,
            ..FlowConfig::default()
        },
    );
    let synth_area = nettag::physical::total_area(&fresh.netlist, &lib);
    println!("  synthesis area estimate : {synth_area:>9.1} um^2");
    println!(
        "  layout area w/o opt     : {:>9.1} um^2 (incl. clock tree)",
        base.area
    );
    println!(
        "  layout area w/  opt     : {:>9.1} um^2 (after sizing/buffers)",
        opt.area
    );
    println!("  layout power w/o opt    : {:>9.1} uW", base.power.total);
    println!("  layout power w/  opt    : {:>9.1} uW", opt.power.total);
    println!("  worst slack w/o opt     : {:>9.3} ns", base.timing.wns);
    println!("  worst slack w/  opt     : {:>9.3} ns", opt.timing.wns);
    println!(
        "\nThe gap between the synthesis estimate and the optimized layout is exactly what\n\
         Task 4's learned predictors close (Table V)."
    );
}
