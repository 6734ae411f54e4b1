//! End-to-end integration: corpus → two-step pre-training → all four
//! downstream tasks, at miniature scale.

use nettag::core::data::{build_pretrain_data, DataConfig};
use nettag::core::{pretrain, NetTag, NetTagConfig, PretrainConfig};
use nettag::netlist::Library;
use nettag::physical::FlowConfig;
use nettag::synth::{generate_design, Family, GenerateConfig};
use nettag::tasks::{
    build_suite, ppa_features, ppa_samples, run_task1, run_task2, run_task3, run_task4, GnnConfig,
    SuiteConfig,
};

fn mini_model() -> NetTag {
    let lib = Library::default();
    let designs: Vec<_> = (0..2)
        .map(|i| generate_design(Family::OpenCores, i, 21, &GenerateConfig::default()))
        .collect();
    let data = build_pretrain_data(
        &designs,
        &lib,
        &DataConfig {
            max_cones_per_design: 3,
            ..DataConfig::default()
        },
    );
    let mut model = NetTag::new(NetTagConfig::tiny());
    let report = pretrain(
        &mut model,
        &data,
        &PretrainConfig {
            step1_steps: 6,
            step2_steps: 5,
            ..PretrainConfig::default()
        },
    );
    assert!(!report.step1_losses.is_empty());
    assert!(!report.step2_losses.is_empty());
    assert!(report.step2_losses.iter().all(|l| l.is_finite()));
    model
}

#[test]
fn full_pipeline_runs_all_four_tasks() {
    let model = mini_model();
    let suite = build_suite(&SuiteConfig {
        scale: 0.25,
        task1_designs: 2,
        task4_per_family: 3,
        ..SuiteConfig::default()
    });
    let ft = nettag::core::FinetuneConfig {
        epochs: 25,
        ..nettag::core::FinetuneConfig::default()
    };
    let gnn = GnnConfig {
        epochs: 4,
        ..GnnConfig::default()
    };
    let t1 = run_task1(&model, &suite.task1, &suite.lib, &ft, &gnn);
    assert_eq!(t1.rows.len(), 2);
    assert!(t1.avg_nettag.accuracy > 0.0);

    let t2 = run_task2(&model, &suite.task23, &suite.lib, &ft, &gnn);
    assert!(!t2.rows.is_empty());
    assert!(t2.avg_nettag.balanced_accuracy > 0.0);

    let t3 = run_task3(
        &model,
        &suite.task23,
        &suite.lib,
        &gnn,
        &FlowConfig::default(),
    );
    assert!(!t3.rows.is_empty());
    assert!(t3.avg_nettag.mape.is_finite());

    let samples = ppa_samples(&suite.task4, &suite.lib);
    let features = ppa_features(&model, &suite.task4, &suite.lib);
    let t4 = run_task4(&samples, &features, &gnn);
    assert_eq!(t4.rows.len(), 4);
    for row in &t4.rows {
        assert!(row.nettag.mape.is_finite(), "{:?}", row.target);
        assert!(row.tool.mape.is_finite());
    }
    // The tool's power estimate must be notably biased (it misses clock
    // trees and wire caps) — the Table V premise.
    let power_rows: Vec<_> = t4
        .rows
        .iter()
        .filter(|r| {
            matches!(
                r.target,
                nettag::tasks::PpaTarget::PowerNoOpt | nettag::tasks::PpaTarget::PowerOpt
            )
        })
        .collect();
    assert!(power_rows.iter().any(|r| r.tool.mape > 10.0));
}

#[test]
fn embeddings_are_deterministic_across_calls() {
    let model = mini_model();
    let lib = Library::default();
    let d = generate_design(Family::VexRiscv, 0, 21, &GenerateConfig::default());
    let e1 = model.embed_circuit(&d.netlist, &lib, None);
    // The model keeps every gate-text row of the first call: the second
    // runs warm, and a clone (which starts with an empty cache) runs cold.
    let warm = model.embed_circuit(&d.netlist, &lib, None);
    let cold = model.clone().embed_circuit(&d.netlist, &lib, None);
    assert_eq!(e1.data, warm.data);
    assert_eq!(warm.data, cold.data);
}
