//! Table IV (right) — Task 3: endpoint register slack prediction.
//!
//! Sign-off slack labels come from the optimized physical flow; models see
//! only the synthesis netlist. NetTAG (GBDT over cone embeddings) vs the
//! netlist-adapted timing GNN. Paper averages: GNN R 0.90 / MAPE 17,
//! NetTAG R 0.92 / MAPE 15.

use nettag_bench::{build_pipeline, f2, print_table, Scale};
use nettag_physical::FlowConfig;
use nettag_tasks::run_task3;

fn main() {
    let scale = Scale::from_env();
    let pipeline = build_pipeline(scale);
    let report = run_task3(
        &pipeline.model,
        &pipeline.suite.task23,
        &pipeline.suite.lib,
        &pipeline.scale.gnn(),
        &FlowConfig::default(),
    );
    let mut rows = Vec::new();
    for r in &report.rows {
        rows.push(vec![
            r.design.clone(),
            f2(r.gnn.r),
            format!("{:.0}", r.gnn.mape),
            f2(r.nettag.r),
            format!("{:.0}", r.nettag.mape),
        ]);
    }
    rows.push(vec![
        "Avg".into(),
        f2(report.avg_gnn.r),
        format!("{:.0}", report.avg_gnn.mape),
        f2(report.avg_nettag.r),
        format!("{:.0}", report.avg_nettag.mape),
    ]);
    rows.push(vec![
        "Paper".into(),
        "0.90".into(),
        "17".into(),
        "0.92".into(),
        "15".into(),
    ]);
    print_table(
        &format!(
            "Table IV (right): Task 3 endpoint register slack (scale={})",
            pipeline.scale.name
        ),
        &["Design", "G.R", "G.MAPE%", "N.R", "N.MAPE%"],
        &rows,
    );
    println!(
        "\nShape check: NetTAG should edge out the timing GNN (paper: R 0.92 vs 0.90, MAPE 15 vs 17)."
    );
}
