//! Table V — Task 4: overall circuit power/area prediction.
//!
//! Synthesis "EDA tool" estimate vs PowPrediCT-style GNN vs NetTAG, on
//! post-layout labels with and without physical optimization. Paper MAPEs:
//! area 5/34/… tool, 5/18 GNN, 4/11 NetTAG; power 34/38 tool, 12/19 GNN,
//! 8/12 NetTAG.

use nettag_bench::{build_pipeline, f2, print_table, Scale};
use nettag_tasks::{ppa_samples, run_task4};

fn main() {
    let scale = Scale::from_env();
    let pipeline = build_pipeline(scale);
    let samples = ppa_samples(&pipeline.model, &pipeline.suite.task4, &pipeline.suite.lib);
    let report = run_task4(&samples, &pipeline.scale.gnn());
    let paper = [
        ("Area  w/o opt", "0.99/5", "0.99/5", "0.99/4"),
        ("Area  w/ opt", "0.95/34", "0.95/18", "0.96/11"),
        ("Power w/o opt", "0.99/34", "0.99/12", "0.99/8"),
        ("Power w/ opt", "0.73/38", "0.76/19", "0.86/12"),
    ];
    let mut rows = Vec::new();
    for (i, r) in report.rows.iter().enumerate() {
        rows.push(vec![
            r.target.label().to_string(),
            format!("{}/{:.0}", f2(r.tool.r), r.tool.mape),
            format!("{}/{:.0}", f2(r.gnn.r), r.gnn.mape),
            format!("{}/{:.0}", f2(r.nettag.r), r.nettag.mape),
            format!("{} | {} | {}", paper[i].1, paper[i].2, paper[i].3),
        ]);
    }
    print_table(
        &format!(
            "Table V: Task 4 circuit power/area prediction, R/MAPE% (scale={}, {} designs)",
            pipeline.scale.name,
            pipeline.suite.task4.len()
        ),
        &[
            "Target",
            "EDA tool",
            "GNN",
            "NetTAG",
            "paper(tool|GNN|NetTAG)",
        ],
        &rows,
    );
    println!(
        "\nShape check: the tool estimate should degrade sharply w/ opt (it cannot see sizing\n\
         or clock trees); NetTAG should be the most robust, especially on power."
    );
}
