//! # nettag-tasks — downstream tasks and baselines
//!
//! The four evaluation tasks of the paper (Tables III–V) with all
//! comparison methods rebuilt from scratch: GNN-RE / ReIGNN / timing-GNN /
//! PowPrediCT-style supervised GNNs, the synthesis-tool estimator, and the
//! AIG-only pre-trained encoders (FGNN-like, DeepGate3-like) of Fig. 5,
//! plus the metrics those tables report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aig_encoders;
pub mod geom_tasks;
pub mod gnn;
pub mod metrics;
pub mod suite;
pub mod task1;
pub mod task2;
pub mod task3;
pub mod task4;

use nettag_netlist::{chunk_into_cones, Cone, Netlist};

pub use geom_tasks::{geom_samples, run_geom_tasks, GeomSamples, GeomScenario, GeomTaskReport};
pub use gnn::{
    structural_features, GnnConfig, GnnEncoder, GnnGraph, GnnGraphModel, GnnNodeClassifier,
};
pub use metrics::{
    classification_metrics, mean_classification, regression_metrics, sensitivity_metrics,
    BinarySensitivity, Classification, Regression,
};
pub use suite::{build_suite, pretrain_designs, SuiteConfig, TaskSuite};
pub use task1::{loo_classify, nettag_task1, run_task1, DesignSamples, Task1Report, Task1Row};
pub use task2::{nettag_task2, register_samples, run_task2, Task2Report, Task2Row};
pub use task3::{nettag_task3, run_task3, slack_samples, Task3Report, Task3Row};
pub use task4::{
    nettag_task4, ppa_features, ppa_samples, run_task4, PpaSamples, PpaTarget, Task4Report,
    Task4Row,
};

/// The register cones of `netlist` from [`chunk_into_cones`], in
/// [`Netlist::registers`] order (a combinational design's per-output
/// pseudo-cones are dropped).
fn register_cones(netlist: &Netlist) -> impl Iterator<Item = Cone> + '_ {
    chunk_into_cones(netlist)
        .into_iter()
        .filter(|c| netlist.gate(c.root).kind.is_sequential())
}

/// Every item of `items` but the held-out `test`-th: the training side of
/// a leave-one-design-out split.
fn held_out<T>(items: &[T], test: usize) -> impl Iterator<Item = &T> {
    items
        .iter()
        .enumerate()
        .filter(move |&(i, _)| i != test)
        .map(|(_, item)| item)
}
