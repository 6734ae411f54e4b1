//! # nettag-bench — experiment harness
//!
//! Shared machinery for the per-table/per-figure experiment benches: the
//! `NETTAG_SCALE` knob (`smoke` / `default` / `full`), a pipeline that
//! generates corpora, pre-trains NetTAG once, and exposes the task suite,
//! plus table printing with the paper's reference numbers alongside, and
//! [`time_it`], the adaptive timer the micro benches share.

use nettag_core::data::{build_pretrain_data, DataConfig, PretrainData};
use nettag_core::{pretrain, NetTag, NetTagConfig, PretrainConfig};
use nettag_netlist::Library;
use nettag_tasks::{build_suite, pretrain_designs, GnnConfig, SuiteConfig, TaskSuite};
use std::hint::black_box;
use std::time::Instant;

/// Experiment scale, selected via the `NETTAG_SCALE` environment variable.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Scale name (smoke/default/full).
    pub name: &'static str,
    /// Pre-training designs per family.
    pub pretrain_per_family: usize,
    /// Generator scale for pre-training designs.
    pub pretrain_scale: f64,
    /// Max cones per design for the pre-training corpus.
    pub max_cones: usize,
    /// Step-1 optimization steps.
    pub step1_steps: usize,
    /// Step-2 optimization steps.
    pub step2_steps: usize,
    /// Model configuration.
    pub model: NetTagConfig,
    /// Task suite configuration.
    pub suite: SuiteConfig,
    /// Fine-tune epochs.
    pub finetune_epochs: usize,
    /// Baseline GNN epochs.
    pub gnn_epochs: usize,
}

impl Scale {
    /// Reads `NETTAG_SCALE` (default "default").
    pub fn from_env() -> Scale {
        match std::env::var("NETTAG_SCALE").as_deref() {
            Ok("smoke") => Scale::smoke(),
            Ok("full") => Scale::full(),
            _ => Scale::default_scale(),
        }
    }

    /// Seconds-scale configuration for CI smoke runs.
    pub fn smoke() -> Scale {
        Scale {
            name: "smoke",
            pretrain_per_family: 1,
            pretrain_scale: 0.35,
            max_cones: 3,
            step1_steps: 8,
            step2_steps: 8,
            model: NetTagConfig::tiny(),
            suite: SuiteConfig {
                scale: 0.35,
                task1_designs: 3,
                task4_per_family: 2,
                ..SuiteConfig::default()
            },
            finetune_epochs: 40,
            gnn_epochs: 8,
        }
    }

    /// The standard laptop-scale configuration.
    pub fn default_scale() -> Scale {
        Scale {
            name: "default",
            pretrain_per_family: 2,
            pretrain_scale: 0.5,
            max_cones: 8,
            step1_steps: 80,
            step2_steps: 40,
            model: NetTagConfig::small(),
            suite: SuiteConfig {
                scale: 0.5,
                task1_designs: 9,
                task4_per_family: 3,
                ..SuiteConfig::default()
            },
            finetune_epochs: 150,
            gnn_epochs: 40,
        }
    }

    /// Longer configuration for overnight runs.
    pub fn full() -> Scale {
        Scale {
            name: "full",
            pretrain_per_family: 3,
            pretrain_scale: 0.8,
            max_cones: 12,
            step1_steps: 150,
            step2_steps: 120,
            model: NetTagConfig::small(),
            suite: SuiteConfig {
                scale: 0.8,
                task1_designs: 9,
                task4_per_family: 4,
                ..SuiteConfig::default()
            },
            finetune_epochs: 300,
            gnn_epochs: 80,
        }
    }

    /// Fine-tune configuration at this scale.
    pub fn finetune(&self) -> nettag_core::FinetuneConfig {
        nettag_core::FinetuneConfig {
            epochs: self.finetune_epochs,
            hidden: 96,
            ..nettag_core::FinetuneConfig::default()
        }
    }

    /// Baseline GNN configuration at this scale.
    pub fn gnn(&self) -> GnnConfig {
        GnnConfig {
            epochs: self.gnn_epochs,
            ..GnnConfig::default()
        }
    }

    /// Pre-training schedule at this scale.
    pub fn pretrain_config(&self) -> PretrainConfig {
        PretrainConfig {
            step1_steps: self.step1_steps,
            step2_steps: self.step2_steps,
            ..PretrainConfig::default()
        }
    }
}

/// A fully prepared experiment pipeline.
pub struct Pipeline {
    /// The pre-trained NetTAG model.
    pub model: NetTag,
    /// The pre-training corpus (kept for Table II / Fig. 7 reuse).
    pub data: PretrainData,
    /// The task suite.
    pub suite: TaskSuite,
    /// Scale used.
    pub scale: Scale,
    /// Wall-clock seconds spent pre-training.
    pub pretrain_seconds: f64,
}

/// Builds the corpus, pre-trains NetTAG, and assembles the task suite.
pub fn build_pipeline(scale: Scale) -> Pipeline {
    let lib = Library::default();
    eprintln!(
        "[nettag-bench] scale={} — generating pre-training corpus…",
        scale.name
    );
    let designs = pretrain_designs(0xBE7C, scale.pretrain_per_family, scale.pretrain_scale);
    let data = build_pretrain_data(
        &designs,
        &lib,
        &DataConfig {
            max_cones_per_design: scale.max_cones,
            ..DataConfig::default()
        },
    );
    eprintln!(
        "[nettag-bench] corpus: {} expressions, {} cones — pre-training…",
        data.exprs.len(),
        data.cones.len()
    );
    let mut model = NetTag::new(scale.model.clone());
    let t0 = Instant::now();
    let report = pretrain(&mut model, &data, &scale.pretrain_config());
    let pretrain_seconds = t0.elapsed().as_secs_f64();
    eprintln!(
        "[nettag-bench] pre-trained in {:.1}s (step1 loss {:.3}→{:.3}, step2 {:.3}→{:.3})",
        pretrain_seconds,
        report.step1_losses.first().copied().unwrap_or(f32::NAN),
        report.step1_losses.last().copied().unwrap_or(f32::NAN),
        report.step2_losses.first().copied().unwrap_or(f32::NAN),
        report.step2_losses.last().copied().unwrap_or(f32::NAN),
    );
    let suite = build_suite(&scale.suite);
    Pipeline {
        model,
        data,
        suite,
        scale,
        pretrain_seconds,
    }
}

/// Prints a fixed-width table with a title.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let joined: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", joined.join("  "));
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(
        &widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<String>>(),
    );
    for row in rows {
        line(row);
    }
}

/// Compact all-task summary used by the ablation (Fig. 6) and scaling
/// (Fig. 7) harnesses.
#[derive(Debug, Clone, Copy)]
pub struct TaskSummary {
    /// Task 1 average accuracy.
    pub task1_acc: f64,
    /// Task 2 average balanced accuracy.
    pub task2_acc: f64,
    /// Task 3 average MAPE (%).
    pub task3_mape: f64,
    /// Task 4 average MAPE (%) over the four targets.
    pub task4_mape: f64,
}

/// Runs all four tasks and summarizes the headline metric of each.
pub fn eval_all_tasks(model: &NetTag, suite: &TaskSuite, scale: &Scale) -> TaskSummary {
    let ft = scale.finetune();
    let gnn = scale.gnn();
    let t1 = nettag_tasks::run_task1(model, &suite.task1, &suite.lib, &ft, &gnn);
    let t2 = nettag_tasks::run_task2(model, &suite.task23, &suite.lib, &ft, &gnn);
    let t3 = nettag_tasks::run_task3(
        model,
        &suite.task23,
        &suite.lib,
        &gnn,
        &nettag_physical::FlowConfig::default(),
    );
    let ppa = nettag_tasks::ppa_samples(model, &suite.task4, &suite.lib);
    let t4 = nettag_tasks::run_task4(&ppa, &gnn);
    TaskSummary {
        task1_acc: t1.avg_nettag.accuracy,
        task2_acc: t2.avg_nettag.balanced_accuracy,
        task3_mape: t3.avg_nettag.mape,
        task4_mape: t4.rows.iter().map(|r| r.nettag.mape).sum::<f64>() / t4.rows.len() as f64,
    }
}

/// Formats a fraction as a percent string.
pub fn pct(v: f64) -> String {
    format!("{:.0}", v * 100.0)
}

/// Formats a float to 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Times `f` adaptively: batch sized during warm-up, best-of-4 batches,
/// reported as seconds per iteration.
pub fn time_it<R>(mut f: impl FnMut() -> R) -> f64 {
    let mut iters = 1u64;
    let per = loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let dt = t0.elapsed().as_secs_f64();
        if dt > 0.2 || iters >= 1 << 16 {
            break dt / iters as f64;
        }
        iters *= 2;
    };
    let batch = ((0.12 / per.max(1e-9)) as u64).clamp(1, 1 << 16);
    let mut best = f64::INFINITY;
    for _ in 0..4 {
        let t0 = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        best = best.min(t0.elapsed().as_secs_f64() / batch as f64);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_pipeline_builds_end_to_end() {
        let pipeline = build_pipeline(Scale::smoke());
        assert!(!pipeline.data.cones.is_empty());
        assert_eq!(pipeline.suite.task23.len(), 8);
        assert!(pipeline.pretrain_seconds >= 0.0);
    }

    #[test]
    fn scales_are_ordered() {
        let s = Scale::smoke();
        let d = Scale::default_scale();
        let f = Scale::full();
        assert!(s.step1_steps < d.step1_steps);
        assert!(d.step1_steps < f.step1_steps);
    }
}
