//! # nettag-bench — experiment harness
//!
//! Shared machinery for the benches: the `NETTAG_SCALE` knob (`smoke` /
//! `default`), a pipeline that generates the pre-training corpus,
//! pre-trains NetTAG for one seed and assembles that seed's task suite
//! (the quality recorder's unit of work), and [`time_it`], the adaptive
//! timer the micro benches share.

use nettag_core::data::{build_pretrain_data, DataConfig, PretrainData};
use nettag_core::{pretrain, NetTag, NetTagConfig, PretrainConfig};
use nettag_netlist::Library;
use nettag_tasks::{build_suite, pretrain_designs, GnnConfig, SuiteConfig, TaskSuite};
use std::hint::black_box;
use std::time::Instant;

/// Experiment scale, selected via the `NETTAG_SCALE` environment variable.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Scale name (smoke/default).
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
                task4_per_family: 3,
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

/// One seed's experiment pipeline.
pub struct Pipeline {
    /// The pre-trained main model.
    pub model: NetTag,
    /// The pre-training corpus (the same for every seed).
    pub data: PretrainData,
    /// The seed's task suite.
    pub suite: TaskSuite,
    /// Scale used.
    pub scale: Scale,
}

/// Builds the corpus, pre-trains the main model and assembles the task
/// suite for `seed`. The seed is XORed into the model's init seed and the
/// suite's design seed, so seed 0 is the default configuration; the
/// corpus does not depend on it.
pub fn build_pipeline(scale: Scale, seed: u64) -> Pipeline {
    let lib = Library::default();
    eprintln!(
        "[nettag-bench] scale={} seed={seed} — generating pre-training corpus…",
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
        "[nettag-bench] corpus: {} expressions, {} cones",
        data.exprs.len(),
        data.cones.len()
    );
    let config = NetTagConfig {
        seed: scale.model.seed ^ seed,
        ..scale.model.clone()
    };
    let model = pretrained(config, 1.0, &data, &scale.pretrain_config());
    let suite = build_suite(&SuiteConfig {
        seed: scale.suite.seed ^ seed,
        ..scale.suite.clone()
    });
    Pipeline {
        model,
        data,
        suite,
        scale,
    }
}

/// Pre-trains a fresh `config` model on `data` with its gate text scaled
/// by `text_scale` (0 removes the text: structure-only features).
pub fn pretrained(
    config: NetTagConfig,
    text_scale: f32,
    data: &PretrainData,
    schedule: &PretrainConfig,
) -> NetTag {
    let mut model = NetTag::new(config);
    model.text_scale = text_scale;
    let t0 = Instant::now();
    let report = pretrain(&mut model, data, schedule);
    eprintln!(
        "[nettag-bench] pre-trained in {:.1}s (step1 loss {:.3}→{:.3}, step2 {:.3}→{:.3})",
        t0.elapsed().as_secs_f64(),
        report.step1_losses.first().copied().unwrap_or(f32::NAN),
        report.step1_losses.last().copied().unwrap_or(f32::NAN),
        report.step2_losses.first().copied().unwrap_or(f32::NAN),
        report.step2_losses.last().copied().unwrap_or(f32::NAN),
    );
    model
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
        let pipeline = build_pipeline(Scale::smoke(), 1);
        assert!(!pipeline.data.cones.is_empty());
        assert_eq!(pipeline.suite.task23.len(), 8);
        assert_eq!(pipeline.model.config.seed, Scale::smoke().model.seed ^ 1);
    }

    #[test]
    fn scales_are_ordered() {
        let s = Scale::smoke();
        let d = Scale::default_scale();
        assert!(s.step1_steps < d.step1_steps);
        assert!(s.step2_steps < d.step2_steps);
        assert!(s.finetune_epochs < d.finetune_epochs);
        assert!(s.suite.task1_designs < d.suite.task1_designs);
    }
}
