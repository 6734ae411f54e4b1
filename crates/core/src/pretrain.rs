//! The two-step self-supervised pre-training of NetTAG (paper Sec. II-D,
//! II-E, eq. 8) with per-objective ablation switches (Fig. 6).
//!
//! * **Step 1** trains ExprLLM with symbolic-expression contrastive
//!   learning (objective #1, eq. 3): positives are Boolean-equivalence
//!   rewrites, negatives are the rest of the batch.
//! * **Step 2** freezes ExprLLM and trains TAGFormer plus auxiliary heads
//!   with masked-gate reconstruction (#2.1, eq. 4), netlist graph
//!   contrastive learning (#2.2, eq. 5), graph-size prediction (#2.3,
//!   eq. 6), and cross-stage contrastive alignment against the RTL and
//!   layout encoders (#3, eq. 7).

use crate::data::{ConeSample, PretrainData};
use crate::encoders::{rtl_vocab, tokenize_rtl, LayoutEncoder, RtlEncoder};
use crate::nettag::NetTag;
use nettag_expr::token::{tokenize_expr, Vocab};
use nettag_expr::{augment_equivalent, AugmentConfig};
use nettag_netlist::{Tag, ALL_CELL_KINDS};
use nettag_nn::{
    data_parallel, info_nce, weighted_sum, Adam, GradStore, Graph, Layer, Mlp, NodeId, SampleTape,
    Tensor,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Which objectives are active (Fig. 6 ablation switches).
#[derive(Debug, Clone, Copy)]
pub struct Objectives {
    /// Objective #1: expression contrastive (step 1 runs at all).
    pub expr_contrast: bool,
    /// Objective #2.1: masked gate reconstruction.
    pub masked_gate: bool,
    /// Objective #2.2: netlist graph contrastive.
    pub graph_contrast: bool,
    /// Objective #2.3: graph size prediction.
    pub size_prediction: bool,
    /// Objective #3: cross-stage alignment.
    pub cross_stage: bool,
}

impl Default for Objectives {
    fn default() -> Self {
        Objectives {
            expr_contrast: true,
            masked_gate: true,
            graph_contrast: true,
            size_prediction: true,
            cross_stage: true,
        }
    }
}

/// Pre-training schedule.
#[derive(Debug, Clone)]
pub struct PretrainConfig {
    /// Step-1 optimization steps.
    pub step1_steps: usize,
    /// Step-1 batch size (pairs).
    pub step1_batch: usize,
    /// Step-1 learning rate.
    pub step1_lr: f32,
    /// Step-2 optimization steps.
    pub step2_steps: usize,
    /// Step-2 batch size (cones).
    pub step2_batch: usize,
    /// Step-2 learning rate.
    pub step2_lr: f32,
    /// Active objectives.
    pub objectives: Objectives,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for PretrainConfig {
    fn default() -> Self {
        PretrainConfig {
            step1_steps: 60,
            step1_batch: 8,
            step1_lr: 3e-3,
            step2_steps: 60,
            step2_batch: 6,
            step2_lr: 3e-3,
            objectives: Objectives::default(),
            seed: 0x9E7A,
        }
    }
}

/// Loss traces from both steps.
#[derive(Debug, Clone, Default)]
pub struct PretrainReport {
    /// Step-1 loss per step.
    pub step1_losses: Vec<f32>,
    /// Step-2 combined loss per step.
    pub step2_losses: Vec<f32>,
}

/// Auxiliary prediction heads used only during pre-training.
pub struct PretrainHeads {
    /// Gate-type classifier over masked node embeddings (`MLP_class`).
    pub mask_head: Mlp,
    /// Gate-count regressor over `N_cls` (`MLP_regr`).
    pub size_head: Mlp,
}

impl PretrainHeads {
    /// Builds heads for a model configuration (paper: 3-layer MLPs).
    pub fn new(embed_dim: usize, seed: u64) -> PretrainHeads {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xEAD5);
        PretrainHeads {
            mask_head: Mlp::new(&[embed_dim, embed_dim * 2, ALL_CELL_KINDS.len()], &mut rng),
            size_head: Mlp::new(&[embed_dim, embed_dim * 2, ALL_CELL_KINDS.len()], &mut rng),
        }
    }
}

/// Step 1: expression contrastive pre-training of ExprLLM (eq. 3).
pub fn pretrain_exprllm(
    model: &mut NetTag,
    data: &PretrainData,
    config: &PretrainConfig,
) -> Vec<f32> {
    if !config.objectives.expr_contrast || data.exprs.is_empty() {
        return Vec::new();
    }
    let vocab = NetTag::vocab();
    let mut rng = StdRng::seed_from_u64(config.seed ^ 1);
    let mut opt = Adam::new(config.step1_lr);
    let mut store = GradStore::new();
    let aug = AugmentConfig::default();
    let mut losses = Vec::with_capacity(config.step1_steps);
    for _ in 0..config.step1_steps {
        // All randomness is drawn up front so the per-sample tape builds
        // are pure functions of the sample index.
        let batch: Vec<&nettag_expr::Expr> = (0..config.step1_batch)
            .map(|_| {
                data.exprs
                    .as_slice()
                    .choose(&mut rng)
                    .expect("non-empty exprs")
            })
            .collect();
        let anchors: Vec<Vec<_>> = batch
            .iter()
            .map(|e| tokenize_expr(vocab, e, model.config.max_tokens))
            .collect();
        let positives: Vec<Vec<_>> = batch
            .iter()
            .map(|e| {
                let variant = augment_equivalent(e, &aug, &mut rng);
                tokenize_expr(vocab, &variant, model.config.max_tokens)
            })
            .collect();
        // Data-parallel step: each pair's anchor/positive encoder passes
        // run on their own tape; only the InfoNCE over the stacked batch
        // (which couples all samples as negatives) runs centrally.
        let exprllm = &model.exprllm;
        let temperature = model.config.temperature;
        let loss = data_parallel::step(
            anchors.len(),
            |i| {
                let mut g = Graph::new();
                let a = exprllm.forward(&mut g, &anchors[i]);
                let p = exprllm.forward(&mut g, &positives[i]);
                SampleTape {
                    graph: g,
                    outputs: vec![a, p],
                }
            },
            |g, leaves| {
                let a_rows: Vec<NodeId> = leaves.iter().map(|l| l[0]).collect();
                let p_rows: Vec<NodeId> = leaves.iter().map(|l| l[1]).collect();
                let a = g.stack_rows(&a_rows);
                let p = g.stack_rows(&p_rows);
                info_nce(g, a, p, temperature)
            },
            &mut store,
        );
        losses.push(loss);
        opt.step(&mut model.exprllm.params_mut(), &store);
    }
    losses
}

/// Pre-computed frozen features for step 2 (ExprLLM is frozen, so node
/// features are constants).
pub struct FrozenCone {
    /// Features of the original cone TAG.
    pub features: Tensor,
    /// Features of the augmented (equivalent) variant.
    pub aug_features: Tensor,
    /// RTL cone token ids.
    pub rtl_tokens: Vec<nettag_expr::token::TokenId>,
    /// Index into `PretrainData::cones`.
    pub index: usize,
}

/// Freezes ExprLLM outputs for every cone (run once before step 2).
pub fn freeze_cone_features(
    model: &NetTag,
    data: &PretrainData,
    rtl_vocab_: &Vocab,
) -> Vec<FrozenCone> {
    // ExprLLM is frozen here, so the features are one pure-inference
    // batch over every cone's original and augmented TAG: each distinct
    // gate text across the whole corpus is encoded once.
    let tags: Vec<&Tag> = data
        .cones
        .iter()
        .flat_map(|c| [&c.tag, &c.aug_tag])
        .collect();
    let mut features = model.node_features_batch(&tags).into_iter();
    data.cones
        .iter()
        .enumerate()
        .map(|(index, c)| FrozenCone {
            features: features.next().expect("one feature set per tag"),
            aug_features: features.next().expect("one feature set per tag"),
            rtl_tokens: tokenize_rtl(rtl_vocab_, &c.rtl_text, model.config.max_tokens),
            index,
        })
        .collect()
}

/// Step 2: TAGFormer fusion pre-training + cross-stage alignment (eq. 8).
#[allow(clippy::too_many_arguments)]
pub fn pretrain_tagformer(
    model: &mut NetTag,
    heads: &mut PretrainHeads,
    rtl_encoder: &mut RtlEncoder,
    layout_encoder: &mut LayoutEncoder,
    data: &PretrainData,
    frozen: &[FrozenCone],
    config: &PretrainConfig,
) -> Vec<f32> {
    if frozen.is_empty() {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(config.seed ^ 2);
    let mut opt = Adam::new(config.step2_lr);
    let mut store = GradStore::new();
    let obj = config.objectives;
    let mut losses = Vec::with_capacity(config.step2_steps);
    for _ in 0..config.step2_steps {
        // Sample the batch and the masked-gate sets up front (all
        // randomness on this thread, in the same draw order as the old
        // single-tape loop), so tape builds are pure.
        let batch: Vec<&FrozenCone> = (0..config.step2_batch)
            .map(|_| {
                let i = rng.gen_range(0..frozen.len());
                &frozen[i]
            })
            .collect();
        let masked_sets: Vec<Vec<usize>> = batch
            .iter()
            .map(|fc| {
                let cone: &ConeSample = &data.cones[fc.index];
                let n = fc.features.rows;
                // Choose masked gates (combinational only).
                let maskable: Vec<usize> = (0..n)
                    .filter(|&i| cone.kinds[i].is_combinational())
                    .collect();
                let n_mask = ((maskable.len() as f64 * model.config.mask_rate).ceil() as usize)
                    .min(maskable.len())
                    .max(usize::from(!maskable.is_empty()));
                maskable
                    .choose_multiple(&mut rng, n_mask)
                    .copied()
                    .collect()
            })
            .collect();
        let any_mask = obj.masked_gate && masked_sets.iter().any(|m| !m.is_empty());
        if !(any_mask || obj.size_prediction || obj.graph_contrast || obj.cross_stage) {
            break;
        }
        // Per-sample outputs, in this fixed order (combine re-reads the
        // same flags): cls, [aug_cls], [rtl, layout], [mask_ce],
        // [size_mse].
        let batch_len = batch.len();
        let model_ref = &*model;
        let heads_ref = &*heads;
        let rtl_ref = &*rtl_encoder;
        let layout_ref = &*layout_encoder;
        let loss = data_parallel::step(
            batch_len,
            |i| {
                let fc = batch[i];
                let cone: &ConeSample = &data.cones[fc.index];
                let masked = &masked_sets[i];
                let mut g = Graph::new();
                let feats = g.constant(fc.features.clone());
                let out = model_ref.tagformer.forward(
                    &mut g,
                    feats,
                    &cone.tag.edges,
                    if obj.masked_gate { masked } else { &[] },
                );
                let mut outputs = vec![out.cls];
                // #2.2 positive: the augmented equivalent cone.
                if obj.graph_contrast {
                    let aug_feats = g.constant(fc.aug_features.clone());
                    let aug_out =
                        model_ref
                            .tagformer
                            .forward(&mut g, aug_feats, &cone.aug_tag.edges, &[]);
                    outputs.push(aug_out.cls);
                }
                // #3 cross-stage embeddings.
                if obj.cross_stage {
                    outputs.push(rtl_ref.forward(&mut g, &fc.rtl_tokens));
                    outputs.push(layout_ref.forward(&mut g, &cone.layout, cone.die));
                }
                // #2.1 masked gate reconstruction (per-sample scalar).
                if obj.masked_gate && !masked.is_empty() {
                    let ids: Vec<u32> = masked.iter().map(|&i| i as u32).collect();
                    let picked = g.gather_rows(out.nodes, std::sync::Arc::new(ids));
                    let logits = heads_ref.mask_head.forward(&mut g, picked);
                    let targets: Vec<usize> =
                        masked.iter().map(|&i| cone.kinds[i].index()).collect();
                    outputs.push(g.cross_entropy(logits, std::sync::Arc::new(targets)));
                }
                // #2.3 graph size prediction (per-sample scalar).
                if obj.size_prediction {
                    let pred = heads_ref.size_head.forward(&mut g, out.cls);
                    let target = Tensor::row(cone.size_targets.clone());
                    outputs.push(g.mse(pred, target));
                }
                SampleTape { graph: g, outputs }
            },
            |g, leaves| {
                let mut objective_losses: Vec<(NodeId, f32)> = Vec::new();
                let mut cls_rows = Vec::with_capacity(batch_len);
                let mut aug_cls_rows = Vec::new();
                let mut rtl_rows = Vec::new();
                let mut layout_rows = Vec::new();
                for (i, sample) in leaves.iter().enumerate() {
                    let mut it = sample.iter().copied();
                    cls_rows.push(it.next().expect("cls output"));
                    if obj.graph_contrast {
                        aug_cls_rows.push(it.next().expect("aug output"));
                    }
                    if obj.cross_stage {
                        rtl_rows.push(it.next().expect("rtl output"));
                        layout_rows.push(it.next().expect("layout output"));
                    }
                    if obj.masked_gate && !masked_sets[i].is_empty() {
                        let ce = it.next().expect("mask ce output");
                        objective_losses.push((ce, 1.0 / batch_len as f32));
                    }
                    if obj.size_prediction {
                        let mse = it.next().expect("size mse output");
                        objective_losses.push((mse, 1.0 / batch_len as f32));
                    }
                }
                let cls = g.stack_rows(&cls_rows);
                if obj.graph_contrast {
                    let pos = g.stack_rows(&aug_cls_rows);
                    let l = info_nce(g, cls, pos, model_ref.config.temperature);
                    objective_losses.push((l, 1.0));
                }
                if obj.cross_stage {
                    let rtl = g.stack_rows(&rtl_rows);
                    let lay = g.stack_rows(&layout_rows);
                    let l_rtl = info_nce(g, cls, rtl, model_ref.config.temperature);
                    let l_lay = info_nce(g, cls, lay, model_ref.config.temperature);
                    objective_losses.push((l_rtl, 1.0));
                    objective_losses.push((l_lay, 1.0));
                }
                weighted_sum(g, &objective_losses)
            },
            &mut store,
        );
        losses.push(loss);
        let mut params = model.tagformer.params_mut();
        params.extend(heads.mask_head.params_mut());
        params.extend(heads.size_head.params_mut());
        params.extend(rtl_encoder.params_mut());
        params.extend(layout_encoder.params_mut());
        opt.step(&mut params, &store);
    }
    losses
}

/// Runs the full two-step pre-training (eq. 8), returning loss traces.
pub fn pretrain(
    model: &mut NetTag,
    data: &PretrainData,
    config: &PretrainConfig,
) -> PretrainReport {
    let mut report = PretrainReport {
        step1_losses: pretrain_exprllm(model, data, config),
        ..PretrainReport::default()
    };
    let rtl_voc = rtl_vocab();
    let mut heads = PretrainHeads::new(model.config.embed_dim, config.seed);
    let mut rtl_enc = RtlEncoder::new(&rtl_voc, &model.config);
    let mut layout_enc = LayoutEncoder::new(&model.config);
    let frozen = freeze_cone_features(model, data, &rtl_voc);
    report.step2_losses = pretrain_tagformer(
        model,
        &mut heads,
        &mut rtl_enc,
        &mut layout_enc,
        data,
        &frozen,
        config,
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetTagConfig;
    use crate::data::{build_pretrain_data, DataConfig};
    use nettag_netlist::Library;
    use nettag_synth::{generate_design, Family, GenerateConfig};

    fn tiny_data() -> PretrainData {
        let lib = Library::default();
        let designs: Vec<_> = (0..2)
            .map(|i| generate_design(Family::OpenCores, i, 3, &GenerateConfig::default()))
            .collect();
        build_pretrain_data(
            &designs,
            &lib,
            &DataConfig {
                max_cones_per_design: 3,
                ..DataConfig::default()
            },
        )
    }

    #[test]
    fn step1_reduces_contrastive_loss() {
        let mut model = NetTag::new(NetTagConfig::tiny());
        let data = tiny_data();
        let config = PretrainConfig {
            step1_steps: 40,
            step1_batch: 6,
            ..PretrainConfig::default()
        };
        let losses = pretrain_exprllm(&mut model, &data, &config);
        assert_eq!(losses.len(), 40);
        let head: f32 = losses[..8].iter().sum::<f32>() / 8.0;
        let tail: f32 = losses[losses.len() - 8..].iter().sum::<f32>() / 8.0;
        assert!(
            tail < head,
            "expression contrastive loss should fall: {head} -> {tail}"
        );
    }

    #[test]
    fn step2_runs_all_objectives_and_learns() {
        let mut model = NetTag::new(NetTagConfig::tiny());
        let data = tiny_data();
        assert!(!data.cones.is_empty());
        let config = PretrainConfig {
            step1_steps: 4,
            step2_steps: 12,
            step2_batch: 3,
            ..PretrainConfig::default()
        };
        let report = pretrain(&mut model, &data, &config);
        assert_eq!(report.step2_losses.len(), 12);
        let head = report.step2_losses[0];
        let tail = *report.step2_losses.last().expect("non-empty");
        assert!(
            tail < head * 1.5,
            "loss should not explode: {head} -> {tail}"
        );
        assert!(report.step2_losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn ablation_flags_disable_objectives() {
        let mut model = NetTag::new(NetTagConfig::tiny());
        let data = tiny_data();
        let config = PretrainConfig {
            step1_steps: 0,
            step2_steps: 3,
            step2_batch: 2,
            objectives: Objectives {
                expr_contrast: false,
                masked_gate: false,
                graph_contrast: false,
                size_prediction: true,
                cross_stage: false,
            },
            ..PretrainConfig::default()
        };
        let report = pretrain(&mut model, &data, &config);
        assert!(report.step1_losses.is_empty());
        assert_eq!(report.step2_losses.len(), 3);
    }
}
