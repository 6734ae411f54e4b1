//! Cross-attentive fusion of TAGFormer cone embeddings with geometry
//! tokens — FusionCell's geometry×topology recipe.

use crate::encoder::GeomEncoder;
use nettag_nn::{
    data_parallel, weighted_sum, Adam, GradStore, Graph, Layer, LayerNorm, Mlp, MultiHeadAttention,
    NodeId, Param, SampleTape, Tensor,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cross-attention head: the cone embedding (one query row) attends over
/// the cone's gate-level geometry tokens, and the attended context is
/// folded back with a residual + LayerNorm. Output width equals the cone
/// embedding width, so fused embeddings drop into every downstream
/// consumer of plain cone embeddings.
#[derive(Debug, Clone)]
pub struct FusionHead {
    /// Cross-attention (queries from the cone embedding, keys/values from
    /// geometry tokens).
    pub attn: MultiHeadAttention,
    /// Post-residual normalization.
    pub ln: LayerNorm,
}

impl FusionHead {
    /// New head over embedding width `dim` with `heads` attention heads.
    ///
    /// # Panics
    ///
    /// Panics if `dim % heads != 0`.
    pub fn new(dim: usize, heads: usize, seed: u64) -> FusionHead {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF05);
        FusionHead {
            attn: MultiHeadAttention::new(dim, heads, &mut rng),
            ln: LayerNorm::new(dim),
        }
    }

    /// Tape forward: 1×d cone embedding + n×d geometry tokens → 1×d
    /// fused embedding.
    pub fn forward(&self, g: &mut Graph, cls: NodeId, tokens: NodeId) -> NodeId {
        let ctx = self.attn.forward_cross(g, cls, tokens);
        let res = g.add(cls, ctx);
        self.ln.forward(g, res)
    }
}

impl Layer for FusionHead {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = Vec::new();
        for l in &mut self.attn.wq {
            p.extend(l.params_mut());
        }
        for l in &mut self.attn.wk {
            p.extend(l.params_mut());
        }
        for l in &mut self.attn.wv {
            p.extend(l.params_mut());
        }
        p.extend(self.attn.wo.params_mut());
        p.extend(self.ln.params_mut());
        p
    }
}

/// The complete geometry modality: token encoder + fusion head.
#[derive(Debug, Clone)]
pub struct FusionModel {
    /// Spatial-feature → geometry-token encoder.
    pub encoder: GeomEncoder,
    /// Cross-attentive fusion head.
    pub head: FusionHead,
}

impl FusionModel {
    /// New model over embedding width `dim` with `heads` attention heads.
    pub fn new(dim: usize, heads: usize, seed: u64) -> FusionModel {
        FusionModel {
            encoder: GeomEncoder::new(dim, seed),
            head: FusionHead::new(dim, heads, seed),
        }
    }

    /// Tape forward: 1×d cone embedding + n×[`GEOM_DIM`](crate::GEOM_DIM)
    /// spatial features → 1×d fused embedding.
    pub fn forward(&self, g: &mut Graph, cls: NodeId, geom: NodeId) -> NodeId {
        let tokens = self.encoder.forward(g, geom);
        self.head.forward(g, cls, tokens)
    }

    /// Fusion for serving: [`FusionModel::forward`] on a
    /// [`Graph::no_grad`] graph, bit-identical to the tape pass.
    pub fn fuse(&self, cls: &Tensor, geom: &Tensor) -> Tensor {
        let mut g = Graph::no_grad();
        let (c, x) = (g.constant(cls.clone()), g.constant(geom.clone()));
        let y = self.forward(&mut g, c, x);
        g.take_value(y)
    }
}

impl Layer for FusionModel {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.encoder.params_mut();
        p.extend(self.head.params_mut());
        p
    }
}

/// One fusion training sample.
#[derive(Debug, Clone)]
pub struct FusionSample {
    /// Frozen 1×d TAGFormer cone embedding.
    pub cls: Tensor,
    /// n×[`GEOM_DIM`](crate::GEOM_DIM) spatial features for the cone.
    pub geom: Tensor,
    /// Scalar regression target grounding the fusion (e.g. log total
    /// wirelength from the flow).
    pub target: f32,
}

/// Options for [`train_fusion`].
#[derive(Debug, Clone)]
pub struct FusionTrainConfig {
    /// Optimization steps.
    pub steps: usize,
    /// Samples per step.
    pub batch: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// RNG seed (batch sampling + the throwaway regression head).
    pub seed: u64,
}

impl Default for FusionTrainConfig {
    fn default() -> FusionTrainConfig {
        FusionTrainConfig {
            steps: 30,
            batch: 8,
            lr: 0.005,
            seed: 0xDAC,
        }
    }
}

/// Trains the fusion model by regressing `sample.target` (standardized
/// internally) from the fused embedding through a throwaway MLP head,
/// one data-parallel step per iteration.
///
/// Runs through [`nettag_nn::data_parallel::step`], so the update — and
/// therefore the trained weights — is bitwise identical at any thread
/// count. Returns the per-step losses.
pub fn train_fusion(
    model: &mut FusionModel,
    samples: &[FusionSample],
    cfg: &FusionTrainConfig,
) -> Vec<f32> {
    assert!(!samples.is_empty(), "need at least one sample");
    let dim = samples[0].cls.cols;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x9E03);
    let mut head = Mlp::new(&[dim, dim, 1], &mut rng);
    // Standardize targets so the MSE scale is independent of the label's
    // physical unit.
    let mean = samples.iter().map(|s| s.target).sum::<f32>() / samples.len() as f32;
    let var = samples
        .iter()
        .map(|s| (s.target - mean) * (s.target - mean))
        .sum::<f32>()
        / samples.len() as f32;
    let std = var.sqrt().max(1e-6);
    let mut store = GradStore::new();
    let mut opt = Adam::new(cfg.lr);
    let mut losses = Vec::with_capacity(cfg.steps);
    for _ in 0..cfg.steps {
        // All randomness drawn before the step: tape builds are pure
        // functions of the sample index.
        let batch: Vec<usize> = (0..cfg.batch.min(samples.len()))
            .map(|_| rng.gen_range(0..samples.len()))
            .collect();
        let n = batch.len();
        let build = |i: usize| {
            let s = &samples[batch[i]];
            let mut g = Graph::new();
            let cls = g.constant(s.cls.clone());
            let geom = g.constant(s.geom.clone());
            let fused = model.forward(&mut g, cls, geom);
            let pred = head.forward(&mut g, fused);
            let t = (s.target - mean) / std;
            let loss = g.mse(pred, Tensor::from_vec(1, 1, vec![t]));
            SampleTape {
                graph: g,
                outputs: vec![loss],
            }
        };
        let combine = |g: &mut Graph, leaves: &[Vec<NodeId>]| {
            let losses: Vec<(NodeId, f32)> =
                leaves.iter().map(|l| (l[0], 1.0 / n as f32)).collect();
            weighted_sum(g, &losses)
        };
        let loss = data_parallel::step(n, build, combine, &mut store);
        let mut params = model.params_mut();
        params.extend(head.params_mut());
        opt.step(&mut params, &store);
        losses.push(loss);
    }
    losses
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::GEOM_DIM;

    fn sample(seed: u64, dim: usize, gates: usize) -> FusionSample {
        let mut rng = StdRng::seed_from_u64(seed);
        FusionSample {
            cls: Tensor::xavier(1, dim, &mut rng),
            geom: Tensor::xavier(gates, GEOM_DIM, &mut rng),
            target: rng.gen_range(-1.0..1.0),
        }
    }

    #[test]
    fn fuse_matches_tape_bitwise() {
        let model = FusionModel::new(16, 2, 11);
        let s = sample(5, 16, 9);
        let mut g = Graph::new();
        let cls = g.constant(s.cls.clone());
        let geom = g.constant(s.geom.clone());
        let y = model.forward(&mut g, cls, geom);
        let tape = g.value(y).clone();
        let fused = model.fuse(&s.cls, &s.geom);
        assert_eq!(tape.rows, 1);
        assert_eq!(tape.cols, 16);
        assert_eq!(tape.data, fused.data, "serving path must be bit-identical");
    }

    #[test]
    fn training_reduces_loss_and_changes_fusion() {
        let mut model = FusionModel::new(8, 2, 3);
        let before = model.clone();
        let samples: Vec<FusionSample> = (0..12).map(|i| sample(i, 8, 6)).collect();
        let losses = train_fusion(
            &mut model,
            &samples,
            &FusionTrainConfig {
                steps: 40,
                batch: 6,
                lr: 0.01,
                seed: 9,
            },
        );
        let first = losses[..5].iter().sum::<f32>() / 5.0;
        let last = losses[losses.len() - 5..].iter().sum::<f32>() / 5.0;
        assert!(last < first, "loss should fall: {first} -> {last}");
        let s = &samples[0];
        assert_ne!(
            before.fuse(&s.cls, &s.geom).data,
            model.fuse(&s.cls, &s.geom).data,
            "training must move the fused embedding"
        );
    }
}
