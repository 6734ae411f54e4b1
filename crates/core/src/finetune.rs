//! Fine-tuning heads over frozen NetTAG embeddings (paper Sec. II-F):
//! lightweight MLP classifiers and GBDT regressors.

use nettag_nn::{
    data_parallel, Adam, GbdtConfig, GbdtRegressor, GradStore, Graph, Layer, Mlp, NodeId,
    SampleTape, Tensor,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Rows per data-parallel shard in the full-batch head trainers. Fixed
/// (not derived from the worker count) so the shard partition — and with
/// it every floating-point reduction order — is identical at any thread
/// count.
const SHARD_ROWS: usize = 32;

/// The single source of shard boundaries: half-open row ranges of at
/// most [`SHARD_ROWS`] rows. Feature and target sharding must both
/// consume this so they can never misalign.
fn shard_ranges(rows: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    (0..rows)
        .step_by(SHARD_ROWS)
        .map(move |start| start..(start + SHARD_ROWS).min(rows))
}

/// Splits packed features into fixed-size row shards.
fn shard_rows(x: &Tensor) -> Vec<Tensor> {
    shard_ranges(x.rows)
        .map(|r| {
            Tensor::from_vec(
                r.len(),
                x.cols,
                x.data[r.start * x.cols..r.end * x.cols].to_vec(),
            )
        })
        .collect()
}

/// Training schedule for fine-tuning heads.
#[derive(Debug, Clone)]
pub struct FinetuneConfig {
    /// Full-batch epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Hidden width (paper: 256, 3-layer MLPs).
    pub hidden: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for FinetuneConfig {
    fn default() -> Self {
        FinetuneConfig {
            epochs: 200,
            lr: 5e-3,
            hidden: 64,
            seed: 0xF17E,
        }
    }
}

/// An MLP classification head.
#[derive(Debug, Clone)]
pub struct ClassifierHead {
    mlp: Mlp,
    classes: usize,
}

impl ClassifierHead {
    /// Trains a classifier on frozen embeddings.
    ///
    /// # Panics
    ///
    /// Panics if `features` is empty or lengths mismatch.
    pub fn train(
        features: &[Vec<f32>],
        labels: &[usize],
        classes: usize,
        config: &FinetuneConfig,
    ) -> ClassifierHead {
        assert_eq!(features.len(), labels.len(), "one label per sample");
        assert!(!features.is_empty(), "cannot train on empty data");
        let dim = features[0].len();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut mlp = Mlp::new(&[dim, config.hidden, classes], &mut rng);
        let x = pack(features);
        // Fixed-size row shards train data-parallel: per-shard tapes,
        // per-shard CE means, recombined with shard-size weights so the
        // total equals the full-batch mean.
        let shards = shard_rows(&x);
        let shard_targets: Vec<Arc<Vec<usize>>> = shard_ranges(x.rows)
            .map(|r| Arc::new(labels[r].to_vec()))
            .collect();
        let total = labels.len() as f32;
        let mut opt = Adam::new(config.lr);
        let mut store = GradStore::new();
        for _ in 0..config.epochs {
            let mlp_ref = &mlp;
            data_parallel::step(
                shards.len(),
                |i| {
                    let mut g = Graph::new();
                    let xn = g.constant(shards[i].clone());
                    let logits = mlp_ref.forward(&mut g, xn);
                    let loss = g.cross_entropy(logits, shard_targets[i].clone());
                    SampleTape {
                        graph: g,
                        outputs: vec![loss],
                    }
                },
                |g, leaves| {
                    let weighted: Vec<(NodeId, f32)> = leaves
                        .iter()
                        .enumerate()
                        .map(|(i, l)| (l[0], shard_targets[i].len() as f32 / total))
                        .collect();
                    nettag_nn::weighted_sum(g, &weighted)
                },
                &mut store,
            );
            opt.step(&mut mlp.params_mut(), &store);
        }
        ClassifierHead { mlp, classes }
    }

    /// Predicts class indices for a batch.
    pub fn predict(&self, features: &[Vec<f32>]) -> Vec<usize> {
        if features.is_empty() {
            return Vec::new();
        }
        let mut g = Graph::no_grad();
        let x = g.constant(pack(features));
        let logits = self.mlp.forward(&mut g, x);
        let lv = g.value(logits);
        (0..lv.rows)
            .map(|r| {
                let row = lv.row_slice(r);
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }
}

/// A gradient-boosted-trees regression head (the paper's XGBoost option)
/// with target standardization.
#[derive(Debug, Clone)]
pub struct RegressorHead {
    model: GbdtRegressor,
    mean: f32,
    std: f32,
}

impl RegressorHead {
    /// Trains a regressor on frozen embeddings.
    ///
    /// # Panics
    ///
    /// Panics if `features` is empty or lengths mismatch.
    pub fn train(features: &[Vec<f32>], targets: &[f32]) -> RegressorHead {
        assert_eq!(features.len(), targets.len(), "one target per sample");
        assert!(!features.is_empty(), "cannot train on empty data");
        let mean = targets.iter().sum::<f32>() / targets.len() as f32;
        let var =
            targets.iter().map(|t| (t - mean) * (t - mean)).sum::<f32>() / targets.len() as f32;
        let std = var.sqrt().max(1e-6);
        let normed: Vec<f32> = targets.iter().map(|t| (t - mean) / std).collect();
        let model = GbdtRegressor::fit(features, &normed, &GbdtConfig::default());
        RegressorHead { model, mean, std }
    }

    /// Predicts values for a batch (denormalized).
    pub fn predict(&self, features: &[Vec<f32>]) -> Vec<f32> {
        if features.is_empty() {
            return Vec::new();
        }
        self.model
            .predict_batch(features)
            .into_iter()
            .map(|v| v * self.std + self.mean)
            .collect()
    }
}

fn pack(features: &[Vec<f32>]) -> Tensor {
    let cols = features[0].len();
    let mut t = Tensor::zeros(features.len(), cols);
    for (r, f) in features.iter().enumerate() {
        assert_eq!(f.len(), cols, "ragged feature rows");
        t.data[r * cols..(r + 1) * cols].copy_from_slice(f);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn blobs(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let c = rng.gen_range(0..2usize);
            let center = if c == 0 { -1.0 } else { 1.0 };
            xs.push(vec![
                center + rng.gen_range(-0.3f32..0.3),
                -center + rng.gen_range(-0.3f32..0.3),
            ]);
            ys.push(c);
        }
        (xs, ys)
    }

    #[test]
    fn classifier_separates_blobs() {
        let (xs, ys) = blobs(60, 1);
        let head = ClassifierHead::train(&xs, &ys, 2, &FinetuneConfig::default());
        let preds = head.predict(&xs);
        let acc =
            preds.iter().zip(ys.iter()).filter(|(p, y)| p == y).count() as f64 / ys.len() as f64;
        assert!(acc > 0.95, "acc {acc}");
        assert_eq!(head.classes(), 2);
    }

    /// Targets far from zero mean and unit scale come back in their own
    /// units: the head fits standardized targets and denormalizes.
    #[test]
    fn regressor_standardizes_targets() {
        let xs: Vec<Vec<f32>> = (0..100).map(|i| vec![i as f32 / 100.0]).collect();
        let ys: Vec<f32> = xs.iter().map(|x| 5000.0 + 800.0 * x[0]).collect();
        let head = RegressorHead::train(&xs, &ys);
        let mae = head
            .predict(&xs)
            .iter()
            .zip(&ys)
            .map(|(p, y)| (p - y).abs())
            .sum::<f32>()
            / ys.len() as f32;
        assert!(mae < 40.0, "mae {mae}");
        let flat = RegressorHead::train(&xs, &vec![7.5; xs.len()]);
        assert!(flat.predict(&xs).iter().all(|&p| (p - 7.5).abs() < 1e-3));
    }

    #[test]
    fn gbdt_regressor_fits_step_function() {
        let xs: Vec<Vec<f32>> = (0..100).map(|i| vec![i as f32 / 100.0]).collect();
        let ys: Vec<f32> = xs
            .iter()
            .map(|x| if x[0] < 0.4 { 10.0 } else { 20.0 })
            .collect();
        let head = RegressorHead::train(&xs, &ys);
        let preds = head.predict(&[vec![0.1], vec![0.9]]);
        assert!((preds[0] - 10.0).abs() < 1.5);
        assert!((preds[1] - 20.0).abs() < 1.5);
    }
}
