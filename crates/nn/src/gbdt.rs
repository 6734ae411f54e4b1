//! Gradient-boosted regression trees.
//!
//! The paper fine-tunes NetTAG embeddings "with lightweight task models
//! like MLPs or tree-based models (e.g., XGBoost)" (Sec. II-F). This is
//! the tree-based option: depth-limited CART regressors fit to residuals
//! with shrinkage, greedy variance-reduction splits over feature
//! quantiles.

/// GBDT hyperparameters.
#[derive(Debug, Clone)]
pub struct GbdtConfig {
    /// Number of boosting rounds.
    pub rounds: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Learning rate (shrinkage).
    pub learning_rate: f32,
    /// Minimum samples to attempt a split.
    pub min_samples_split: usize,
    /// Candidate thresholds per feature (quantiles).
    pub candidates: usize,
}

impl Default for GbdtConfig {
    fn default() -> Self {
        GbdtConfig {
            rounds: 60,
            max_depth: 3,
            learning_rate: 0.15,
            min_samples_split: 8,
            candidates: 16,
        }
    }
}

#[derive(Debug, Clone)]
enum TreeNode {
    Leaf(f32),
    Split {
        feature: usize,
        threshold: f32,
        left: Box<TreeNode>,
        right: Box<TreeNode>,
    },
}

impl TreeNode {
    fn predict(&self, x: &[f32]) -> f32 {
        match self {
            TreeNode::Leaf(v) => *v,
            TreeNode::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                if x[*feature] <= *threshold {
                    left.predict(x)
                } else {
                    right.predict(x)
                }
            }
        }
    }
}

/// A trained gradient-boosted regression model.
#[derive(Debug, Clone)]
pub struct GbdtRegressor {
    base: f32,
    trees: Vec<TreeNode>,
    shrinkage: f32,
}

impl GbdtRegressor {
    /// Fits the model on row-major features and targets.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != targets.len()` or features are empty.
    pub fn fit(features: &[Vec<f32>], targets: &[f32], config: &GbdtConfig) -> GbdtRegressor {
        assert_eq!(features.len(), targets.len(), "one target per row");
        assert!(!features.is_empty(), "cannot fit on empty data");
        let base = targets.iter().sum::<f32>() / targets.len() as f32;
        let mut preds = vec![base; targets.len()];
        let mut trees = Vec::with_capacity(config.rounds);
        for _ in 0..config.rounds {
            let residuals: Vec<f32> = targets
                .iter()
                .zip(preds.iter())
                .map(|(t, p)| t - p)
                .collect();
            let idx: Vec<usize> = (0..features.len()).collect();
            let tree = build_tree(features, &residuals, &idx, config.max_depth, config);
            for (i, p) in preds.iter_mut().enumerate() {
                *p += config.learning_rate * tree.predict(&features[i]);
            }
            trees.push(tree);
        }
        GbdtRegressor {
            base,
            trees,
            shrinkage: config.learning_rate,
        }
    }

    /// Predicts one sample.
    pub fn predict(&self, x: &[f32]) -> f32 {
        self.base + self.shrinkage * self.trees.iter().map(|t| t.predict(x)).sum::<f32>()
    }

    /// Predicts a batch.
    pub fn predict_batch(&self, xs: &[Vec<f32>]) -> Vec<f32> {
        xs.iter().map(|x| self.predict(x)).collect()
    }
}

fn build_tree(
    features: &[Vec<f32>],
    residuals: &[f32],
    idx: &[usize],
    depth: usize,
    config: &GbdtConfig,
) -> TreeNode {
    let mean = idx.iter().map(|&i| residuals[i]).sum::<f32>() / idx.len().max(1) as f32;
    if depth == 0 || idx.len() < config.min_samples_split {
        return TreeNode::Leaf(mean);
    }
    let n_features = features[0].len();
    let parent_sse = sse(residuals, idx, mean);
    let mut best: Option<(usize, f32, f32)> = None; // (feature, threshold, gain)
    #[allow(clippy::needless_range_loop)]
    for f in 0..n_features {
        let mut vals: Vec<f32> = idx.iter().map(|&i| features[i][f]).collect();
        vals.sort_by(f32::total_cmp);
        vals.dedup();
        if vals.len() < 2 {
            continue;
        }
        let step = (vals.len() / config.candidates.max(1)).max(1);
        for t in vals.iter().step_by(step) {
            let (mut ls, mut ln, mut rs, mut rn) = (0.0f32, 0usize, 0.0f32, 0usize);
            for &i in idx {
                if features[i][f] <= *t {
                    ls += residuals[i];
                    ln += 1;
                } else {
                    rs += residuals[i];
                    rn += 1;
                }
            }
            if ln == 0 || rn == 0 {
                continue;
            }
            let lm = ls / ln as f32;
            let rm = rs / rn as f32;
            let mut child_sse = 0.0;
            for &i in idx {
                let d = if features[i][f] <= *t {
                    residuals[i] - lm
                } else {
                    residuals[i] - rm
                };
                child_sse += d * d;
            }
            let gain = parent_sse - child_sse;
            if best.map(|(_, _, g)| gain > g).unwrap_or(gain > 1e-12) {
                best = Some((f, *t, gain));
            }
        }
    }
    let Some((feature, threshold, _)) = best else {
        return TreeNode::Leaf(mean);
    };
    let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = idx
        .iter()
        .partition(|&&i| features[i][feature] <= threshold);
    if left_idx.is_empty() || right_idx.is_empty() {
        return TreeNode::Leaf(mean);
    }
    TreeNode::Split {
        feature,
        threshold,
        left: Box::new(build_tree(
            features,
            residuals,
            &left_idx,
            depth - 1,
            config,
        )),
        right: Box::new(build_tree(
            features,
            residuals,
            &right_idx,
            depth - 1,
            config,
        )),
    }
}

fn sse(residuals: &[f32], idx: &[usize], mean: f32) -> f32 {
    idx.iter()
        .map(|&i| (residuals[i] - mean) * (residuals[i] - mean))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn fits_piecewise_constant_function() {
        let xs: Vec<Vec<f32>> = (0..100).map(|i| vec![i as f32 / 100.0]).collect();
        let ys: Vec<f32> = xs
            .iter()
            .map(|x| if x[0] < 0.5 { 1.0 } else { 3.0 })
            .collect();
        let model = GbdtRegressor::fit(&xs, &ys, &GbdtConfig::default());
        assert!((model.predict(&[0.2]) - 1.0).abs() < 0.15);
        assert!((model.predict(&[0.8]) - 3.0).abs() < 0.15);
    }

    #[test]
    fn fits_additive_nonlinear_function() {
        let mut rng = StdRng::seed_from_u64(8);
        let xs: Vec<Vec<f32>> = (0..300)
            .map(|_| vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)])
            .collect();
        let ys: Vec<f32> = xs.iter().map(|x| x[0] * x[0] + 0.5 * x[1]).collect();
        let model = GbdtRegressor::fit(
            &xs,
            &ys,
            &GbdtConfig {
                rounds: 120,
                ..GbdtConfig::default()
            },
        );
        let preds = model.predict_batch(&xs);
        let mse: f32 = preds
            .iter()
            .zip(ys.iter())
            .map(|(p, y)| (p - y) * (p - y))
            .sum::<f32>()
            / ys.len() as f32;
        assert!(mse < 0.01, "training mse {mse}");
    }

    #[test]
    fn constant_targets_need_no_splits() {
        let xs: Vec<Vec<f32>> = (0..20).map(|i| vec![i as f32]).collect();
        let ys = vec![2.5f32; 20];
        let model = GbdtRegressor::fit(&xs, &ys, &GbdtConfig::default());
        assert!((model.predict(&[7.0]) - 2.5).abs() < 1e-4);
    }
}
