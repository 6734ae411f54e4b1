//! Evaluation metrics matching the paper's tables: accuracy / macro
//! precision / recall / F1 (Tables III, Fig. 5), sensitivity / balanced
//! accuracy (Table IV left), Pearson correlation R and MAPE (Tables IV
//! right, V).

/// Classification metrics (macro-averaged over classes, like GNN-RE).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Classification {
    /// Overall accuracy in [0, 1].
    pub accuracy: f64,
    /// Macro precision.
    pub precision: f64,
    /// Macro recall.
    pub recall: f64,
    /// Macro F1.
    pub f1: f64,
}

/// Field-wise mean of per-design classification metrics.
pub fn mean_classification(ms: &[Classification]) -> Classification {
    let n = ms.len() as f64;
    Classification {
        accuracy: ms.iter().map(|m| m.accuracy).sum::<f64>() / n,
        precision: ms.iter().map(|m| m.precision).sum::<f64>() / n,
        recall: ms.iter().map(|m| m.recall).sum::<f64>() / n,
        f1: ms.iter().map(|m| m.f1).sum::<f64>() / n,
    }
}

/// Computes classification metrics over predicted/true class indices.
///
/// # Panics
///
/// Panics if lengths differ or inputs are empty.
pub fn classification_metrics(pred: &[usize], truth: &[usize], classes: usize) -> Classification {
    assert_eq!(pred.len(), truth.len(), "prediction/label length");
    assert!(!pred.is_empty(), "empty evaluation set");
    let mut confusion = vec![vec![0usize; classes]; classes];
    for (&p, &t) in pred.iter().zip(truth.iter()) {
        confusion[t][p] += 1;
    }
    let correct: usize = (0..classes).map(|c| confusion[c][c]).sum();
    let accuracy = correct as f64 / pred.len() as f64;
    let mut precisions = Vec::new();
    let mut recalls = Vec::new();
    let mut f1s = Vec::new();
    #[allow(clippy::needless_range_loop)]
    for c in 0..classes {
        let tp = confusion[c][c];
        let fp: usize = (0..classes)
            .filter(|&t| t != c)
            .map(|t| confusion[t][c])
            .sum();
        let fn_: usize = (0..classes)
            .filter(|&p| p != c)
            .map(|p| confusion[c][p])
            .sum();
        let support = tp + fn_;
        if support == 0 {
            continue; // class absent from the evaluation set
        }
        let prec = if tp + fp == 0 {
            0.0
        } else {
            tp as f64 / (tp + fp) as f64
        };
        let rec = tp as f64 / support as f64;
        let f1 = if prec + rec == 0.0 {
            0.0
        } else {
            2.0 * prec * rec / (prec + rec)
        };
        precisions.push(prec);
        recalls.push(rec);
        f1s.push(f1);
    }
    let avg = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    Classification {
        accuracy,
        precision: avg(&precisions),
        recall: avg(&recalls),
        f1: avg(&f1s),
    }
}

/// Sensitivity (true-positive rate of the positive class) and balanced
/// accuracy — ReIGNN's Task 2 metrics, positive = state register.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinarySensitivity {
    /// TPR of the positive class.
    pub sensitivity: f64,
    /// (TPR + TNR) / 2.
    pub balanced_accuracy: f64,
}

/// Computes sensitivity / balanced accuracy; `true` is the positive class.
pub fn sensitivity_metrics(pred: &[bool], truth: &[bool]) -> BinarySensitivity {
    assert_eq!(pred.len(), truth.len(), "prediction/label length");
    let (mut tp, mut tn, mut fp, mut fn_) = (0f64, 0f64, 0f64, 0f64);
    for (&p, &t) in pred.iter().zip(truth.iter()) {
        match (t, p) {
            (true, true) => tp += 1.0,
            (true, false) => fn_ += 1.0,
            (false, false) => tn += 1.0,
            (false, true) => fp += 1.0,
        }
    }
    let tpr = if tp + fn_ == 0.0 {
        1.0
    } else {
        tp / (tp + fn_)
    };
    let tnr = if tn + fp == 0.0 { 1.0 } else { tn / (tn + fp) };
    BinarySensitivity {
        sensitivity: tpr,
        balanced_accuracy: 0.5 * (tpr + tnr),
    }
}

/// Regression metrics: Pearson R and mean absolute percentage error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Regression {
    /// Pearson correlation coefficient.
    pub r: f64,
    /// MAPE in percent.
    pub mape: f64,
}

/// Computes Pearson R and MAPE (%). MAPE denominators are floored at the
/// 10th percentile of |truth| to avoid division blow-ups near zero — the
/// standard guard when slack targets cross zero.
pub fn regression_metrics(pred: &[f64], truth: &[f64]) -> Regression {
    assert_eq!(pred.len(), truth.len(), "prediction/target length");
    assert!(!pred.is_empty(), "empty evaluation set");
    let n = pred.len() as f64;
    let mp = pred.iter().sum::<f64>() / n;
    let mt = truth.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vp = 0.0;
    let mut vt = 0.0;
    for (&p, &t) in pred.iter().zip(truth.iter()) {
        cov += (p - mp) * (t - mt);
        vp += (p - mp) * (p - mp);
        vt += (t - mt) * (t - mt);
    }
    let r = if vp == 0.0 || vt == 0.0 {
        0.0
    } else {
        cov / (vp.sqrt() * vt.sqrt())
    };
    let mut mags: Vec<f64> = truth.iter().map(|t| t.abs()).collect();
    mags.sort_by(f64::total_cmp);
    let p10 = mags[(mags.len() / 10).min(mags.len() - 1)];
    let mean_mag = mags.iter().sum::<f64>() / n;
    let floor = p10.max(0.05 * mean_mag).max(1e-9);
    let mape = pred
        .iter()
        .zip(truth.iter())
        .map(|(&p, &t)| ((p - t).abs() / t.abs().max(floor)) * 100.0)
        .sum::<f64>()
        / n;
    Regression { r, mape }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_classification() {
        let m = classification_metrics(&[0, 1, 2, 1], &[0, 1, 2, 1], 3);
        assert_eq!(m.accuracy, 1.0);
        assert_eq!(m.precision, 1.0);
        assert_eq!(m.recall, 1.0);
        assert_eq!(m.f1, 1.0);
    }

    #[test]
    fn partial_classification_matches_hand_computation() {
        // truth: [0,0,1,1]; pred: [0,1,1,1]
        let m = classification_metrics(&[0, 1, 1, 1], &[0, 0, 1, 1], 2);
        assert!((m.accuracy - 0.75).abs() < 1e-12);
        // class0: tp=1 fp=0 fn=1 -> p=1, r=.5 ; class1: tp=2 fp=1 fn=0 -> p=2/3, r=1
        assert!((m.precision - (1.0 + 2.0 / 3.0) / 2.0).abs() < 1e-12);
        assert!((m.recall - 0.75).abs() < 1e-12);
    }

    #[test]
    fn absent_classes_do_not_poison_macro_average() {
        let m = classification_metrics(&[0, 0], &[0, 0], 5);
        assert_eq!(m.f1, 1.0);
    }

    #[test]
    fn sensitivity_matches_reignn_definition() {
        // 2 state regs (1 found), 2 data regs (both correct).
        let pred = [true, false, false, false];
        let truth = [true, true, false, false];
        let m = sensitivity_metrics(&pred, &truth);
        assert!((m.sensitivity - 0.5).abs() < 1e-12);
        assert!((m.balanced_accuracy - 0.75).abs() < 1e-12);
    }

    #[test]
    fn regression_perfect_and_anticorrelated() {
        let t = [1.0, 2.0, 3.0, 4.0];
        let m = regression_metrics(&t, &t);
        assert!((m.r - 1.0).abs() < 1e-9);
        assert!(m.mape < 1e-9);
        let rev = [4.0, 3.0, 2.0, 1.0];
        let m2 = regression_metrics(&rev, &t);
        assert!((m2.r + 1.0).abs() < 1e-9);
    }

    #[test]
    fn mape_survives_near_zero_targets() {
        let truth = [0.0, 1.0, 2.0, 3.0];
        let pred = [0.1, 1.0, 2.0, 3.0];
        let m = regression_metrics(&pred, &truth);
        assert!(m.mape.is_finite());
        assert!(m.mape < 50.0);
    }
}
