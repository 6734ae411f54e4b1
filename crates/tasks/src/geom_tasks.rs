//! Layout-geometry fusion fine-tune scenarios (Table-V style).
//!
//! Two scenarios ride the late-fused embedding of
//! [`nettag_core::fuse_geometry`], `[CLS] ‖ mean geometry` (no trained
//! fusion weights; the GBDT head does the mixing): pre-route
//! total-wirelength/congestion regression and per-register slack
//! prediction. Ground truth comes from the repository's own physical
//! flow — cone-level wirelength and congestion from the default
//! (unoptimized) flow the geometry features are extracted from, slack
//! from the *optimized* full-design flow exactly as Task 3 defines it.
//! Every scenario is scored twice, from the fused embedding and from the
//! plain TAGFormer cone embedding, so the geometry modality's
//! contribution is read directly off the report.

use crate::metrics::{regression_metrics, Regression};
use crate::register_cones;
use nettag_core::{cone_geometry, fuse_geometry, NetTag, RegressorHead};
use nettag_netlist::{cone_to_netlist, synthesis_phys_estimates, Library, Tag};
use nettag_nn::Tensor;
use nettag_physical::{run_flow, FlowConfig};
use nettag_synth::Design;

/// Per-register geometry samples of one design.
pub struct GeomSamples {
    /// Frozen 1×d TAGFormer cone embeddings.
    pub cls: Vec<Tensor>,
    /// Per-cone spatial feature matrices (gates × `GEOM_DIM`).
    pub geom: Vec<Tensor>,
    /// log1p pre-route cone wirelength (total HPWL, um).
    pub wirelength: Vec<f32>,
    /// Routing-demand density: cone HPWL / die area (um/um²).
    pub congestion: Vec<f32>,
    /// Sign-off endpoint slack (ns) from the optimized full-design flow.
    pub slack: Vec<f32>,
}

/// Extracts geometry-labeled register cones from a design.
///
/// Geometry features and the wirelength/congestion labels come from
/// [`nettag_core::cone_geometry`], the entry point the serving engine
/// calls, so fine-tune features and served fused embeddings see identical
/// inputs.
pub fn geom_samples(model: &NetTag, design: &Design, lib: &Library) -> GeomSamples {
    let optimized = FlowConfig {
        optimize: true,
        ..FlowConfig::default()
    };
    let signoff = run_flow(&design.netlist, lib, &optimized);
    let mut out = GeomSamples {
        cls: Vec::new(),
        geom: Vec::new(),
        wirelength: Vec::new(),
        congestion: Vec::new(),
        slack: Vec::new(),
    };
    let mut tags = Vec::new();
    for cone in register_cones(&design.netlist) {
        let name = &design.netlist.gate(cone.root).name;
        let Some(slack) = signoff.register_slack(name) else {
            continue;
        };
        let sub = cone_to_netlist(&design.netlist, &cone);
        if sub.gate_count() < 2 {
            continue;
        }
        let props = synthesis_phys_estimates(&sub, lib);
        let (outcome, geom) = cone_geometry(&sub, &props, lib);
        let hpwl = outcome.placement.total_hpwl(&outcome.netlist);
        let die = outcome.placement.die.max(f64::MIN_POSITIVE);
        out.geom.push(geom);
        tags.push(Tag::from_netlist(&sub, lib, &model.tag_options()));
        out.wirelength.push(hpwl.ln_1p() as f32);
        out.congestion.push((hpwl / (die * die)) as f32);
        out.slack.push(slack as f32);
    }
    out.cls = model
        .embed_tags(&tags.iter().collect::<Vec<_>>())
        .into_iter()
        .map(|e| e.cls)
        .collect();
    out
}

/// Fused-vs-plain metrics for one regression target.
#[derive(Debug, Clone)]
pub struct GeomScenario {
    /// Regressed from the fused `[CLS] ‖ mean geometry` embedding.
    pub fused: Regression,
    /// Regressed from the plain TAGFormer cone embedding.
    pub plain: Regression,
}

/// The full layout-geometry fine-tune report.
#[derive(Debug, Clone)]
pub struct GeomTaskReport {
    /// Pre-route total-wirelength regression (log1p um).
    pub wirelength: GeomScenario,
    /// Pre-route congestion (HPWL/die²) regression.
    pub congestion: GeomScenario,
    /// Per-register sign-off slack prediction (ns).
    pub slack: GeomScenario,
    /// Training cones (all designs but the held-out one).
    pub train_cones: usize,
    /// Held-out test cones.
    pub test_cones: usize,
}

fn scenario(
    train_x_fused: &[Vec<f32>],
    train_x_plain: &[Vec<f32>],
    train_y: &[f32],
    test_x_fused: &[Vec<f32>],
    test_x_plain: &[Vec<f32>],
    test_y: &[f32],
) -> GeomScenario {
    let truth: Vec<f64> = test_y.iter().map(|&v| v as f64).collect();
    let eval = |train_x: &[Vec<f32>], test_x: &[Vec<f32>]| {
        let head = RegressorHead::train(train_x, train_y);
        let pred: Vec<f64> = head.predict(test_x).iter().map(|&v| v as f64).collect();
        regression_metrics(&pred, &truth)
    };
    GeomScenario {
        fused: eval(train_x_fused, test_x_fused),
        plain: eval(train_x_plain, test_x_plain),
    }
}

/// Runs both geometry fine-tune scenarios with the last design held out.
///
/// # Panics
///
/// Panics with fewer than two designs or when no cones survive
/// filtering.
pub fn run_geom_tasks(
    model: &NetTag,
    designs: &[(String, Design)],
    lib: &Library,
) -> GeomTaskReport {
    assert!(designs.len() >= 2, "need a train/test design split");
    let samples: Vec<GeomSamples> = designs
        .iter()
        .map(|(_, d)| geom_samples(model, d, lib))
        .collect();
    let (test, train) = samples.split_last().expect("non-empty");
    assert!(
        !test.cls.is_empty() && train.iter().any(|s| !s.cls.is_empty()),
        "no cones survived filtering"
    );
    let features = |set: &[&GeomSamples]| {
        let mut fused = Vec::new();
        let mut plain = Vec::new();
        for s in set {
            for (cls, geom) in s.cls.iter().zip(s.geom.iter()) {
                fused.push(fuse_geometry(cls, geom).data);
                plain.push(cls.data.clone());
            }
        }
        (fused, plain)
    };
    let train_refs: Vec<&GeomSamples> = train.iter().collect();
    let (train_fused, train_plain) = features(&train_refs);
    let (test_fused, test_plain) = features(&[test]);
    let collect = |f: fn(&GeomSamples) -> &Vec<f32>| {
        let train_y: Vec<f32> = train.iter().flat_map(|s| f(s).iter().copied()).collect();
        let test_y: Vec<f32> = f(test).clone();
        (train_y, test_y)
    };
    let (wl_train, wl_test) = collect(|s| &s.wirelength);
    let (cg_train, cg_test) = collect(|s| &s.congestion);
    let (sl_train, sl_test) = collect(|s| &s.slack);
    GeomTaskReport {
        wirelength: scenario(
            &train_fused,
            &train_plain,
            &wl_train,
            &test_fused,
            &test_plain,
            &wl_test,
        ),
        congestion: scenario(
            &train_fused,
            &train_plain,
            &cg_train,
            &test_fused,
            &test_plain,
            &cg_test,
        ),
        slack: scenario(
            &train_fused,
            &train_plain,
            &sl_train,
            &test_fused,
            &test_plain,
            &sl_test,
        ),
        train_cones: train_fused.len(),
        test_cones: test_fused.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettag_core::NetTagConfig;
    use nettag_synth::{generate_design, Family, GenerateConfig};

    #[test]
    fn geom_tasks_produce_finite_metrics() {
        let lib = Library::default();
        let model = NetTag::new(NetTagConfig::tiny());
        let designs: Vec<(String, Design)> = (0..2)
            .map(|i| {
                let d = generate_design(Family::OpenCores, i + 10, 3, &GenerateConfig::default());
                (format!("d{i}"), d)
            })
            .collect();
        let report = run_geom_tasks(&model, &designs, &lib);
        assert!(report.train_cones > 0 && report.test_cones > 0);
        for s in [&report.wirelength, &report.congestion, &report.slack] {
            assert!(s.fused.r.is_finite() && s.fused.mape.is_finite());
            assert!(s.plain.r.is_finite() && s.plain.mape.is_finite());
        }
    }

    #[test]
    fn geom_samples_align_lengths() {
        let lib = Library::default();
        let model = NetTag::new(NetTagConfig::tiny());
        let d = generate_design(Family::OpenCores, 3, 3, &GenerateConfig::default());
        let s = geom_samples(&model, &d, &lib);
        assert_eq!(s.cls.len(), s.geom.len());
        assert_eq!(s.cls.len(), s.wirelength.len());
        assert_eq!(s.cls.len(), s.congestion.len());
        assert_eq!(s.cls.len(), s.slack.len());
        assert!(!s.cls.is_empty(), "expected register cones");
    }
}
