//! The layout-geometry modality: deterministic per-gate spatial features
//! from a physical-flow outcome, and their late fusion with a cone's
//! `[CLS]` embedding.
//!
//! Everything here is a pure function of `(FlowOutcome, PhysProps)`. The
//! flow itself is seeded (placement jitter, activity vectors), so the
//! composition `cone_geometry` is a pure function of `(netlist, props)` —
//! exactly the inputs `structural_hash_with_phys` digests, which is why
//! the serving cache key needs no extension for the fused path.
//!
//! Fusion has no weights: [`fuse_geometry`] appends the column means of
//! the geometry features to the `[CLS]` row and leaves the rest to the
//! task head. The serving engine and the geometry fine-tune scenarios
//! both call it, so served and in-process fused rows are bitwise equal.

use nettag_netlist::{Library, Netlist, PhysProps};
use nettag_nn::Tensor;
use nettag_physical::{run_flow, FlowConfig, FlowOutcome};

/// Number of spatial features per gate.
///
/// Columns, in order: normalized x, normalized y, local placement density
/// (neighbors within 1.5 row pitches, as a fraction of all gates), the
/// driven net's share of total HPWL, endpoint slack (ns; 0 for
/// non-endpoints), output toggle rate, log1p wire resistance, log1p
/// output load.
pub const GEOM_DIM: usize = 8;

/// Walks a [`FlowOutcome`] and emits one `GEOM_DIM`-wide feature row per
/// gate of `outcome.netlist`, indexed by gate id.
///
/// `props` are the per-gate physical properties the caller annotated the
/// TAG with (synthesis estimates or sign-off props) — using the caller's
/// copy rather than recomputing keeps geometry a function of the same
/// inputs the cone cache key hashes.
///
/// # Panics
///
/// Panics if `props.len()` differs from the gate count.
pub fn geometry_features(outcome: &FlowOutcome, props: &[PhysProps]) -> Tensor {
    let n = outcome.netlist.gate_count();
    assert_eq!(props.len(), n, "one PhysProps entry per gate");
    let die = outcome.placement.die.max(f64::MIN_POSITIVE);
    let total_hpwl = outcome.placement.total_hpwl(&outcome.netlist);
    let radius = 1.5 * outcome.placement.pitch;
    let r2 = radius * radius;
    let mut t = Tensor::zeros(n, GEOM_DIM);
    for id in outcome.netlist.ids() {
        let i = id.index();
        let (x, y) = outcome.placement.coords[i];
        // Local placement density: fraction of gates (excluding self)
        // within 1.5 row pitches. Cones are small (≤ a few hundred
        // gates), so the quadratic scan is cheap and branch-predictable.
        let mut near = 0usize;
        for &(ox, oy) in &outcome.placement.coords {
            let (dx, dy) = (ox - x, oy - y);
            if dx * dx + dy * dy <= r2 {
                near += 1;
            }
        }
        let density = (near.saturating_sub(1)) as f64 / n as f64;
        let hpwl = outcome.placement.net_hpwl(&outcome.netlist, id);
        let share = if total_hpwl > 0.0 {
            hpwl / total_hpwl
        } else {
            0.0
        };
        let slack = outcome
            .timing
            .endpoint_slack
            .get(&id)
            .copied()
            .unwrap_or(0.0);
        let p = &props[i];
        let row = [
            (x / die) as f32,
            (y / die) as f32,
            density as f32,
            share as f32,
            slack as f32,
            p.toggle_rate as f32,
            (p.resistance.max(0.0)).ln_1p() as f32,
            (p.load.max(0.0)).ln_1p() as f32,
        ];
        for (c, v) in row.into_iter().enumerate() {
            *t.at_mut(i, c) = v;
        }
    }
    t
}

/// Canonical geometry extraction for a cone netlist: runs the default
/// (seeded, deterministic) physical flow and extracts
/// [`geometry_features`], returning the flow outcome beside them (the
/// fine-tune scenarios read their wirelength and congestion labels off
/// it).
///
/// Both the serving engine's fused path and the fine-tune scenarios call
/// this — in-process and served fused embeddings are bit-identical by
/// construction because they share this single entry point.
pub fn cone_geometry(
    netlist: &Netlist,
    props: &[PhysProps],
    lib: &Library,
) -> (FlowOutcome, Tensor) {
    let outcome = run_flow(netlist, lib, &FlowConfig::default());
    let features = geometry_features(&outcome, props);
    (outcome, features)
}

/// Late fusion of a cone's 1×d `[CLS]` embedding with its n×[`GEOM_DIM`]
/// geometry: `[CLS] ‖ column means of geom`, a 1×(d + [`GEOM_DIM`]) row.
/// A cone with no gates contributes a zero tail.
///
/// # Panics
///
/// Panics if `cls` is not one row or `geom` is not [`GEOM_DIM`] wide.
pub fn fuse_geometry(cls: &Tensor, geom: &Tensor) -> Tensor {
    assert_eq!(cls.rows, 1, "one [CLS] row");
    assert_eq!(geom.cols, GEOM_DIM, "GEOM_DIM features per gate");
    let mut out = cls.data.clone();
    let n = geom.rows.max(1) as f32;
    for c in 0..GEOM_DIM {
        let mut s = 0.0;
        for r in 0..geom.rows {
            s += geom.at(r, c);
        }
        out.push(s / n);
    }
    Tensor::row(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettag_netlist::{synthesis_phys_estimates, CellKind};

    fn cone() -> Netlist {
        let mut n = Netlist::new("geom_t");
        let a = n.add_gate("a", CellKind::Input, vec![]);
        let b = n.add_gate("b", CellKind::Input, vec![]);
        let x = n.add_gate("X", CellKind::Xor2, vec![a, b]);
        let m = n.add_gate("M", CellKind::Nand2, vec![x, a]);
        let r = n.add_gate("R1", CellKind::Dff, vec![m]);
        n.add_gate("y", CellKind::Output, vec![r]);
        n.validate().expect("valid")
    }

    #[test]
    fn features_have_expected_shape_and_ranges() {
        let n = cone();
        let lib = Library::default();
        let props = synthesis_phys_estimates(&n, &lib);
        let (_, t) = cone_geometry(&n, &props, &lib);
        assert_eq!(t.rows, n.gate_count());
        assert_eq!(t.cols, GEOM_DIM);
        for r in 0..t.rows {
            let row = t.row_slice(r);
            assert!((0.0..=1.0).contains(&row[0]), "x normalized");
            assert!((0.0..=1.0).contains(&row[1]), "y normalized");
            assert!((0.0..=1.0).contains(&row[2]), "density is a fraction");
            assert!((0.0..=1.0).contains(&row[3]), "HPWL share is a fraction");
            assert!(row.iter().all(|v| v.is_finite()));
        }
        // HPWL shares sum to 1 over gates that drive nets (within fp).
        let share_sum: f32 = (0..t.rows).map(|r| t.at(r, 3)).sum();
        assert!((share_sum - 1.0).abs() < 1e-4, "shares sum to {share_sum}");
    }

    #[test]
    fn extraction_is_deterministic() {
        let n = cone();
        let lib = Library::default();
        let props = synthesis_phys_estimates(&n, &lib);
        let (_, a) = cone_geometry(&n, &props, &lib);
        let (_, b) = cone_geometry(&n, &props, &lib);
        assert_eq!(a.data, b.data, "geometry must be bit-reproducible");
    }

    #[test]
    #[should_panic(expected = "one PhysProps entry per gate")]
    fn mismatched_props_panic() {
        let n = cone();
        let lib = Library::default();
        cone_geometry(&n, &[], &lib);
    }
}
