//! Layout-geometry fusion demo: spatial features, cross-attentive
//! fusion, and the fused serving path.
//!
//! Extracts per-gate spatial features from the deterministic placement
//! flow, trains the [`nettag::geom::FusionModel`] (geometry encoder +
//! cross-attention head) against cone wirelength through the
//! bitwise-deterministic data-parallel driver, then serves fused
//! embeddings through the engine and shows they match the in-process
//! path bit for bit — cold, warm, and deduplicated.
//!
//! Run with: `cargo run --release --example geom_fusion_demo`

use nettag::core::{NetTag, NetTagConfig};
use nettag::geom::{
    cone_geometry, train_fusion, FusionModel, FusionSample, FusionTrainConfig, GEOM_DIM,
};
use nettag::netlist::{synthesis_phys_estimates, Library, Netlist, Tag};
use nettag::serve::{Engine, ServeConfig};
use nettag::synth::{generate_design, Family, GenerateConfig};
use nettag::tasks::geom_samples;

fn main() {
    let lib = Library::default();
    let model = NetTag::new(NetTagConfig::tiny());

    // 1. Register cones of an ITC'99-style design, each with a frozen
    // TAGFormer [CLS] embedding and a gates × GEOM_DIM spatial feature
    // matrix from the seeded placement flow (position, local density,
    // wirelength share, endpoint slack, activity, RC).
    println!("== 1. spatial features from the placement flow ==");
    let design = generate_design(Family::Itc99, 0, 0x9E0, &GenerateConfig::default());
    let samples = geom_samples(&model, &design, &lib);
    println!(
        "  {} register cones; first cone: {} gates x {GEOM_DIM} features",
        samples.cls.len(),
        samples.geom[0].rows
    );

    // 2. Train the fusion: the geometry encoder lifts features to the
    // embedding dimension, the cross-attention head lets the [CLS]
    // token attend over the cone's gate-level geometry tokens. Grounded
    // on cone wirelength; every step runs through the data-parallel
    // driver, so the trained weights are identical at any thread count.
    println!("\n== 2. training the fusion (wirelength-grounded) ==");
    let mut fusion = FusionModel::new(model.config.embed_dim, 2, 0x9E0);
    let data: Vec<FusionSample> = samples
        .cls
        .iter()
        .zip(samples.geom.iter())
        .zip(samples.wirelength.iter())
        .map(|((cls, geom), &target)| FusionSample {
            cls: cls.clone(),
            geom: geom.clone(),
            target,
        })
        .collect();
    let losses = train_fusion(&mut fusion, &data, &FusionTrainConfig::default());
    println!(
        "  {} cones, {} steps: loss {:.4} -> {:.4}",
        data.len(),
        losses.len(),
        losses[0],
        losses[losses.len() - 1]
    );

    // 3. Serve fused embeddings. The engine computes the [CLS] pass on
    // its batcher lanes, extracts the same deterministic geometry, and
    // fuses — bitwise identical to calling `FusionModel::fuse` locally.
    // Fused results cache under the structural digest XOR a salt, so a
    // repeat is a lookup, and the digest covers the physical attributes
    // geometry derives from (no extra key material needed).
    println!("\n== 3. serving fused embeddings ==");
    let engine = Engine::with_fusion(
        std::sync::Arc::new(model),
        fusion.clone(),
        ServeConfig::default(),
    );
    let client = engine.client();
    let cone: &Netlist = {
        // Rebuild the first cone the sample extractor used.
        &design
            .netlist
            .registers()
            .into_iter()
            .map(|r| {
                nettag::netlist::cone_to_netlist(
                    &design.netlist,
                    &nettag::netlist::register_cone(&design.netlist, r),
                )
            })
            .find(|c| c.gate_count() >= 2)
            .expect("a register cone")
    };
    let served = client.embed_cone_fused(cone.clone(), None).expect("serve");
    let local = {
        let eng_model = NetTag::new(NetTagConfig::tiny());
        let tag = Tag::from_netlist(cone, &lib, &eng_model.tag_options());
        let cls = eng_model.embed_tag(&tag).cls;
        let props = synthesis_phys_estimates(cone, &lib);
        fusion.fuse(&cls, &cone_geometry(cone, &props, &lib))
    };
    println!(
        "  served == in-process fusion bitwise: {}",
        served.data == local.data
    );
    let again = client.embed_cone_fused(cone.clone(), None).expect("serve");
    let stats = engine.stats();
    println!(
        "  repeat request: cache hit ({} hits / {} misses), shared buffer: {}",
        stats.cache_hits,
        stats.cache_misses,
        std::sync::Arc::ptr_eq(&served, &again)
    );
    engine.shutdown();

    println!("\nDone. `cargo bench -p nettag-bench --bench quality` records the fused-vs-plain");
    println!("fine-tune scenarios (wirelength, congestion, slack) in BENCH_quality.json;");
    println!("`crates/geom/tests/equivalence.rs` proves 1-vs-N-thread training determinism.");
}
