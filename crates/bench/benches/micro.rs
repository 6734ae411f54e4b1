//! Micro-benchmarks of the pipeline's hot paths: symbolic expression
//! extraction (+ the 2-hop ablation from DESIGN.md, sweeping hop depth),
//! cone chunking, the per-cone TAG front end, STA, power, ExprLLM and
//! TAGFormer inference.
//!
//! Run with `cargo bench -p nettag-bench --bench micro`; each line prints
//! the best per-iteration time of [`nettag_bench::time_it`].

use nettag_bench::time_it;
use nettag_core::{NetTag, NetTagConfig};
use nettag_expr::token::tokenize_expr;
use nettag_netlist::{
    chunk_into_cones, cone_to_netlist, gate_expr, synthesis_phys_estimates, Library, Netlist,
    PhysProps, Tag, TagOptions,
};
use nettag_physical::{
    analyze_timing, extract, measure_activity, place, ActivityConfig, PlaceConfig, TimingConfig,
};
use nettag_synth::{generate_design, Family, GenerateConfig, ALL_FAMILIES};
use std::hint::black_box;

fn report(name: &str, seconds: f64) {
    println!("{name:<28} {:>12.2} us/iter", seconds * 1e6);
}

fn bench_expression_extraction() {
    let design = generate_design(Family::VexRiscv, 0, 7, &GenerateConfig::default());
    let target = design
        .netlist
        .iter()
        .filter(|(_, g)| g.kind.is_combinational())
        .map(|(id, _)| id)
        .last()
        .expect("has gates");
    for hops in [1usize, 2, 3] {
        report(
            &format!("expr_extraction/{hops}"),
            time_it(|| gate_expr(&design.netlist, target, hops)),
        );
    }
}

fn bench_chunking_and_tag() {
    let design = generate_design(Family::Chipyard, 0, 7, &GenerateConfig::default());
    let lib = Library::default();
    report(
        "register_cone_chunking",
        time_it(|| chunk_into_cones(&design.netlist)),
    );
    report(
        "tag_conversion",
        time_it(|| Tag::from_netlist(&design.netlist, &lib, &TagOptions::default())),
    );
}

/// The per-cone TAG front end over the 48-design corpus of
/// `tests/equivalence.rs` (every family, generator scale 0.5): chunking
/// plus `cone_to_netlist` per design, then synthesis phys estimates and
/// the TAG build per cone.
fn bench_front_end() {
    let lib = Library::default();
    let opts = TagOptions::default();
    let gen = GenerateConfig {
        scale: 0.5,
        ..GenerateConfig::default()
    };
    let designs: Vec<Netlist> = (0..48)
        .map(|k| {
            let family = ALL_FAMILIES[k % ALL_FAMILIES.len()];
            generate_design(family, k / ALL_FAMILIES.len(), 0x5eed, &gen).netlist
        })
        .collect();
    let extract = |d: &Netlist| -> Vec<Netlist> {
        chunk_into_cones(d)
            .iter()
            .map(|c| cone_to_netlist(d, c))
            .collect()
    };
    let cones: Vec<Netlist> = designs.iter().flat_map(extract).collect();
    let props: Vec<Vec<PhysProps>> = cones
        .iter()
        .map(|c| synthesis_phys_estimates(c, &lib))
        .collect();
    let per_design = designs.len() as f64;
    let per_cone = cones.len() as f64;
    report(
        "front_end/extract_per_design",
        time_it(|| {
            for d in &designs {
                black_box(extract(d));
            }
        }) / per_design,
    );
    report(
        "front_end/phys_per_cone",
        time_it(|| {
            for c in &cones {
                black_box(synthesis_phys_estimates(c, &lib));
            }
        }) / per_cone,
    );
    report(
        "front_end/tag_per_cone",
        time_it(|| {
            for (c, p) in cones.iter().zip(&props) {
                black_box(Tag::from_netlist_with_phys(c, p, &opts));
            }
        }) / per_cone,
    );
}

fn bench_physical() {
    let design = generate_design(Family::VexRiscv, 1, 7, &GenerateConfig::default());
    let lib = Library::default();
    let placement = place(&design.netlist, &lib, &PlaceConfig::default());
    let parasitics = extract(&design.netlist, &lib, &placement);
    report(
        "sta",
        time_it(|| analyze_timing(&design.netlist, &lib, &parasitics, &TimingConfig::default())),
    );
    report(
        "activity_sim_16cycles",
        time_it(|| {
            measure_activity(
                &design.netlist,
                &ActivityConfig {
                    cycles: 16,
                    ..ActivityConfig::default()
                },
            )
        }),
    );
}

fn bench_model_inference() {
    let model = NetTag::new(NetTagConfig::small());
    let vocab = NetTag::vocab();
    let expr = nettag_expr::parse_expr("!((R1 ^ R2) | !R2) & Ite(s, a, b ^ c)").expect("parses");
    let toks = tokenize_expr(vocab, &expr, model.config.max_tokens);
    report("exprllm_encode", time_it(|| model.exprllm.encode(&toks)));
    let design = generate_design(Family::OpenCores, 0, 7, &GenerateConfig::default());
    let lib = Library::default();
    let tag = Tag::from_netlist(&design.netlist, &lib, &model.tag_options());
    let features = model.node_features(&tag);
    report(
        "tagformer_encode",
        time_it(|| model.tagformer.encode(&features, &tag.edges)),
    );
}

/// TAGFormer inference on the register cones nearest 35 gates (the
/// `design_cold` mean), 64 and 220, under the tiny and small configs;
/// each line is labelled with the cone's actual gate count.
fn bench_tagformer_cone_sizes() {
    let lib = Library::default();
    let cones: Vec<Netlist> = ALL_FAMILIES
        .iter()
        .flat_map(|&family| (0..4).map(move |index| (family, index)))
        .flat_map(|(family, index)| {
            let design = generate_design(family, index, 7, &GenerateConfig::default());
            chunk_into_cones(&design.netlist)
                .iter()
                .map(|c| cone_to_netlist(&design.netlist, c))
                .collect::<Vec<_>>()
        })
        .collect();
    for (label, config) in [
        ("tiny", NetTagConfig::tiny()),
        ("small", NetTagConfig::small()),
    ] {
        let model = NetTag::new(config);
        for target in [35usize, 64, 220] {
            let cone = cones
                .iter()
                .min_by_key(|n| n.gate_count().abs_diff(target))
                .expect("designs have cones");
            let tag = Tag::from_netlist(cone, &lib, &model.tag_options());
            let features = model.node_features(&tag);
            report(
                &format!("tagformer_encode/{label}/{}", tag.len()),
                time_it(|| model.tagformer.encode(&features, &tag.edges)),
            );
        }
    }
}

fn main() {
    bench_expression_extraction();
    bench_chunking_and_tag();
    bench_front_end();
    bench_physical();
    bench_model_inference();
    bench_tagformer_cone_sizes();
}
