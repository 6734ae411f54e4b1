//! Cross-crate functional-equivalence guarantees: every transformation the
//! flow applies (logic optimization, restructuring augmentation, physical
//! optimization) must preserve circuit function, and expression
//! augmentation must preserve Boolean semantics. These invariants are what
//! make the contrastive "positives" of the pre-training objectives sound.

use nettag::expr::{
    augment_equivalent, equivalent, AugmentConfig, RandomExprConfig, RandomExprGen,
};
use nettag::synth::{
    check_equivalent_random, generate_design, optimize, restructure_equivalent, Family,
    GenerateConfig, ALL_FAMILIES,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn expression_augmentation_preserves_semantics_on_many_random_exprs() {
    let mut gen = RandomExprGen::new(RandomExprConfig::default());
    let mut rng = StdRng::seed_from_u64(0xE0);
    let cfg = AugmentConfig::default();
    for _ in 0..200 {
        let e = gen.generate(&mut rng);
        let v = augment_equivalent(&e, &cfg, &mut rng);
        assert!(equivalent(&e, &v), "augmentation broke {e} -> {v}");
    }
}

#[test]
fn logic_optimization_preserves_function_across_families() {
    let mut rng = StdRng::seed_from_u64(0xE1);
    for family in [Family::OpenCores, Family::VexRiscv, Family::Itc99] {
        let raw = generate_design(
            family,
            0,
            5,
            &GenerateConfig {
                scale: 0.4,
                optimize: false,
                remap_prob: 0.0,
            },
        );
        let opt = optimize(&raw);
        assert!(
            check_equivalent_random(&raw, &opt, 20, &mut rng),
            "{family:?}: optimization changed behaviour"
        );
        assert!(opt.netlist.gate_count() <= raw.netlist.gate_count());
    }
}

#[test]
fn restructuring_augmentation_preserves_function() {
    let mut rng = StdRng::seed_from_u64(0xE2);
    let design = generate_design(
        Family::Chipyard,
        0,
        5,
        &GenerateConfig {
            scale: 0.3,
            ..GenerateConfig::default()
        },
    );
    for steps in [2usize, 6, 12] {
        let aug = restructure_equivalent(&design, steps, &mut rng);
        let mut check_rng = StdRng::seed_from_u64(steps as u64);
        assert!(
            check_equivalent_random(&design, &aug, 16, &mut check_rng),
            "restructuring with {steps} steps changed behaviour"
        );
    }
}

#[test]
fn physical_optimization_preserves_function() {
    use nettag::netlist::Library;
    use nettag::physical::{optimize_physical, OptimizeConfig};
    let design = generate_design(
        Family::VexRiscv,
        1,
        5,
        &GenerateConfig {
            scale: 0.4,
            ..GenerateConfig::default()
        },
    );
    let lib = Library::default();
    let out = optimize_physical(&design.netlist, &lib, &OptimizeConfig::default());
    // Wrap in Designs to reuse the random equivalence checker.
    let a = nettag::synth::Design {
        netlist: design.netlist.clone(),
        labels: design.labels.clone(),
        rtl: design.rtl.clone(),
    };
    let b = nettag::synth::Design {
        labels: vec![Default::default(); out.netlist.gate_count()],
        netlist: out.netlist,
        rtl: design.rtl.clone(),
    };
    let mut rng = StdRng::seed_from_u64(0xE3);
    assert!(check_equivalent_random(&a, &b, 20, &mut rng));
}

#[test]
fn equal_cone_digests_imply_equal_model_input() {
    // The serving cache answers a cone with the embedding of any earlier
    // cone under the same `structural_hash_with_phys`, so equal digests
    // must mean equal TAGFormer input: per-node token sequences, phys
    // feature bits and edges, node for node, for cones of every size (the
    // engine accepts any). Every cone is also fed with
    // its gates renamed to names the expression parser rejects (`1g3`,
    // `g.4`) or reads as a constant (`1`): the digest ignores names, so
    // the renamed twin must tokenize like the original.
    use nettag::core::NetTag;
    use nettag::netlist::{
        chunk_into_cones, cone_to_netlist, structural_hash_with_phys, synthesis_phys_estimates,
        GateId, Library, Netlist, Tag, TagOptions,
    };
    use std::collections::HashMap;
    fn renamed(n: &Netlist) -> Netlist {
        let mut out = n.clone();
        for i in 0..out.gate_count() {
            let name = match i {
                0 => "1".to_string(),
                i if i % 2 == 1 => format!("1g{i}"),
                i => format!("g.{i}"),
            };
            out.gate_mut(GateId(i as u32)).name = name.into();
        }
        out
    }
    let lib = Library::default();
    let vocab = NetTag::vocab();
    let opts = TagOptions::default();
    let gen = GenerateConfig {
        scale: 0.5,
        ..GenerateConfig::default()
    };
    type Input = (Vec<Vec<u32>>, Vec<[u32; 8]>, Vec<(u32, u32)>);
    let mut seen: HashMap<u128, Input> = HashMap::new();
    let mut repeats = 0;
    for k in 0..48 {
        let family = ALL_FAMILIES[k % ALL_FAMILIES.len()];
        let design = generate_design(family, k / ALL_FAMILIES.len(), 0x5eed, &gen);
        for cone in chunk_into_cones(&design.netlist) {
            let sub = cone_to_netlist(&design.netlist, &cone);
            let twin = renamed(&sub);
            for net in [&sub, &twin] {
                let props = synthesis_phys_estimates(net, &lib);
                let key = structural_hash_with_phys(net, &props);
                let tag = Tag::from_netlist_with_phys(net, &props, &opts);
                let input: Input = (
                    (0..tag.len())
                        .map(|i| tag.node_tokens(&vocab, i, 1024, false))
                        .collect(),
                    tag.nodes
                        .iter()
                        .map(|n| n.phys.feature_vector().map(f32::to_bits))
                        .collect(),
                    tag.edges.clone(),
                );
                match seen.get(&key) {
                    Some(first) => {
                        repeats += 1;
                        assert!(
                            *first == input,
                            "design {k} cone {}: digest shared with a different model input",
                            net.name()
                        );
                    }
                    None => {
                        seen.insert(key, input);
                    }
                }
            }
        }
    }
    assert!(repeats > 0, "the designs must repeat some cone structure");
}
