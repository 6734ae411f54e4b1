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
    //
    // The un-renamed cones also feed five FNV-1a fingerprints that pin the
    // TAG front end's output bit for bit: the cone netlists (gate name,
    // kind, fan-in and size bits, in order), `node_tokens(.., 1024,
    // false)`, `attribute_text`, the synthesis phys estimates' bits and
    // the `structural_hash_with_phys` digests themselves (the serving
    // cache's keys).
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
    struct Fnv(u64);
    impl Fnv {
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        fn word(&mut self, v: u64) {
            self.write(&v.to_le_bytes());
        }
    }
    let fnv = || Fnv(0xcbf2_9ce4_8422_2325);
    let (mut nets, mut tokens, mut texts, mut phys, mut digests) =
        (fnv(), fnv(), fnv(), fnv(), fnv());
    let mut seen: HashMap<u128, Input> = HashMap::new();
    let mut repeats = 0;
    for k in 0..48 {
        let family = ALL_FAMILIES[k % ALL_FAMILIES.len()];
        let design = generate_design(family, k / ALL_FAMILIES.len(), 0x5eed, &gen);
        for cone in chunk_into_cones(&design.netlist) {
            let sub = cone_to_netlist(&design.netlist, &cone);
            let twin = renamed(&sub);
            for (twin_pass, net) in [(false, &sub), (true, &twin)] {
                let props = synthesis_phys_estimates(net, &lib);
                let key = structural_hash_with_phys(net, &props);
                let tag = Tag::from_netlist_with_phys(net, &props, &opts);
                if !twin_pass {
                    digests.write(&key.to_le_bytes());
                    for (_, g) in net.iter() {
                        nets.word(g.name.len() as u64);
                        nets.write(g.name.as_bytes());
                        nets.word(g.kind.index() as u64);
                        nets.word(g.fanin.len() as u64);
                        for f in &g.fanin {
                            nets.word(u64::from(f.0));
                        }
                        nets.word(g.size.to_bits());
                    }
                    for i in 0..tag.len() {
                        let toks = tag.node_tokens(vocab, i, 1024, false);
                        tokens.word(toks.len() as u64);
                        for t in toks {
                            tokens.word(u64::from(t));
                        }
                        let text = tag.attribute_text(i);
                        texts.word(text.len() as u64);
                        texts.write(text.as_bytes());
                    }
                    for p in &props {
                        for v in [
                            p.power,
                            p.area,
                            p.delay,
                            p.toggle_rate,
                            p.probability,
                            p.load,
                            p.capacitance,
                            p.resistance,
                        ] {
                            phys.word(v.to_bits());
                        }
                    }
                }
                let input: Input = (
                    (0..tag.len())
                        .map(|i| tag.node_tokens(vocab, i, 1024, false))
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
    let got = [nets.0, tokens.0, texts.0, phys.0, digests.0];
    let want = [
        0x4b55_b432_2676_72b0,
        0x762f_3ed4_f3d6_70d8,
        0xa5a5_5f15_a8b4_0473,
        0x3087_e8f0_77a5_c25f,
        0x1e93_a6f0_3cdc_3356,
    ];
    assert_eq!(
        got, want,
        "the TAG front end changed its output (netlists, tokens, text, phys, digests)"
    );
}
