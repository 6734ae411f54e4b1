//! Cross-crate checks of the TAG formulation: attribute text format,
//! tokenization, physical annotation paths (synthesis estimates vs
//! sign-off values), and Verilog round-trips of generated designs.

use nettag::core::NetTag;
use nettag::netlist::{parse_verilog, write_verilog, Library, NetlistStats, Tag, TagOptions};
use nettag::physical::{run_flow, FlowConfig};
use nettag::synth::{generate_design, Family, GenerateConfig};

#[test]
fn tag_attributes_follow_fig3b_for_generated_designs() {
    let lib = Library::default();
    let d = generate_design(Family::OpenCores, 0, 31, &GenerateConfig::default());
    let tag = Tag::from_netlist(&d.netlist, &lib, &TagOptions::default());
    assert_eq!(tag.len(), d.netlist.gate_count());
    let mut saw_expr = false;
    for i in 0..tag.len() {
        let text = tag.attribute_text(i);
        assert!(text.contains("[Name]"));
        assert!(text.contains("[Type]"));
        assert!(text.contains("[Physical property]"));
        if text.contains('^') || text.contains('&') || text.contains('|') {
            saw_expr = true;
        }
    }
    assert!(saw_expr, "some gates must carry non-trivial expressions");
}

#[test]
fn tag_tokens_are_in_vocab_range() {
    let lib = Library::default();
    let vocab = NetTag::vocab();
    let d = generate_design(Family::VexRiscv, 0, 31, &GenerateConfig::default());
    let tag = Tag::from_netlist(&d.netlist, &lib, &TagOptions::default());
    for i in 0..tag.len().min(40) {
        let toks = tag.node_tokens(vocab, i, 96, false);
        assert!(toks.len() >= 3);
        assert!(toks.iter().all(|&t| (t as usize) < vocab.len()));
    }
}

#[test]
fn signoff_phys_props_differ_from_synthesis_estimates() {
    let lib = Library::default();
    let d = generate_design(Family::Itc99, 0, 31, &GenerateConfig::default());
    let synth_est = nettag::netlist::synthesis_phys_estimates(&d.netlist, &lib);
    let flow = run_flow(&d.netlist, &lib, &FlowConfig::default());
    let signoff = flow.phys_props(&lib);
    // Sign-off knows wire parasitics; synthesis estimates set them to 0.
    assert!(synth_est.iter().all(|p| p.capacitance == 0.0));
    assert!(signoff.iter().any(|p| p.capacitance > 0.0));
    // Both are valid TAG annotations.
    let t1 = Tag::from_netlist_with_phys(&d.netlist, &synth_est, &TagOptions::default());
    let t2 = Tag::from_netlist_with_phys(&flow.netlist, &signoff, &TagOptions::default());
    assert_eq!(t1.len(), d.netlist.gate_count());
    assert_eq!(t2.len(), flow.netlist.gate_count());
}

#[test]
fn generated_designs_roundtrip_through_verilog() {
    for (family, idx) in [(Family::OpenCores, 0usize), (Family::VexRiscv, 1)] {
        let d = generate_design(
            family,
            idx,
            31,
            &GenerateConfig {
                scale: 0.4,
                ..GenerateConfig::default()
            },
        );
        let text = write_verilog(&d.netlist);
        let parsed = parse_verilog(&text).expect("generated netlists parse back");
        let s1 = NetlistStats::of(&d.netlist);
        let s2 = NetlistStats::of(&parsed);
        assert_eq!(s1.nodes, s2.nodes, "{family:?}");
        assert_eq!(s1.edges, s2.edges);
        assert_eq!(s1.kind_counts, s2.kind_counts);
    }
}

#[test]
fn cone_chunking_covers_every_register_exactly_once() {
    let d = generate_design(Family::Chipyard, 0, 31, &GenerateConfig::default());
    let cones = nettag::netlist::chunk_into_cones(&d.netlist);
    let regs = d.netlist.registers();
    assert_eq!(cones.len(), regs.len());
    let roots: std::collections::HashSet<_> = cones.iter().map(|c| c.root).collect();
    assert_eq!(roots.len(), regs.len());
    for r in regs {
        assert!(roots.contains(&r));
    }
}
