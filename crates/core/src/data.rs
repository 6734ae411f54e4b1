//! Pre-training dataset assembly (the Table II pipeline).
//!
//! From a set of synthesized [`Design`]s this module produces:
//!
//! * the **expression dataset** for objective #1 (2-hop symbolic
//!   expressions of every combinational gate, paper: 313k → augmented
//!   626k);
//! * **register-cone samples** for step 2: cone TAG, a functionally
//!   equivalent augmented variant, per-gate kind labels, gate-count
//!   targets, plus the cross-stage pair — RTL cone text and a
//!   SPEF-annotated layout cone graph.

use nettag_expr::Expr;
use nettag_netlist::{
    all_gate_exprs, chunk_into_cones, cone_to_netlist, CellKind, Library, Netlist, NetlistStats,
    PhysProps, Tag, TagOptions,
};
use nettag_physical::{run_flow, FlowConfig, LayoutGraph};
use nettag_synth::{restructure_equivalent, Design, RtlModule, SignalId, WordExpr};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// One register cone with everything pre-training needs.
#[derive(Debug, Clone)]
pub struct ConeSample {
    /// Cone TAG (text-attributed graph).
    pub tag: Tag,
    /// Functionally-equivalent restructured variant (objective #2.2
    /// positive).
    pub aug_tag: Tag,
    /// Per-node cell kinds (objective #2.1 labels).
    pub kinds: Vec<CellKind>,
    /// Gate-count targets, log1p-compressed (objective #2.3).
    pub size_targets: Vec<f32>,
    /// Cross-stage RTL cone text (functionally equivalent to the cone).
    pub rtl_text: String,
    /// Cross-stage layout cone graph.
    pub layout: LayoutGraph,
    /// Die size for layout feature normalization.
    pub die: f64,
    /// Source design and register names (provenance).
    pub design: String,
    /// Root register (or output) name.
    pub root: String,
}

/// The assembled pre-training corpus.
#[derive(Debug, Clone)]
pub struct PretrainData {
    /// Symbolic expressions (objective #1 anchors; positives are generated
    /// on the fly by Boolean-equivalence augmentation).
    pub exprs: Vec<Expr>,
    /// Register-cone samples.
    pub cones: Vec<ConeSample>,
}

/// Dataset assembly options.
#[derive(Debug, Clone)]
pub struct DataConfig {
    /// Expression extraction hops (paper: 2).
    pub hops: usize,
    /// Maximum cones kept per design.
    pub max_cones_per_design: usize,
    /// Maximum cone size in gates (larger cones are skipped, like the
    /// paper's chunking keeps units model-sized).
    pub max_cone_gates: usize,
    /// Restructuring steps for the augmented variant.
    pub aug_steps: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for DataConfig {
    fn default() -> Self {
        DataConfig {
            hops: 2,
            max_cones_per_design: 12,
            max_cone_gates: 220,
            aug_steps: 6,
            seed: 0xDA7A,
        }
    }
}

/// Builds the pre-training corpus from synthesized designs.
pub fn build_pretrain_data(designs: &[Design], lib: &Library, config: &DataConfig) -> PretrainData {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut exprs = Vec::new();
    let mut cones = Vec::new();
    let tag_opts = TagOptions {
        hops: config.hops,
        ..TagOptions::default()
    };
    for design in designs {
        // Expression dataset from the full netlist.
        for (_, e) in all_gate_exprs(&design.netlist, config.hops) {
            if e.size() > 2 {
                exprs.push(e);
            }
        }
        // Sign-off flow once per design for accurate physical attributes.
        let flow = run_flow(&design.netlist, lib, &FlowConfig::default());
        let phys_by_name: HashMap<&str, PhysProps> = {
            let props = flow.phys_props(lib);
            flow.netlist
                .iter()
                .map(|(id, g)| (g.name.as_str(), props[id.index()]))
                .collect()
        };
        for cone in chunk_into_cones(&design.netlist)
            .into_iter()
            .take(config.max_cones_per_design)
        {
            let sub = cone_to_netlist(&design.netlist, &cone);
            if sub.gate_count() > config.max_cone_gates || sub.gate_count() < 4 {
                continue;
            }
            let root_name = design.netlist.gate(cone.root).name.clone();
            cones.push(build_cone_sample(
                design,
                &sub,
                &root_name,
                lib,
                &tag_opts,
                &phys_by_name,
                config,
                &mut rng,
            ));
        }
    }
    PretrainData { exprs, cones }
}

#[allow(clippy::too_many_arguments)]
fn build_cone_sample(
    design: &Design,
    sub: &Netlist,
    root_name: &str,
    lib: &Library,
    tag_opts: &TagOptions,
    phys_by_name: &HashMap<&str, PhysProps>,
    config: &DataConfig,
    rng: &mut StdRng,
) -> ConeSample {
    // Sign-off physical attributes where known (cone gates share names
    // with the parent design), synthesis estimates otherwise.
    let fallback = nettag_netlist::synthesis_phys_estimates(sub, lib);
    let phys: Vec<PhysProps> = sub
        .iter()
        .map(|(id, g)| {
            phys_by_name
                .get(g.name.as_str())
                .copied()
                .unwrap_or(fallback[id.index()])
        })
        .collect();
    let tag = Tag::from_netlist_with_phys(sub, &phys, tag_opts);
    // Functionally equivalent variant.
    let cone_design = Design {
        netlist: sub.clone(),
        labels: vec![nettag_synth::GateLabel::default(); sub.gate_count()],
        rtl: RtlModule::new(sub.name().to_string()),
    };
    let aug = restructure_equivalent(&cone_design, config.aug_steps, rng);
    let aug_tag = Tag::from_netlist(&aug.netlist, lib, tag_opts);
    let kinds: Vec<CellKind> = sub.iter().map(|(_, g)| g.kind).collect();
    let stats = NetlistStats::of(sub);
    let size_targets: Vec<f32> = stats.size_targets().iter().map(|c| c.ln_1p()).collect();
    // Cross-stage layout: run the physical flow on the cone itself.
    let cone_flow = run_flow(sub, lib, &FlowConfig::default());
    ConeSample {
        tag,
        aug_tag,
        kinds,
        size_targets,
        rtl_text: rtl_cone_text(&design.rtl, root_name),
        layout: cone_flow.layout,
        die: cone_flow.placement.die,
        design: design.netlist.name().to_string(),
        root: root_name.to_string(),
    }
}

/// Renders the RTL slice that drives one register (or output): the
/// register's update statement plus every assignment it transitively
/// reads — a functionally-equivalent RTL view of the netlist cone
/// (paper: "cross-stage cones remain functionally equivalent").
pub fn rtl_cone_text(rtl: &RtlModule, root_gate_name: &str) -> String {
    // Gate names are `<signal>_<bit>`; recover the signal name.
    let sig_name = root_gate_name
        .rsplit_once('_')
        .map(|(s, _)| s)
        .unwrap_or(root_gate_name);
    let mut text = format!("// cone {root_gate_name} of {}\n", rtl.name);
    let target: Option<SignalId> = rtl
        .signals
        .iter()
        .position(|s| s.name == sig_name)
        .map(|i| SignalId(i as u32));
    let Some(target) = target else {
        // Fall back to whole-module text (combinational pseudo-cones).
        text.push_str(&rtl.render());
        return text;
    };
    // Collect needed signals transitively through assigns.
    let mut needed: Vec<SignalId> = Vec::new();
    let mut stack = vec![target];
    let mut seen = std::collections::HashSet::new();
    seen.insert(target.0);
    while let Some(s) = stack.pop() {
        needed.push(s);
        let exprs: Vec<&WordExpr> = rtl
            .regs
            .iter()
            .filter(|r| r.target == s)
            .flat_map(|r| {
                let mut v = vec![&r.next];
                if let Some(en) = &r.enable {
                    v.push(en);
                }
                v
            })
            .chain(
                rtl.assigns
                    .iter()
                    .filter(|a| a.target == s)
                    .map(|a| &a.expr),
            )
            .collect();
        for e in exprs {
            collect_sigs(e, &mut |id| {
                if seen.insert(id.0) {
                    stack.push(id);
                }
            });
        }
    }
    for a in &rtl.assigns {
        if needed.contains(&a.target) {
            text.push_str(&format!(
                "assign {} = {};\n",
                rtl.sig(a.target).name,
                render_expr(rtl, &a.expr)
            ));
        }
    }
    for r in &rtl.regs {
        if needed.contains(&r.target) {
            text.push_str(&format!(
                "always @(posedge clk) {} <= {};\n",
                rtl.sig(r.target).name,
                render_expr(rtl, &r.next)
            ));
        }
    }
    text
}

fn collect_sigs(e: &WordExpr, f: &mut impl FnMut(SignalId)) {
    match e {
        WordExpr::Sig(id) => f(*id),
        WordExpr::Const { .. } => {}
        WordExpr::Add(a, b)
        | WordExpr::Sub(a, b)
        | WordExpr::Mul(a, b)
        | WordExpr::Lt(a, b)
        | WordExpr::Eq(a, b)
        | WordExpr::And(a, b)
        | WordExpr::Or(a, b)
        | WordExpr::Xor(a, b) => {
            collect_sigs(a, f);
            collect_sigs(b, f);
        }
        WordExpr::Not(a) | WordExpr::Shl(a, _) | WordExpr::Shr(a, _) => collect_sigs(a, f),
        WordExpr::Mux(s, a, b) => {
            collect_sigs(s, f);
            collect_sigs(a, f);
            collect_sigs(b, f);
        }
    }
}

fn render_expr(rtl: &RtlModule, e: &WordExpr) -> String {
    // Reuse the module renderer by going through a throwaway module view.
    // (RtlModule::render_expr is private; reconstruct the tiny subset.)
    match e {
        WordExpr::Sig(id) => rtl.sig(*id).name.clone(),
        WordExpr::Const { value, width } => format!("{width}'d{value}"),
        WordExpr::Add(a, b) => format!("({} + {})", render_expr(rtl, a), render_expr(rtl, b)),
        WordExpr::Sub(a, b) => format!("({} - {})", render_expr(rtl, a), render_expr(rtl, b)),
        WordExpr::Mul(a, b) => format!("({} * {})", render_expr(rtl, a), render_expr(rtl, b)),
        WordExpr::Lt(a, b) => format!("({} < {})", render_expr(rtl, a), render_expr(rtl, b)),
        WordExpr::Eq(a, b) => format!("({} == {})", render_expr(rtl, a), render_expr(rtl, b)),
        WordExpr::And(a, b) => format!("({} & {})", render_expr(rtl, a), render_expr(rtl, b)),
        WordExpr::Or(a, b) => format!("({} | {})", render_expr(rtl, a), render_expr(rtl, b)),
        WordExpr::Xor(a, b) => format!("({} ^ {})", render_expr(rtl, a), render_expr(rtl, b)),
        WordExpr::Not(a) => format!("(~{})", render_expr(rtl, a)),
        WordExpr::Mux(s, a, b) => format!(
            "({} ? {} : {})",
            render_expr(rtl, s),
            render_expr(rtl, a),
            render_expr(rtl, b)
        ),
        WordExpr::Shl(a, k) => format!("({} << {k})", render_expr(rtl, a)),
        WordExpr::Shr(a, k) => format!("({} >> {k})", render_expr(rtl, a)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettag_synth::{generate_design, Family, GenerateConfig};

    fn small_corpus() -> PretrainData {
        let lib = Library::default();
        let designs: Vec<Design> = (0..2)
            .map(|i| generate_design(Family::OpenCores, i, 5, &GenerateConfig::default()))
            .collect();
        build_pretrain_data(&designs, &lib, &DataConfig::default())
    }

    #[test]
    fn corpus_has_expressions_and_cones() {
        let data = small_corpus();
        assert!(data.exprs.len() > 10, "got {} exprs", data.exprs.len());
        assert!(!data.cones.is_empty());
        for c in &data.cones {
            assert_eq!(c.kinds.len(), c.tag.len());
            assert!(!c.rtl_text.is_empty());
            assert_eq!(c.layout.len(), c.tag.len());
        }
    }

    #[test]
    fn augmented_cone_differs_structurally() {
        let data = small_corpus();
        let changed = data
            .cones
            .iter()
            .filter(|c| c.aug_tag.len() != c.tag.len())
            .count();
        assert!(changed > 0, "restructuring should usually add gates");
    }

    #[test]
    fn rtl_cone_text_is_specific_to_register() {
        let d = generate_design(Family::VexRiscv, 0, 5, &GenerateConfig::default());
        let regs = d.netlist.registers();
        if regs.len() >= 2 {
            let t1 = rtl_cone_text(&d.rtl, &d.netlist.gate(regs[0]).name);
            let t2 = rtl_cone_text(&d.rtl, &d.netlist.gate(regs[regs.len() - 1]).name);
            assert_ne!(t1, t2, "different cones get different RTL text");
        }
    }

    #[test]
    fn size_targets_are_log_compressed() {
        let data = small_corpus();
        for c in &data.cones {
            for &t in &c.size_targets {
                assert!((0.0..10.0).contains(&t));
            }
        }
    }
}
