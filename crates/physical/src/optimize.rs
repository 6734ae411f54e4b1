//! Physical design optimization.
//!
//! The Innovus "optDesign" substitute: iterative gate upsizing on the
//! critical path, buffer insertion on high-fanout nets, and downsizing of
//! timing-slack-rich gates. Optimization *changes the netlist topology and
//! sizing after synthesis*, which is exactly why the paper calls Task 3
//! "highly challenging" (substantial graph topology changes during
//! physical design) and why Task 4 distinguishes the "w/ opt" scenario.

use crate::parasitics::extract;
use crate::placement::{place, PlaceConfig};
use crate::timing::{analyze_timing, critical_gates, TimingConfig, TimingReport};
use nettag_netlist::{CellKind, GateId, Library, Netlist};

/// Optimization options.
#[derive(Debug, Clone)]
pub struct OptimizeConfig {
    /// Timing constraints used while optimizing.
    pub timing: TimingConfig,
    /// Placement settings (re-used between iterations).
    pub placement: PlaceConfig,
    /// Maximum sizing iterations.
    pub iterations: usize,
    /// Fanout threshold above which a buffer is inserted.
    pub buffer_fanout: usize,
    /// Slack margin (ns) within which gates count as critical.
    pub critical_margin: f64,
}

impl Default for OptimizeConfig {
    fn default() -> Self {
        OptimizeConfig {
            timing: TimingConfig::default(),
            placement: PlaceConfig::default(),
            iterations: 3,
            buffer_fanout: 6,
            critical_margin: 0.05,
        }
    }
}

/// Result of physical optimization.
#[derive(Debug, Clone)]
pub struct OptimizeOutcome {
    /// The optimized netlist (topology and sizing may differ from input).
    pub netlist: Netlist,
    /// Gates upsized.
    pub upsized: usize,
    /// Gates downsized.
    pub downsized: usize,
    /// Buffers inserted.
    pub buffers: usize,
}

/// Runs sizing + buffering optimization, returning a modified netlist.
///
/// Gate *names* are preserved (new buffers get `pbuf` names), so labels
/// keyed by name survive; gate ids shift only for inserted buffers, which
/// are appended.
pub fn optimize_physical(
    netlist: &Netlist,
    lib: &Library,
    config: &OptimizeConfig,
) -> OptimizeOutcome {
    let mut n = netlist.clone();
    let mut upsized = 0;
    let mut downsized = 0;
    let mut buffers = 0;
    // 1. Buffer high-fanout nets (split sinks between original and buffer).
    let hot: Vec<GateId> = n
        .ids()
        .filter(|&id| n.fanout(id).len() >= config.buffer_fanout && !n.gate(id).kind.is_pseudo())
        .collect();
    for (k, id) in hot.into_iter().enumerate() {
        let sinks: Vec<GateId> = n.fanout(id).to_vec();
        let (_, moved) = sinks.split_at(sinks.len() / 2);
        let moved: Vec<GateId> = moved.to_vec();
        let buf = n.add_gate(format!("pbuf{k}"), CellKind::Buf, vec![id]);
        for s in moved {
            let g = n.gate_mut(s);
            for f in &mut g.fanin {
                if *f == id {
                    *f = buf;
                }
            }
        }
        buffers += 1;
    }
    let mut n = n.validate().expect("buffering preserves well-formedness");
    // 2. Iterative sizing.
    for _ in 0..config.iterations {
        let placement = place(&n, lib, &config.placement);
        let parasitics = extract(&n, lib, &placement);
        let report = analyze_timing(&n, lib, &parasitics, &config.timing);
        // Upsize critical gates.
        let crit = critical_gates(&n, &report, config.critical_margin);
        for id in crit {
            let g = n.gate_mut(id);
            if g.size < 4.0 {
                g.size *= 1.6;
                upsized += 1;
            }
        }
        // Downsize very slack-rich gates to recover power/area.
        let slack_rich = slack_rich_gates(&n, &report, config.timing.clock_period * 0.6);
        for id in slack_rich {
            let g = n.gate_mut(id);
            if g.size > 0.6 {
                g.size *= 0.8;
                downsized += 1;
            }
        }
    }
    OptimizeOutcome {
        netlist: n,
        upsized,
        downsized,
        buffers,
    }
}

/// Combinational gates whose arrival is far below the worst arrival.
fn slack_rich_gates(netlist: &Netlist, report: &TimingReport, margin: f64) -> Vec<GateId> {
    let worst = report.arrival.iter().copied().fold(0.0f64, f64::max);
    netlist
        .ids()
        .filter(|&id| {
            netlist.gate(id).kind.is_combinational() && report.arrival[id.index()] < worst - margin
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parasitics::extract;
    use crate::placement::place;
    use nettag_netlist::CellKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn wide_design() -> Netlist {
        let mut n = Netlist::new("wide");
        let a = n.add_gate("a", CellKind::Input, vec![]);
        let b = n.add_gate("b", CellKind::Input, vec![]);
        // High-fanout driver.
        let h = n.add_gate("H", CellKind::And2, vec![a, b]);
        let mut last = h;
        for i in 0..10 {
            let g = n.add_gate(format!("U{i}"), CellKind::Xor2, vec![h, last]);
            last = g;
        }
        let r = n.add_gate("R", CellKind::Dff, vec![last]);
        n.add_gate("y", CellKind::Output, vec![r]);
        n.validate().expect("valid")
    }

    #[test]
    fn optimization_inserts_buffers_and_resizes() {
        let n = wide_design();
        let lib = Library::default();
        let out = optimize_physical(&n, &lib, &OptimizeConfig::default());
        assert!(out.buffers >= 1, "H has fanout 11");
        assert!(out.upsized > 0);
        assert!(out.netlist.gate_count() > n.gate_count());
    }

    #[test]
    fn optimization_preserves_function() {
        let n = wide_design();
        let lib = Library::default();
        let out = optimize_physical(&n, &lib, &OptimizeConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        // Buffers only change structure: simulate both on random stimulus.
        use nettag_netlist::{next_register_values, simulate_comb};
        use rand::Rng;
        for _ in 0..16 {
            let mut src1 = std::collections::HashMap::new();
            let mut src2 = std::collections::HashMap::new();
            for i in n.inputs() {
                let v = rng.gen_bool(0.5);
                src1.insert(i, v);
                let name = &n.gate(i).name;
                src2.insert(out.netlist.find(name).expect("port kept"), v);
            }
            for r in n.registers() {
                let v = rng.gen_bool(0.5);
                src1.insert(r, v);
                src2.insert(out.netlist.find(&n.gate(r).name).expect("reg kept"), v);
            }
            let v1 = simulate_comb(&n, &src1);
            let v2 = simulate_comb(&out.netlist, &src2);
            let n1 = next_register_values(&n, &v1);
            for (r, v) in n1 {
                let r2 = out.netlist.find(&n.gate(r).name).expect("reg kept");
                let nr2 = next_register_values(&out.netlist, &v2);
                assert_eq!(nr2[&r2], v, "register {}", n.gate(r).name);
            }
        }
    }

    #[test]
    fn optimization_improves_worst_slack() {
        let n = wide_design();
        let lib = Library::default();
        let cfg = OptimizeConfig::default();
        let before = {
            let p = place(&n, &lib, &cfg.placement);
            let x = extract(&n, &lib, &p);
            analyze_timing(&n, &lib, &x, &cfg.timing).wns
        };
        let out = optimize_physical(&n, &lib, &cfg);
        let after = {
            let p = place(&out.netlist, &lib, &cfg.placement);
            let x = extract(&out.netlist, &lib, &p);
            analyze_timing(&out.netlist, &lib, &x, &cfg.timing).wns
        };
        assert!(
            after >= before - 1e-6,
            "optimization should not regress WNS: {before} -> {after}"
        );
    }
}
