//! Property-based tests of netlist invariants: random DAG construction,
//! fan-out that follows the fan-ins, the structural digest, cone chunking
//! coverage, AIG lowering equivalence, and Verilog round-trips.

use nettag_netlist::{
    aig_to_netlist, chunk_into_cones, gate_expr, netlist_to_aig, parse_verilog, simulate_comb,
    structural_hash_with_phys, write_verilog, Aig, CellKind, GateId, Netlist, NetlistStats,
    PhysProps, ALL_CELL_KINDS,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// Strategy: a random well-formed netlist built layer by layer.
fn arb_netlist() -> impl Strategy<Value = Netlist> {
    (2usize..5, 3usize..18, any::<u64>()).prop_map(|(n_inputs, n_gates, seed)| {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut n = Netlist::new("prop");
        let mut pool: Vec<GateId> = (0..n_inputs)
            .map(|i| n.add_gate(format!("i{i}"), CellKind::Input, vec![]))
            .collect();
        let kinds = [
            CellKind::Inv,
            CellKind::Buf,
            CellKind::And2,
            CellKind::Or2,
            CellKind::Nand2,
            CellKind::Nor2,
            CellKind::Xor2,
            CellKind::Xnor2,
            CellKind::Mux2,
            CellKind::Aoi21,
            CellKind::FaSum,
            CellKind::FaCarry,
            CellKind::Dff,
        ];
        for g in 0..n_gates {
            let kind = kinds[rng.gen_range(0..kinds.len())];
            // Registers need placeholder D pins resolved later; keep it
            // simple: registers read an existing pool gate (acyclic).
            let fanin: Vec<GateId> = (0..kind.arity())
                .map(|_| pool[rng.gen_range(0..pool.len())])
                .collect();
            let id = n.add_gate(format!("g{g}"), kind, fanin);
            pool.push(id);
        }
        let last = *pool.last().expect("non-empty");
        n.add_gate("y", CellKind::Output, vec![last]);
        n.validate().expect("layered construction is acyclic")
    })
}

/// Each gate's sinks derived from the fan-ins alone: ascending, once per
/// pin, out-of-range fan-ins ignored.
fn fanout_of_fanins(n: &Netlist) -> Vec<Vec<GateId>> {
    let mut sinks = vec![Vec::new(); n.gate_count()];
    for (id, g) in n.iter() {
        for f in g.fanin.iter().filter(|f| f.index() < n.gate_count()) {
            sinks[f.index()].push(id);
        }
    }
    sinks
}

fn check_fanout(n: &Netlist) -> Result<(), TestCaseError> {
    for (id, want) in n.ids().zip(fanout_of_fanins(n)) {
        prop_assert_eq!(n.fanout(id), want.as_slice(), "gate {}", id);
    }
    Ok(())
}

/// One random value per gate and phys field.
fn random_phys(n: &Netlist, rng: &mut impl rand::Rng) -> Vec<PhysProps> {
    (0..n.gate_count())
        .map(|_| PhysProps {
            power: rng.gen(),
            area: rng.gen(),
            delay: rng.gen(),
            toggle_rate: rng.gen(),
            probability: rng.gen(),
            load: rng.gen(),
            capacitance: rng.gen(),
            resistance: rng.gen(),
        })
        .collect()
}

/// `n` with gates `i` and `j` trading places in declaration order, every
/// fan-in (and `phys`) remapped to follow them: the same circuit, declared
/// in another order.
fn swapped(n: &Netlist, phys: &[PhysProps], i: usize, j: usize) -> (Netlist, Vec<PhysProps>) {
    let at = |k: usize| match k {
        k if k == i => j,
        k if k == j => i,
        k => k,
    };
    let mut out = Netlist::new(n.name());
    for k in 0..n.gate_count() {
        let g = n.gate(GateId(at(k) as u32));
        let fanin: Vec<GateId> = g
            .fanin
            .iter()
            .map(|f| GateId(at(f.index()) as u32))
            .collect();
        let id = out.add_gate(g.name.clone(), g.kind, fanin);
        out.gate_mut(id).size = g.size;
    }
    let phys = (0..n.gate_count()).map(|k| phys[at(k)]).collect();
    (out.validate().expect("a permutation keeps the graph"), phys)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `fanout` is a function of the current fan-ins: on the validated
    /// netlist, on a replay that never ran `validate`, and after a pin
    /// edit made once the table was built.
    #[test]
    fn fanout_follows_the_fanins(n in arb_netlist(), seed in any::<u64>()) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        check_fanout(&n)?;
        let mut replay = Netlist::new("replay");
        for (_, g) in n.iter() {
            replay.add_gate(g.name.clone(), g.kind, g.fanin.clone());
        }
        check_fanout(&replay)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let pinned: Vec<GateId> = replay
            .iter()
            .filter(|(_, g)| !g.fanin.is_empty())
            .map(|(id, _)| id)
            .collect();
        let id = pinned[rng.gen_range(0..pinned.len())];
        let pin = rng.gen_range(0..replay.gate(id).fanin.len());
        let to = GateId(rng.gen_range(0..replay.gate_count() as u32));
        replay.gate_mut(id).fanin[pin] = to;
        check_fanout(&replay)?;
    }

    /// The digest keys on exactly what the model reads: renaming every
    /// gate keeps it; swapping one kind for another of the same arity,
    /// retargeting one fan-in, flipping one bit of one phys field, or
    /// declaring two independent gates in the other order each change it.
    #[test]
    fn digest_reads_the_model_input_and_nothing_else(n in arb_netlist(), seed in any::<u64>()) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let phys = random_phys(&n, &mut rng);
        let base = structural_hash_with_phys(&n, &phys);
        let count = n.gate_count();

        let mut renamed = n.clone();
        for k in 0..count {
            renamed.gate_mut(GateId(k as u32)).name = format!("r{}", count - k).into();
        }
        prop_assert_eq!(structural_hash_with_phys(&renamed, &phys), base);

        let others = |kind: CellKind| -> Vec<CellKind> {
            ALL_CELL_KINDS
                .into_iter()
                .filter(|k| *k != kind && k.arity() == kind.arity())
                .collect()
        };
        let swappable: Vec<GateId> = n
            .iter()
            .filter(|(_, g)| !others(g.kind).is_empty())
            .map(|(id, _)| id)
            .collect();
        let id = swappable[rng.gen_range(0..swappable.len())];
        let mut kinds = n.clone();
        let others = others(n.gate(id).kind);
        kinds.gate_mut(id).kind = others[rng.gen_range(0..others.len())];
        prop_assert!(structural_hash_with_phys(&kinds, &phys) != base, "kind of {}", id);

        let pinned: Vec<GateId> = n
            .iter()
            .filter(|(_, g)| !g.fanin.is_empty())
            .map(|(id, _)| id)
            .collect();
        let id = pinned[rng.gen_range(0..pinned.len())];
        let pin = rng.gen_range(0..n.gate(id).fanin.len());
        let mut retargeted = n.clone();
        let old = retargeted.gate(id).fanin[pin].index();
        let to = (old + rng.gen_range(1..count)) % count;
        retargeted.gate_mut(id).fanin[pin] = GateId(to as u32);
        prop_assert!(structural_hash_with_phys(&retargeted, &phys) != base, "pin {} of {}", pin, id);

        let mut flipped = phys.clone();
        let p = &mut flipped[rng.gen_range(0..count)];
        let field = [
            &mut p.power,
            &mut p.area,
            &mut p.delay,
            &mut p.toggle_rate,
            &mut p.probability,
            &mut p.load,
            &mut p.capacitance,
            &mut p.resistance,
        ]
        .into_iter()
        .nth(rng.gen_range(0..8))
        .expect("eight fields");
        *field = f64::from_bits(field.to_bits() ^ 1 << rng.gen_range(0..64u32));
        prop_assert!(structural_hash_with_phys(&n, &flipped) != base, "phys bit");

        let reads = |a: usize, b: usize| n.gate(GateId(a as u32)).fanin.iter().any(|f| f.index() == b);
        let independent: Vec<(usize, usize)> = (0..count)
            .flat_map(|i| (i + 1..count).map(move |j| (i, j)))
            .filter(|&(i, j)| !reads(i, j) && !reads(j, i))
            .collect();
        let (i, j) = independent[rng.gen_range(0..independent.len())];
        let (twin, twin_phys) = swapped(&n, &phys, i, j);
        prop_assert!(structural_hash_with_phys(&twin, &twin_phys) != base, "swap {} and {}", i, j);
    }

    /// Cone chunking covers every register exactly once and cone netlists
    /// are combinational and well-formed.
    #[test]
    fn chunking_covers_registers(n in arb_netlist()) {
        let cones = chunk_into_cones(&n);
        let regs = n.registers();
        if !regs.is_empty() {
            prop_assert_eq!(cones.len(), regs.len());
        }
        for c in &cones {
            let sub = nettag_netlist::cone_to_netlist(&n, c);
            prop_assert!(sub.registers().is_empty());
        }
    }

    /// AIG lowering agrees with direct gate-level simulation on random
    /// stimulus: outputs and register next-state functions match.
    #[test]
    fn aig_lowering_matches_simulation(n in arb_netlist(), seed in 0u64..500) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let aig = netlist_to_aig(&n);
        let mut rng = StdRng::seed_from_u64(seed);
        // One random assignment for all AIG inputs (netlist PIs + regs).
        let mut values: HashMap<&str, bool> = HashMap::new();
        let mut patterns = Vec::new();
        for name in &aig.inputs {
            let v = rng.gen_bool(0.5);
            values.insert(name.as_str(), v);
            patterns.push(if v { !0u64 } else { 0 });
        }
        let sim = aig.simulate(&patterns);
        // Netlist-side simulation with matching sources.
        let mut sources = HashMap::new();
        for (id, g) in n.iter() {
            if g.kind == CellKind::Input || g.kind.is_sequential() {
                if let Some(&v) = values.get(g.name.as_str()) {
                    sources.insert(id, v);
                }
            }
        }
        let net_values = simulate_comb(&n, &sources);
        for (name, lit) in &aig.outputs {
            let aig_bit = Aig::lit_value(&sim, *lit) & 1 == 1;
            let expected = if let Some(reg_name) = name.strip_suffix("_next") {
                let reg = n.find(reg_name).expect("register exists");
                net_values[n.gate(reg).fanin[0].index()]
            } else {
                let out = n.find(name).expect("output exists");
                net_values[out.index()]
            };
            prop_assert_eq!(aig_bit, expected, "output {}", name);
        }
    }

    /// AIG → netlist re-expression preserves node counts sensibly and
    /// validates.
    #[test]
    fn aig_netlist_is_wellformed(n in arb_netlist()) {
        let aig = netlist_to_aig(&n);
        let (an, vars) = aig_to_netlist(&aig, "aign");
        prop_assert_eq!(vars.len(), an.gate_count());
        for (_, g) in an.iter() {
            prop_assert!(matches!(
                g.kind,
                CellKind::And2 | CellKind::Inv | CellKind::Input | CellKind::Output | CellKind::Const0
            ));
        }
    }

    /// Verilog round-trip preserves structure for random netlists.
    #[test]
    fn verilog_roundtrip(n in arb_netlist()) {
        let text = write_verilog(&n);
        let parsed = parse_verilog(&text).expect("round-trip parses");
        let s1 = NetlistStats::of(&n);
        let s2 = NetlistStats::of(&parsed);
        prop_assert_eq!(s1.nodes, s2.nodes);
        prop_assert_eq!(s1.edges, s2.edges);
        prop_assert_eq!(s1.kind_counts, s2.kind_counts);
    }

    /// Symbolic gate expressions agree with gate-level simulation: for a
    /// random gate, evaluating its k-hop expression under the simulated
    /// frontier values reproduces the simulated gate output.
    #[test]
    fn gate_expressions_match_simulation(n in arb_netlist(), seed in 0u64..500) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sources = HashMap::new();
        for (id, g) in n.iter() {
            if g.kind == CellKind::Input || g.kind.is_sequential() {
                sources.insert(id, rng.gen_bool(0.5));
            }
        }
        let values = simulate_comb(&n, &sources);
        for (id, g) in n.iter() {
            if !g.kind.is_combinational() {
                continue;
            }
            let e = gate_expr(&n, id, 2);
            // Bind every variable in the expression to its simulated value.
            let mut env = HashMap::new();
            for v in e.support() {
                let src = n.find(&v).expect("expression vars are gate names");
                env.insert(v.clone(), values[src.index()]);
            }
            prop_assert_eq!(
                nettag_expr::eval(&e, &env),
                values[id.index()],
                "gate {} expr {}",
                g.name,
                e
            );
        }
    }
}
