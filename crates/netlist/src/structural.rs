//! Structural digests of netlists — cache keys for repeated logic.
//!
//! Register cones repeat heavily across (and within) designs: counters,
//! mux trees, and standard datapath slices show up thousands of times with
//! different instance names. A serving layer that caches cone embeddings
//! needs a key that identifies "the same model input" — and nothing more.
//!
//! [`structural_hash_with_phys`] digests exactly what an embedding of the
//! netlist reads, in the order it reads it: one pass over the gates in id
//! order, folding each gate's cell kind, drive size, pin-ordered fan-in
//! ids and physical properties. Gate *names* stay out — `Tag::node_tokens`
//! names variables canonically, so names never reach the model — and
//! everything else stays in, gate declaration order included. Equal
//! digests therefore mean equal model input, and equal model input means
//! bitwise-equal embeddings.
//!
//! The digest is 128 bits (two independently seeded 64-bit lanes), so for
//! cache-sized populations a collision between *different* netlists is
//! negligible; two digests that differ merely mean a missed cache hit,
//! never a wrong one.

use crate::cell::{CellKind, ALL_CELL_KINDS};
use crate::graph::Netlist;
use crate::tag::PhysProps;

/// Two independent lane seeds (splitmix64 increment and a second odd
/// constant) so the final digest is effectively a 128-bit hash.
const LANE_SEEDS: [u64; 2] = [0x9E37_79B9_7F4A_7C15, 0xC2B2_AE3D_27D4_EB4F];

/// splitmix64-style finalizer used as the stream combiner.
const fn mix(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_mul(0xFF51_AFD7_ED55_8CCD).rotate_left(31);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stable per-kind codes, indexed by [`CellKind::index`]: each mixes the
/// cell's name bytes, so the digest survives enum reordering across
/// versions. Computed at compile time.
const KIND_CODES: [u64; ALL_CELL_KINDS.len()] = {
    let mut codes = [0u64; ALL_CELL_KINDS.len()];
    let mut k = 0;
    while k < codes.len() {
        let name = ALL_CELL_KINDS[k].name().as_bytes();
        let mut h = 0x6b79_6e64u64; // "kynd"
        let mut i = 0;
        while i < name.len() {
            h = mix(h, name[i] as u64);
            i += 1;
        }
        codes[k] = h;
        k += 1;
    }
    codes
};

fn kind_code(kind: CellKind) -> u64 {
    KIND_CODES[kind.index()]
}

/// 128-bit digest of a netlist as the model reads it: the gate count,
/// then per gate in id order its cell kind, drive size, fan-in count,
/// each fan-in id in pin order and its eight physical properties (raw
/// f64 bits, indexed by gate id: stricter than the vocab's quantization,
/// so equal digests imply equal `[PHYS]` token frames). Gate names do
/// not affect the result; gate declaration order does. This is the
/// cone-embedding cache key.
///
/// ```
/// use nettag_netlist::{structural_hash_with_phys, CellKind, Netlist, PhysProps};
/// let build = |names: [&str; 4]| {
///     let mut n = Netlist::new("d");
///     let a = n.add_gate(names[0], CellKind::Input, vec![]);
///     let b = n.add_gate(names[1], CellKind::Input, vec![]);
///     let g = n.add_gate(names[2], CellKind::Nand2, vec![a, b]);
///     n.add_gate(names[3], CellKind::Output, vec![g]);
///     n.validate().expect("valid")
/// };
/// let phys = [PhysProps::default(); 4];
/// assert_eq!(
///     structural_hash_with_phys(&build(["a", "b", "U1", "y"]), &phys),
///     structural_hash_with_phys(&build(["x", "y", "G7", "out"]), &phys),
/// );
/// ```
///
/// # Panics
///
/// Panics if `phys.len() != netlist.gate_count()`.
pub fn structural_hash_with_phys(netlist: &Netlist, phys: &[PhysProps]) -> u128 {
    assert_eq!(phys.len(), netlist.gate_count(), "one PhysProps per gate");
    let mut lanes = LANE_SEEDS.map(|seed| mix(seed, netlist.gate_count() as u64));
    for ((_, gate), p) in netlist.iter().zip(phys) {
        for lane in &mut lanes {
            let mut h = mix(*lane, kind_code(gate.kind));
            h = mix(h, gate.size.to_bits());
            h = mix(h, gate.fanin.len() as u64);
            for f in &gate.fanin {
                h = mix(h, f.index() as u64);
            }
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
                h = mix(h, v.to_bits());
            }
            *lane = h;
        }
    }
    (lanes[0] as u128) << 64 | lanes[1] as u128
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cone::{chunk_into_cones, cone_to_netlist};
    use crate::graph::GateId;
    use crate::Library;

    /// The digest with every gate's phys properties at their default, so
    /// a test sees only the netlist's own structure.
    fn digest(n: &Netlist) -> u128 {
        structural_hash_with_phys(n, &vec![PhysProps::default(); n.gate_count()])
    }

    fn xor_cone(names: [&str; 5]) -> Netlist {
        let mut n = Netlist::new("c");
        let a = n.add_gate(names[0], CellKind::Input, vec![]);
        let b = n.add_gate(names[1], CellKind::Input, vec![]);
        let x = n.add_gate(names[2], CellKind::Xor2, vec![a, b]);
        let i = n.add_gate(names[3], CellKind::Inv, vec![x]);
        n.add_gate(names[4], CellKind::Output, vec![i]);
        n.validate().expect("valid")
    }

    #[test]
    fn names_do_not_affect_the_digest() {
        let h1 = digest(&xor_cone(["a", "b", "X", "N", "y"]));
        let h2 = digest(&xor_cone(["p", "q", "G1", "G2", "out"]));
        assert_eq!(h1, h2);
    }

    #[test]
    fn kind_changes_the_digest() {
        let mut n = Netlist::new("c");
        let a = n.add_gate("a", CellKind::Input, vec![]);
        let b = n.add_gate("b", CellKind::Input, vec![]);
        let x = n.add_gate("X", CellKind::Xnor2, vec![a, b]);
        let i = n.add_gate("N", CellKind::Inv, vec![x]);
        n.add_gate("y", CellKind::Output, vec![i]);
        let n = n.validate().expect("valid");
        assert_ne!(digest(&n), digest(&xor_cone(["a", "b", "X", "N", "y"])));
    }

    #[test]
    fn input_sharing_pattern_is_structure() {
        // NAND(a, a) vs NAND(a, b): same kinds, different fan-in ids.
        let nand = |shared: bool| {
            let mut n = Netlist::new("s");
            let a = n.add_gate("a", CellKind::Input, vec![]);
            let b = if shared {
                a
            } else {
                n.add_gate("b", CellKind::Input, vec![])
            };
            let g = n.add_gate("U", CellKind::Nand2, vec![a, b]);
            n.add_gate("y", CellKind::Output, vec![g]);
            n.validate().expect("valid")
        };
        assert_ne!(digest(&nand(true)), digest(&nand(false)));
    }

    #[test]
    fn drive_size_is_structure() {
        // Size reaches the phys estimates, so resizing must change the key.
        let mut n = nand_pair();
        let u = n.find("U").expect("exists");
        let base = digest(&n);
        n.gate_mut(u).size = 2.0;
        assert_ne!(base, digest(&n));
    }

    fn nand_pair() -> Netlist {
        let mut n = Netlist::new("s");
        let a = n.add_gate("a", CellKind::Input, vec![]);
        let b = n.add_gate("b", CellKind::Input, vec![]);
        let g = n.add_gate("U", CellKind::Nand2, vec![a, b]);
        n.add_gate("y", CellKind::Output, vec![g]);
        n.validate().expect("valid")
    }

    #[test]
    fn gate_order_is_part_of_the_digest() {
        // Same DAG, interior gates declared in a different order: the
        // model reads gates in id order, so the twins must not share a key.
        let mut n1 = Netlist::new("o");
        let a = n1.add_gate("a", CellKind::Input, vec![]);
        let b = n1.add_gate("b", CellKind::Input, vec![]);
        let g1 = n1.add_gate("g1", CellKind::And2, vec![a, b]);
        let g2 = n1.add_gate("g2", CellKind::Or2, vec![a, b]);
        let m = n1.add_gate("m", CellKind::Nand2, vec![g1, g2]);
        n1.add_gate("y", CellKind::Output, vec![m]);
        let n1 = n1.validate().expect("valid");

        let mut n2 = Netlist::new("o");
        let b = n2.add_gate("b", CellKind::Input, vec![]);
        let a = n2.add_gate("a", CellKind::Input, vec![]);
        let g2 = n2.add_gate("g2", CellKind::Or2, vec![a, b]);
        let g1 = n2.add_gate("g1", CellKind::And2, vec![a, b]);
        let m = n2.add_gate("m", CellKind::Nand2, vec![g1, g2]);
        n2.add_gate("y", CellKind::Output, vec![m]);
        let n2 = n2.validate().expect("valid");
        assert_ne!(digest(&n1), digest(&n2));
    }

    #[test]
    fn phys_variant_distinguishes_context() {
        let n = xor_cone(["a", "b", "X", "N", "y"]);
        let mut phys = vec![PhysProps::default(); n.gate_count()];
        let base = structural_hash_with_phys(&n, &phys);
        phys[2].load = 3.5;
        assert_ne!(base, structural_hash_with_phys(&n, &phys));
    }

    #[test]
    fn extracted_cones_digest_deterministically() {
        let mut n = Netlist::new("seq");
        let inp = n.add_gate("in", CellKind::Input, vec![]);
        let r1 = GateId(1);
        let r2 = GateId(2);
        let x = GateId(3);
        let a = GateId(4);
        n.add_gate("R1", CellKind::Dff, vec![x]);
        n.add_gate("R2", CellKind::Dff, vec![a]);
        n.add_gate("X", CellKind::Xor2, vec![r1, inp]);
        n.add_gate("A", CellKind::And2, vec![r1, r2]);
        let n = n.validate().expect("valid");
        let cones = chunk_into_cones(&n);
        for c in &cones {
            let sub1 = cone_to_netlist(&n, c);
            let sub2 = cone_to_netlist(&n, c);
            assert_eq!(digest(&sub1), digest(&sub2));
        }
        // The two register cones are structurally different.
        let subs: Vec<u128> = cones
            .iter()
            .map(|c| digest(&cone_to_netlist(&n, c)))
            .collect();
        assert_ne!(subs[0], subs[1]);
    }

    #[test]
    fn digest_covers_whole_sequential_netlist() {
        // Logic only visible through a register's D pin still changes the
        // hash, also when an output reads the register.
        let build = |kind: CellKind| {
            let mut n = Netlist::new("seq");
            let i = n.add_gate("in", CellKind::Input, vec![]);
            let g = n.add_gate("G", kind, vec![i, i]);
            let r = n.add_gate("R", CellKind::Dff, vec![g]);
            n.add_gate("y", CellKind::Output, vec![r]);
            n.validate().expect("valid")
        };
        assert_ne!(
            digest(&build(CellKind::And2)),
            digest(&build(CellKind::Or2))
        );
    }

    #[test]
    fn enable_logic_outside_the_d_cone_is_structure() {
        // R = DFFE(d: a & b, en: b op c). The extracted cone's output sees
        // only the D logic, but the enable gate stays in the cone netlist
        // (and its TAG), so it must reach the digest too.
        let cone_of = |en_kind: CellKind| {
            let mut n = Netlist::new("en");
            let a = n.add_gate("a", CellKind::Input, vec![]);
            let b = n.add_gate("b", CellKind::Input, vec![]);
            let c = n.add_gate("c", CellKind::Input, vec![]);
            let d = n.add_gate("D", CellKind::And2, vec![a, b]);
            let en = n.add_gate("EN", en_kind, vec![b, c]);
            let r = n.add_gate("R", CellKind::DffE, vec![d, en]);
            n.add_gate("q", CellKind::Output, vec![r]);
            let n = n.validate().expect("valid");
            let cones = crate::cone::chunk_into_cones(&n);
            let cone = cones.iter().find(|c| c.root == r).expect("R roots a cone");
            cone_to_netlist(&n, cone)
        };
        let (or, xor) = (cone_of(CellKind::Or2), cone_of(CellKind::Xor2));
        assert!(or.find("EN").is_some(), "enable logic stays in the cone");
        assert_ne!(digest(&or), digest(&xor));
        let lib = Library::default();
        let with_phys = |n: &Netlist| {
            structural_hash_with_phys(n, &crate::tag::synthesis_phys_estimates(n, &lib))
        };
        assert_ne!(with_phys(&or), with_phys(&xor));
    }

    #[test]
    fn self_feedback_register_digests() {
        // Toggle flop: R' = !R, a cycle through the register, told apart
        // from a buffer loop.
        let build = |kind: CellKind| {
            let mut n = Netlist::new("t");
            let r = GateId(0);
            let inv = GateId(1);
            n.add_gate("R", CellKind::Dff, vec![inv]);
            n.add_gate("N", kind, vec![r]);
            n.validate().expect("valid")
        };
        assert_ne!(digest(&build(CellKind::Inv)), digest(&build(CellKind::Buf)));
    }
}
