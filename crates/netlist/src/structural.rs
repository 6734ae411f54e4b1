//! Structural digests of netlists — cache keys for repeated logic.
//!
//! Register cones repeat heavily across (and within) designs: counters,
//! mux trees, and standard datapath slices show up thousands of times with
//! different instance names. A serving layer that caches cone embeddings
//! needs a key that identifies "the same logic" while ignoring everything
//! the embedding itself ignores — and nothing more.
//!
//! [`structural_hash`] digests exactly the structure the canonical token
//! frames see: cell kinds, drive sizes, pin-ordered connectivity, and the
//! identity pattern of cut points (primary inputs and sequential
//! elements), with gate *names* excluded — `Tag::node_tokens` canonicalizes
//! identifiers away, so names never reach the model.
//! [`structural_hash_with_phys`] additionally folds in the per-gate
//! physical properties, which *do* reach the model through the `[PHYS]`
//! frame and (via [`crate::Tag`] construction on a parent design) carry
//! context from outside the cone.
//!
//! The digest is 128 bits (two independently seeded 64-bit lanes), so for
//! cache-sized populations a collision between *different* structures is
//! negligible; two digests that differ merely mean a missed cache hit,
//! never a wrong one.

use crate::cell::{CellKind, ALL_CELL_KINDS};
use crate::graph::{GateId, Netlist};
use crate::tag::PhysProps;

/// Two independent lane seeds (splitmix64 increment and a second odd
/// constant) so the final digest is effectively a 128-bit hash.
const LANE_SEEDS: [u64; 2] = [0x9E37_79B9_7F4A_7C15, 0xC2B2_AE3D_27D4_EB4F];

/// Domain-separation tags folded into the stream so cut points, back
/// edges, and roots can never alias an ordinary gate encoding.
const TAG_GATE: u64 = 0x47;
const TAG_CUT: u64 = 0x43;
const TAG_ROOT: u64 = 0x52;
const TAG_BACKEDGE: u64 = 0x42;

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

/// Folds one gate's phys fields into the stream (raw f64 bits: stricter
/// than the vocab's quantization, so equal digests imply equal `[PHYS]`
/// token frames).
fn fold_phys(mut h: u64, p: &PhysProps) -> u64 {
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
    h
}

/// Whether a gate is a cut point of combinational traversal: its output
/// is a free variable (primary input, or a sequential element's
/// previous-cycle value).
fn is_cut(netlist: &Netlist, g: GateId) -> bool {
    let k = netlist.gate(g).kind;
    k == CellKind::Input || k.is_sequential()
}

/// Encoding of a cut point as seen by its sinks: kind + size (+ phys) +
/// first-reference identity number. Computed inline and never memoized,
/// so a register's role as a *cut* can't collide with its role as a
/// digest *root* (whose D-pin cone is traversed).
fn cut_value(netlist: &Netlist, g: GateId, seed: u64, phys: Option<&[PhysProps]>, id: u64) -> u64 {
    let gate = netlist.gate(g);
    let mut h = mix(seed, TAG_CUT);
    h = mix(h, kind_code(gate.kind));
    h = mix(h, gate.size.to_bits());
    if let Some(p) = phys {
        h = fold_phys(h, &p[g.index()]);
    }
    mix(h, id)
}

/// DFS scratch for [`root_hash`]. One instance may be shared across roots
/// so cut identity — which inputs two cones share — is part of the
/// structure, or rebuilt fresh per root for a purely local hash.
struct Scratch {
    memo: Vec<u64>,
    state: Vec<u8>,    // 0 = unvisited, 1 = on stack, 2 = done
    cut_ids: Vec<u64>, // u64::MAX = unassigned
    next_cut: u64,
}

impl Scratch {
    fn new(n: usize) -> Scratch {
        Scratch {
            memo: vec![0u64; n],
            state: vec![0u8; n],
            cut_ids: vec![u64::MAX; n],
            next_cut: 0,
        }
    }
}

/// Per-root canonical hash over one lane.
///
/// Iterative post-order DFS through combinational fan-in, cutting at
/// primary inputs and sequential elements. Cut points are numbered by
/// first *reference* in pin-order descent, which is what makes the result
/// independent of gate names and (for a single root) of insertion order.
/// Only interior (combinational) gates are memoized; the root itself is
/// always traversed, even when it is a sequential element that earlier
/// roots referenced as a cut.
fn root_hash(
    netlist: &Netlist,
    root: GateId,
    seed: u64,
    phys: Option<&[PhysProps]>,
    scratch: &mut Scratch,
) -> u64 {
    fn assign(s: &mut Scratch, ci: usize) {
        if s.cut_ids[ci] == u64::MAX {
            s.cut_ids[ci] = s.next_cut;
            s.next_cut += 1;
        }
    }
    let s = scratch;
    // Explicit stack: (gate, next fan-in pin to process). Roots may be
    // revisited across the shared pass, so a root with `state == 2`
    // (already traversed as a root — roots are unique, but an Output can
    // appear as interior of nothing and a register only ever as a cut)
    // simply returns its memo.
    let mut stack: Vec<(GateId, usize)> = vec![(root, 0)];
    while let Some(&mut (g, ref mut pin)) = stack.last_mut() {
        let gi = g.index();
        if *pin == 0 {
            if s.state[gi] == 2 {
                stack.pop();
                continue;
            }
            s.state[gi] = 1;
        }
        let fanin = &netlist.gate(g).fanin;
        if *pin < fanin.len() {
            let child = fanin[*pin];
            *pin += 1;
            let ci = child.index();
            if is_cut(netlist, child) {
                // Number it now (pre-order, pin order); folded later.
                assign(s, ci);
            } else if s.state[ci] == 0 {
                stack.push((child, 0));
            } else if s.state[ci] == 1 {
                // Combinational cycle (unvalidated netlist): number the
                // back-edge target like a cut instead of looping forever.
                assign(s, ci);
            }
            continue;
        }
        // All children available: fold them in pin order.
        let gate = netlist.gate(g);
        let mut h = mix(seed, TAG_GATE);
        h = mix(h, kind_code(gate.kind));
        h = mix(h, gate.size.to_bits());
        if let Some(p) = phys {
            h = fold_phys(h, &p[gi]);
        }
        for &f in &gate.fanin {
            let fi = f.index();
            let v = if is_cut(netlist, f) {
                cut_value(netlist, f, seed, phys, s.cut_ids[fi])
            } else if s.state[fi] == 1 {
                mix(mix(seed, TAG_BACKEDGE), s.cut_ids[fi])
            } else {
                s.memo[fi]
            };
            h = mix(h, v);
        }
        s.memo[gi] = h;
        s.state[gi] = 2;
        stack.pop();
    }
    mix(mix(seed, TAG_ROOT), s.memo[root.index()])
}

/// Roots of the digest: primary outputs, then sequential elements (their
/// D-pin cones are the state-transition functions), then every other gate
/// no gate reads, in id order. The last group matters for extracted cones:
/// logic that fed only a register's enable or reset pin stays in the cone
/// (and reaches the TAG) but drives neither the output nor a register.
fn digest_roots(netlist: &Netlist) -> Vec<GateId> {
    let mut read = vec![false; netlist.gate_count()];
    for (_, g) in netlist.iter() {
        for &f in &g.fanin {
            read[f.index()] = true;
        }
    }
    let mut roots = netlist.outputs();
    roots.extend(netlist.registers());
    roots.extend(
        netlist
            .iter()
            .filter(|(id, g)| {
                !read[id.index()] && g.kind != CellKind::Output && !g.kind.is_sequential()
            })
            .map(|(id, _)| id),
    );
    roots
}

fn digest(netlist: &Netlist, phys: Option<&[PhysProps]>) -> u128 {
    let n = netlist.gate_count();
    let roots = digest_roots(netlist);
    if roots.is_empty() && n == 0 {
        return 0;
    }
    // Pass 1 — local root hashes (fresh cut numbering per root) on lane 0,
    // used only to order roots canonically so the global pass does not
    // depend on output/register insertion order. Roots with equal local
    // hashes keep their relative order (stable sort); for the dominant
    // cache shape — single-output cone netlists — the ordering is exact.
    let mut ordered: Vec<(u64, GateId)> = roots
        .iter()
        .map(|&r| {
            let mut scratch = Scratch::new(n);
            (root_hash(netlist, r, LANE_SEEDS[0], phys, &mut scratch), r)
        })
        .collect();
    ordered.sort_by_key(|&(h, _)| h);
    // Pass 2 — global digest per lane with shared cut numbering in the
    // canonical root order, so cross-root input sharing is part of the
    // structure.
    let mut lanes = [0u64; 2];
    for (lane, &seed) in LANE_SEEDS.iter().enumerate() {
        let mut scratch = Scratch::new(n);
        let mut acc = mix(seed, n as u64);
        for &(_, r) in &ordered {
            acc = mix(acc, root_hash(netlist, r, seed, phys, &mut scratch));
        }
        lanes[lane] = acc;
    }
    (lanes[0] as u128) << 64 | lanes[1] as u128
}

/// 128-bit structural digest of a netlist: cell kinds, drive sizes, and
/// pin-ordered connectivity from every output and register cone and from
/// every gate nothing reads, with cut points (inputs / sequential
/// elements) identified by first-visit order.
/// Gate names and — for single-rooted netlists such as extracted cones —
/// gate insertion order do not affect the result.
///
/// ```
/// use nettag_netlist::{structural_hash, CellKind, Netlist};
/// let build = |names: [&str; 4]| {
///     let mut n = Netlist::new("d");
///     let a = n.add_gate(names[0], CellKind::Input, vec![]);
///     let b = n.add_gate(names[1], CellKind::Input, vec![]);
///     let g = n.add_gate(names[2], CellKind::Nand2, vec![a, b]);
///     n.add_gate(names[3], CellKind::Output, vec![g]);
///     n.validate().expect("valid")
/// };
/// assert_eq!(
///     structural_hash(&build(["a", "b", "U1", "y"])),
///     structural_hash(&build(["x", "y", "G7", "out"])),
/// );
/// ```
pub fn structural_hash(netlist: &Netlist) -> u128 {
    digest(netlist, None)
}

/// [`structural_hash`] extended with per-gate physical properties (raw
/// f64 bits), indexed by gate id — the full content an embedding of this
/// netlist consumes when phys values come from a parent design. This is
/// the cone-embedding cache key.
///
/// # Panics
///
/// Panics if `phys.len() != netlist.gate_count()`.
pub fn structural_hash_with_phys(netlist: &Netlist, phys: &[PhysProps]) -> u128 {
    assert_eq!(phys.len(), netlist.gate_count(), "one PhysProps per gate");
    digest(netlist, Some(phys))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cone::{chunk_into_cones, cone_to_netlist};
    use crate::Library;

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
        let h1 = structural_hash(&xor_cone(["a", "b", "X", "N", "y"]));
        let h2 = structural_hash(&xor_cone(["p", "q", "G1", "G2", "out"]));
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
        assert_ne!(
            structural_hash(&n),
            structural_hash(&xor_cone(["a", "b", "X", "N", "y"]))
        );
    }

    #[test]
    fn input_sharing_pattern_is_structure() {
        // NAND(a, a) vs NAND(a, b): same kinds, different cut identity.
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
        assert_ne!(structural_hash(&nand(true)), structural_hash(&nand(false)));
    }

    #[test]
    fn drive_size_is_structure() {
        // Size reaches the phys estimates, so resizing must change the key.
        let mut n = nand_pair();
        let u = n.find("U").expect("exists");
        let base = structural_hash(&n);
        n.gate_mut(u).size = 2.0;
        assert_ne!(base, structural_hash(&n));
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
    fn insertion_order_of_interior_gates_is_ignored() {
        // Same DAG, interior gates declared in a different order.
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
        assert_eq!(structural_hash(&n1), structural_hash(&n2));
    }

    #[test]
    fn phys_variant_distinguishes_context() {
        let n = xor_cone(["a", "b", "X", "N", "y"]);
        let mut phys = vec![PhysProps::default(); n.gate_count()];
        let base = structural_hash_with_phys(&n, &phys);
        phys[2].load = 3.5;
        assert_ne!(base, structural_hash_with_phys(&n, &phys));
        // And the phys-less digest is a different domain entirely.
        assert_ne!(base, structural_hash(&n));
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
            assert_eq!(structural_hash(&sub1), structural_hash(&sub2));
        }
        // The two register cones are structurally different.
        let subs: Vec<u128> = cones
            .iter()
            .map(|c| structural_hash(&cone_to_netlist(&n, c)))
            .collect();
        assert_ne!(subs[0], subs[1]);
        let _ = Library::default();
    }

    #[test]
    fn digest_covers_whole_sequential_netlist() {
        // Registers are digest roots: changing logic only visible through
        // a register's D pin still changes the hash — including when an
        // output references the register first, so the register is seen
        // as a cut point before it is processed as a root.
        let build = |kind: CellKind| {
            let mut n = Netlist::new("seq");
            let i = n.add_gate("in", CellKind::Input, vec![]);
            let g = n.add_gate("G", kind, vec![i, i]);
            let r = n.add_gate("R", CellKind::Dff, vec![g]);
            n.add_gate("y", CellKind::Output, vec![r]);
            n.validate().expect("valid")
        };
        assert_ne!(
            structural_hash(&build(CellKind::And2)),
            structural_hash(&build(CellKind::Or2))
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
        assert_ne!(structural_hash(&or), structural_hash(&xor));
        let lib = Library::default();
        let with_phys = |n: &Netlist| {
            structural_hash_with_phys(n, &crate::tag::synthesis_phys_estimates(n, &lib))
        };
        assert_ne!(with_phys(&or), with_phys(&xor));
    }

    #[test]
    fn self_feedback_register_digests() {
        // Toggle flop: R' = !R. The root joins its own frontier; the
        // traversal must terminate and distinguish it from a buffer loop.
        let build = |kind: CellKind| {
            let mut n = Netlist::new("t");
            let r = GateId(0);
            let inv = GateId(1);
            n.add_gate("R", CellKind::Dff, vec![inv]);
            n.add_gate("N", kind, vec![r]);
            n.validate().expect("valid")
        };
        assert_ne!(
            structural_hash(&build(CellKind::Inv)),
            structural_hash(&build(CellKind::Buf))
        );
    }
}
