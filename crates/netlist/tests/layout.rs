//! Gate layout: names and pins are stored inline in the common case and
//! fall back to the heap beyond it, with no change in what they hold.

use nettag_netlist::{
    parse_verilog, CellKind, Gate, GateId, GateName, Netlist, NetlistError, Pins,
    INLINE_NAME_BYTES, INLINE_PINS,
};
use proptest::prelude::*;
use std::borrow::Borrow;
use std::collections::HashSet;

/// Arbitrary strings of up to 30 chars mixing 1- to 4-byte UTF-8, so
/// byte lengths straddle the inline bound and multi-byte chars cross it.
fn any_string() -> BoxedStrategy<String> {
    let char_code = prop_oneof![
        0u32..0x80,
        0x80u32..0x800,
        0x800u32..0x1_0000,
        0x1_0000u32..0x11_0000
    ];
    prop::collection::vec(char_code, 0..30)
        .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
}

fn check_round_trip(s: &str) {
    let from_str = GateName::from(s);
    let from_string = GateName::from(s.to_string());
    for name in [&from_str, &from_string] {
        assert_eq!(name.as_str(), s);
        assert_eq!(&**name, s);
        assert_eq!(name.to_string(), s);
        assert_eq!(AsRef::<str>::as_ref(name), s);
        assert_eq!(Borrow::<str>::borrow(name), s);
        assert_eq!(name.is_inline(), s.len() <= INLINE_NAME_BYTES, "{s:?}");
    }
    assert_eq!(from_str, from_string);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn names_round_trip_arbitrary_strings(s in any_string()) {
        check_round_trip(&s);
    }
}

#[test]
fn names_round_trip_at_the_inline_bound() {
    let cases = [
        String::new(),
        "a".repeat(INLINE_NAME_BYTES),
        "a".repeat(INLINE_NAME_BYTES + 1),
        // Two-byte chars: 14 bytes inline, 16 on the heap.
        "é".repeat(INLINE_NAME_BYTES / 2),
        "é".repeat(INLINE_NAME_BYTES / 2 + 1),
        // A three-byte char straddling byte 14.
        format!("{}日本", "a".repeat(INLINE_NAME_BYTES - 2)),
        "🦀".repeat(8),
    ];
    for s in &cases {
        check_round_trip(s);
    }
}

#[test]
fn names_look_up_as_str_keys() {
    let set: HashSet<GateName> = ["U1", "a_much_longer_register_name_q"]
        .into_iter()
        .map(GateName::from)
        .collect();
    assert!(set.contains("U1"));
    assert!(set.contains("a_much_longer_register_name_q"));
    assert!(!set.contains("U2"));
    assert_eq!(GateName::from("U1"), "U1");
}

#[test]
fn pins_stay_inline_up_to_three_and_box_beyond() {
    for n in 0..=INLINE_PINS + 3 {
        let ids: Vec<GateId> = (0..n as u32).map(|i| GateId(i * 7 + 1)).collect();
        let forms = [
            Pins::from(ids.clone()),
            Pins::from(ids.as_slice()),
            Pins::from(ids.clone().into_boxed_slice()),
        ];
        for pins in &forms {
            assert_eq!(&**pins, ids.as_slice());
            assert_eq!(pins.is_inline(), n <= INLINE_PINS, "{n} pins");
            assert_eq!(pins.iter().count(), n);
        }
        assert!(forms.iter().all(|p| *p == forms[0]));
    }
    assert!(Pins::from([GateId(3), GateId(4)]).is_inline());
    assert!(Pins::from([GateId(1); 5]).len() == 5);

    let mut pins = Pins::from(vec![GateId(1), GateId(2), GateId(3)]);
    pins.reverse();
    pins[0] = GateId(9);
    for p in &mut pins {
        p.0 += 1;
    }
    assert_eq!(&*pins, &[GateId(10), GateId(3), GateId(2)]);
}

#[test]
fn gates_are_at_most_48_bytes() {
    assert!(
        std::mem::size_of::<Gate>() <= 48,
        "{}",
        std::mem::size_of::<Gate>()
    );
}

#[test]
fn five_pin_gate_is_an_arity_mismatch() {
    let mut n = Netlist::new("t");
    let ins: Vec<GateId> = (0..5)
        .map(|i| n.add_gate(format!("i{i}"), CellKind::Input, vec![]))
        .collect();
    let g = n.add_gate("U1", CellKind::And2, ins);
    assert!(!n.gate(g).fanin.is_inline());
    assert_eq!(
        n.validate().expect_err("five pins on a two-input cell"),
        NetlistError::ArityMismatch {
            gate: "U1".to_string(),
            expected: 2,
            found: 5,
        }
    );
}

#[test]
fn five_pin_verilog_instance_is_an_arity_mismatch() {
    let text = "module m (a, b, c, d, e, y);\n input a, b, c, d, e;\n output y;\n \
                AND2 i_x (x, a, b, c, d, e);\n assign y = x;\nendmodule\n";
    let err = parse_verilog(text).expect_err("five pins on a two-input cell");
    let arity = NetlistError::ArityMismatch {
        gate: "x".to_string(),
        expected: 2,
        found: 5,
    };
    assert_eq!(err.message, format!("invalid netlist: {arity}"));
}
