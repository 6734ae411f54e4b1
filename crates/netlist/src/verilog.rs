//! Structural Verilog subset writer and parser.
//!
//! The flow's interchange format: the synthesis substrate writes
//! post-mapping netlists, the Fig. 8 demo shows flattened netlist text to
//! an "LLM", and tests round-trip designs through text. Only the
//! structural subset is supported: `module`, `input`, `output`, `wire`,
//! positional cell instances (output pin first), and `assign out = net;`.

use crate::cell::CellKind;
use crate::graph::{GateId, Netlist};
use std::collections::HashMap;
use std::fmt;

/// Error from [`parse_verilog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseVerilogError {
    /// 1-based source line.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseVerilogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "verilog parse error on line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseVerilogError {}

/// Serializes a netlist to the structural Verilog subset.
///
/// Net naming: the net driven by gate `g` is `g`'s instance name; instances
/// are prefixed `i_`. Output pseudo-gates become `assign` statements.
pub fn write_verilog(netlist: &Netlist) -> String {
    let mut s = String::new();
    let inputs = netlist.inputs();
    let outputs = netlist.outputs();
    let port = |id: GateId| -> &str { netlist.gate(id).name.as_str() };
    let ports: Vec<&str> = inputs
        .iter()
        .chain(outputs.iter())
        .map(|&id| port(id))
        .collect();
    s.push_str(&format!(
        "module {} ({});\n",
        netlist.name(),
        ports.join(", ")
    ));
    for &i in &inputs {
        s.push_str(&format!("  input {};\n", port(i)));
    }
    for &o in &outputs {
        s.push_str(&format!("  output {};\n", port(o)));
    }
    for (_, g) in netlist.iter() {
        if g.kind.is_pseudo() {
            continue;
        }
        s.push_str(&format!("  wire {};\n", g.name));
    }
    for (_, g) in netlist.iter() {
        match g.kind {
            CellKind::Input => {}
            CellKind::Output => {
                let driver = &netlist.gate(g.fanin[0]).name;
                s.push_str(&format!("  assign {} = {};\n", g.name, driver));
            }
            CellKind::Const0 => s.push_str(&format!("  TIELO i_{} ({});\n", g.name, g.name)),
            CellKind::Const1 => s.push_str(&format!("  TIEHI i_{} ({});\n", g.name, g.name)),
            kind => {
                let pins: Vec<&str> = std::iter::once(g.name.as_str())
                    .chain(g.fanin.iter().map(|&f| netlist.gate(f).name.as_str()))
                    .collect();
                s.push_str(&format!(
                    "  {} i_{} ({});\n",
                    kind.name(),
                    g.name,
                    pins.join(", ")
                ));
            }
        }
    }
    s.push_str("endmodule\n");
    s
}

/// Parses the structural subset emitted by [`write_verilog`].
///
/// # Errors
///
/// Returns [`ParseVerilogError`] on unknown cells, undriven nets, or
/// malformed statements.
pub fn parse_verilog(text: &str) -> Result<Netlist, ParseVerilogError> {
    let err = |line: usize, message: &str| ParseVerilogError {
        line,
        message: message.to_string(),
    };
    let mut name = String::from("top");
    let mut inputs: Vec<String> = Vec::new();
    let mut assigns: Vec<(String, String, usize)> = Vec::new();
    // (kind, instance net, input nets, line)
    let mut insts: Vec<(CellKind, String, Vec<String>, usize)> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let stmt = raw
            .split("//")
            .next()
            .unwrap_or("")
            .trim()
            .trim_end_matches(';')
            .trim();
        if stmt.is_empty() || stmt == "endmodule" {
            continue;
        }
        if let Some(rest) = stmt.strip_prefix("module ") {
            name = rest
                .split(['(', ' '])
                .next()
                .ok_or_else(|| err(line, "missing module name"))?
                .to_string();
        } else if let Some(rest) = stmt.strip_prefix("input ") {
            for p in rest.split(',') {
                inputs.push(p.trim().to_string());
            }
        } else if stmt.starts_with("output ") || stmt.starts_with("wire ") {
            // Declarations carry no structure in this subset.
        } else if let Some(rest) = stmt.strip_prefix("assign ") {
            let (lhs, rhs) = rest
                .split_once('=')
                .ok_or_else(|| err(line, "assign without '='"))?;
            assigns.push((lhs.trim().to_string(), rhs.trim().to_string(), line));
        } else {
            // CELL instname (out, in...);
            let open = stmt
                .find('(')
                .ok_or_else(|| err(line, "expected instance pins"))?;
            let close = stmt
                .rfind(')')
                .ok_or_else(|| err(line, "unclosed pin list"))?;
            let head: Vec<&str> = stmt[..open].split_whitespace().collect();
            if head.len() != 2 {
                return Err(err(line, "expected 'CELL instance (pins)'"));
            }
            let kind = CellKind::from_name(head[0])
                .ok_or_else(|| err(line, &format!("unknown cell {}", head[0])))?;
            let pins: Vec<String> = stmt[open + 1..close]
                .split(',')
                .map(|p| p.trim().to_string())
                .filter(|p| !p.is_empty())
                .collect();
            if pins.is_empty() {
                return Err(err(line, "instance needs at least an output pin"));
            }
            let out = pins[0].clone();
            insts.push((kind, out, pins[1..].to_vec(), line));
        }
    }
    let mut netlist = Netlist::new(name);
    let mut by_net: HashMap<String, GateId> = HashMap::new();
    for i in &inputs {
        let id = netlist.add_gate(i.clone(), CellKind::Input, vec![]);
        by_net.insert(i.clone(), id);
    }
    // First pass: create gates with empty fan-in; second pass: connect.
    for (kind, out, _, line) in &insts {
        if by_net.contains_key(out) {
            return Err(err(*line, &format!("net {out} driven twice")));
        }
        let id = netlist.add_gate(out.clone(), *kind, vec![]);
        by_net.insert(out.clone(), id);
    }
    for (_, out, ins, line) in &insts {
        let fanin: Result<Vec<GateId>, ParseVerilogError> = ins
            .iter()
            .map(|n| {
                by_net
                    .get(n)
                    .copied()
                    .ok_or_else(|| err(*line, &format!("undriven net {n}")))
            })
            .collect();
        netlist.gate_mut(by_net[out]).fanin = fanin?.into();
    }
    for (lhs, rhs, line) in &assigns {
        let driver = by_net
            .get(rhs)
            .copied()
            .ok_or_else(|| err(*line, &format!("undriven net {rhs}")))?;
        netlist.add_gate(lhs.clone(), CellKind::Output, vec![driver]);
    }
    netlist
        .validate()
        .map_err(|e| err(0, &format!("invalid netlist: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::NetlistStats;

    fn example() -> Netlist {
        let mut n = Netlist::new("rt");
        let a = n.add_gate("a", CellKind::Input, vec![]);
        let b = n.add_gate("b", CellKind::Input, vec![]);
        let g1 = n.add_gate("U1", CellKind::Nand2, vec![a, b]);
        let g2 = n.add_gate("U2", CellKind::Xor2, vec![g1, a]);
        let r = n.add_gate("R1", CellKind::Dff, vec![g2]);
        let m = n.add_gate("U3", CellKind::Mux2, vec![r, g1, g2]);
        n.add_gate("y", CellKind::Output, vec![m]);
        n.validate().expect("valid")
    }

    #[test]
    fn writer_emits_module_structure() {
        let v = write_verilog(&example());
        assert!(v.starts_with("module rt (a, b, y);"));
        assert!(v.contains("NAND2 i_U1 (U1, a, b);"));
        assert!(v.contains("DFF i_R1 (R1, U2);"));
        assert!(v.contains("assign y = U3;"));
        assert!(v.trim_end().ends_with("endmodule"));
    }

    #[test]
    fn round_trip_preserves_structure() {
        let original = example();
        let text = write_verilog(&original);
        let parsed = parse_verilog(&text).expect("round-trips");
        let s1 = NetlistStats::of(&original);
        let s2 = NetlistStats::of(&parsed);
        assert_eq!(s1.nodes, s2.nodes);
        assert_eq!(s1.edges, s2.edges);
        assert_eq!(s1.kind_counts, s2.kind_counts);
        assert_eq!(parsed.name(), "rt");
    }

    #[test]
    fn parser_rejects_unknown_cells() {
        let text = "module m (a, y);\n input a;\n output y;\n FROB i_x (x, a);\n assign y = x;\nendmodule\n";
        let e = parse_verilog(text).expect_err("unknown cell");
        assert!(e.message.contains("unknown cell"));
        assert_eq!(e.line, 4);
    }

    #[test]
    fn parser_rejects_undriven_nets() {
        let text = "module m (a, y);\n input a;\n output y;\n INV i_x (x, ghost);\n assign y = x;\nendmodule\n";
        let e = parse_verilog(text).expect_err("undriven");
        assert!(e.message.contains("undriven"));
    }

    #[test]
    fn parser_rejects_double_drivers() {
        let text = "module m (a, y);\n input a;\n INV i_x (x, a);\n BUF i_x2 (x, a);\n assign y = x;\nendmodule\n";
        let e = parse_verilog(text).expect_err("double driven");
        assert!(e.message.contains("driven twice"));
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let text = "// header\nmodule m (a, y);\n input a;\n\n output y; // out\n INV i_x (x, a);\n assign y = x;\nendmodule\n";
        let n = parse_verilog(text).expect("parses");
        assert_eq!(n.gate_count(), 3);
    }
}
