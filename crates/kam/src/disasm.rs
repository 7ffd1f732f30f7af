//! Bytecode disassembler (`--dump-kam` style debugging output), for both
//! the compiler's label-based stream and the linked form the interpreter
//! dispatches on.

use crate::instr::Program;
use crate::link;
use std::fmt::Write as _;

/// Renders the instruction stream with code addresses and function entry
/// markers.
pub fn disassemble(p: &Program) -> String {
    let mut out = String::new();
    // Invert label addresses for display.
    let mut entries: std::collections::HashMap<usize, String> = Default::default();
    for (label, fun) in &p.entry_of {
        let addr = p.label_addrs[*label];
        let name = &p.funs[*fun as usize].name;
        entries
            .entry(addr)
            .and_modify(|s| {
                let _ = write!(s, ", {name}");
            })
            .or_insert_with(|| name.clone());
    }
    for (addr, ins) in p.code.iter().enumerate() {
        if let Some(name) = entries.get(&addr) {
            let _ = writeln!(out, "{name}:");
        }
        let _ = writeln!(out, "  {addr:>5}  {ins:?}");
    }
    out
}

/// Renders the *linked* instruction stream (absolute pc operands, fused
/// superinstructions) — what the interpreter actually executes.
pub fn disassemble_linked(p: &Program, fusion: link::Fusion) -> String {
    let linked = link::link(p, fusion);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "; linked: {} instructions ({} fused) from {} source instructions",
        linked.code.len(),
        linked.fused,
        p.code.len()
    );
    render_stream(p, &linked.entry_pc, linked.code.iter(), &mut out);
    out
}

/// Renders the *threaded* (struct-of-arrays) form by rebuilding each
/// instruction from its opcode + pre-decoded operands. Because the
/// translation is lossless, this produces the same mnemonic stream as
/// [`disassemble_linked`] apart from the header line — the round-trip
/// property the dispatch tests rely on.
pub fn disassemble_threaded(p: &Program, fusion: link::Fusion) -> String {
    let tcode = crate::threaded::translate(link::link(p, fusion));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "; threaded: {} instructions ({} fused) from {} source instructions",
        tcode.ops.len(),
        tcode.fused,
        p.code.len()
    );
    let rebuilt: Vec<_> = (0..tcode.ops.len()).map(|pc| tcode.rebuild(pc)).collect();
    render_stream(p, &tcode.entry_pc, rebuilt.iter(), &mut out);
    out
}

fn render_stream<'i>(
    p: &Program,
    entry_pc: &[u32],
    code: impl Iterator<Item = &'i crate::link::LInstr>,
    out: &mut String,
) {
    let mut entries: std::collections::HashMap<usize, String> = Default::default();
    for (fun, info) in p.funs.iter().enumerate() {
        let pc = entry_pc[fun] as usize;
        let name = &info.name;
        entries
            .entry(pc)
            .and_modify(|s| {
                let _ = write!(s, ", {name}");
            })
            .or_insert_with(|| name.clone());
    }
    for (pc, ins) in code.enumerate() {
        if let Some(name) = entries.get(&pc) {
            let _ = writeln!(out, "{name}:");
        }
        let _ = writeln!(out, "  {pc:>5}  {ins:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disassembles_a_program() {
        let mut lprog = kit_typing::compile_str("val it = 1 + 2").unwrap();
        kit_lambda::opt::optimize(&mut lprog, &Default::default());
        let rprog = kit_region::infer(&lprog, kit_region::RegionOptions::regions_only());
        let prog = crate::compile(&rprog, true);
        let s = disassemble(&prog);
        assert!(s.contains("<main>:"), "{s}");
        assert!(s.contains("Halt"), "{s}");
    }

    #[test]
    fn disassembles_the_linked_form() {
        let mut lprog = kit_typing::compile_str("fun f (x, y) = x + y val it = f (1, 2)").unwrap();
        kit_lambda::opt::optimize(&mut lprog, &Default::default());
        let rprog = kit_region::infer(&lprog, kit_region::RegionOptions::regions_only());
        let prog = crate::compile(&rprog, true);
        let fused = disassemble_linked(&prog, link::Fusion::Full);
        assert!(fused.contains("<main>:"), "{fused}");
        assert!(fused.contains("Halt"), "{fused}");
        let unfused = disassemble_linked(&prog, link::Fusion::Off);
        assert!(unfused.contains("(0 fused)"), "{unfused}");
    }
}
