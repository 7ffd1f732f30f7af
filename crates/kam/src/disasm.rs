//! Bytecode disassembler (`--dump-kam` style debugging output), for the
//! compiled stream and the threaded form the engine runs — where a
//! superinstruction renders as its mnemonic plus the base instructions it
//! stands for (`LoadSelectStore = Load a=1; Select n=0; Store a=2`).

use crate::instr::Program;
use crate::threaded::{translate, Args, Field, Fusion, Op};
use std::fmt::Write as _;

/// Renders the instruction stream (absolute pc operands) with code
/// addresses, function entry markers and each non-tail call's frame-map
/// entry (`live=N`) — what the translation reads.
pub fn disassemble(p: &Program) -> String {
    let mut out = String::new();
    let entry_pc: Vec<u32> = p.funs.iter().map(|f| f.entry).collect();
    let lines = p.code.iter().enumerate().map(|(pc, ins)| {
        match p.frame_map.binary_search_by_key(&(pc as u32 + 1), |e| e.0) {
            Ok(i) => format!("{ins:?} live={}", p.frame_map[i].1),
            Err(_) => format!("{ins:?}"),
        }
    });
    render_stream(p, &entry_pc, lines, &mut out);
    out
}

/// Renders the *threaded* (struct-of-arrays) form — what the engine
/// executes: the mnemonic and the operand fields the opcode reads;
/// a superinstruction is followed by the base instructions it stands for
/// ([`ThreadedCode::unfuse`](crate::threaded::ThreadedCode::unfuse)).
pub fn disassemble_threaded(p: &Program, fusion: Fusion) -> String {
    let tcode = translate(p, fusion);
    let mut out = format!(
        "; threaded: {} instructions ({} fused) from {} source instructions\n",
        tcode.ops.len(),
        tcode.fused,
        p.code.len()
    );
    let lines = tcode.ops.iter().enumerate().map(|(pc, op)| {
        let parts: Vec<String> = tcode.unfuse(pc).iter().map(show).collect();
        if op.is_fused() {
            format!("{} = {}", op.mnemonic(), parts.join("; "))
        } else {
            parts.concat()
        }
    });
    render_stream(p, &tcode.entry_pc, lines, &mut out);
    out
}

/// One base instruction of the threaded form: `Mnemonic field=value …`.
fn show((op, x): &(Op, Args)) -> String {
    let mut s = op.mnemonic().to_string();
    for f in op.fields() {
        let _ = match f {
            Field::K => write!(s, " k={}", x.k),
            Field::A => write!(s, " a={}", x.a),
            Field::T => write!(s, " t={}", x.t),
            Field::N => write!(s, " n={}", x.n),
            Field::M => write!(s, " m={}", x.m),
            Field::Flag => write!(s, " flag={}", x.flag),
            Field::P => write!(s, " p={:?}", x.p),
            Field::At => write!(s, " at={:?}", x.at),
        };
    }
    s
}

fn render_stream(
    p: &Program,
    entry_pc: &[u32],
    lines: impl Iterator<Item = String>,
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
    for (pc, line) in lines.enumerate() {
        if let Some(name) = entries.get(&pc) {
            let _ = writeln!(out, "{name}:");
        }
        let _ = writeln!(out, "  {pc:>5}  {line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disassembles_the_compiled_and_threaded_forms() {
        let src = "fun fib n = if n < 2 then n else fib (n - 1) + fib (n - 2) val it = fib 5";
        let mut lprog = kit_typing::compile_str(src).unwrap();
        kit_lambda::opt::optimize(&mut lprog, &Default::default());
        let rprog = kit_region::infer(&lprog, kit_region::RegionOptions::regions_only());
        let prog = crate::compile(&rprog, true);
        let code = disassemble(&prog);
        assert!(code.contains("<main>:"), "{code}");
        assert!(code.contains("Halt"), "{code}");
        let unfused = disassemble_threaded(&prog, Fusion::Off);
        assert!(unfused.contains("(0 fused)"), "{unfused}");
        // `n < 2` (tagged 2 is 5): the components follow the mnemonic.
        let fused = disassemble_threaded(&prog, Fusion::Full);
        let lt = "PushConstPrim = PushConst k=5; Prim p=ILt at=None\n";
        assert!(fused.contains(lt), "{fused}");
        // `fib (n - 1)` waits with the environment and `n` in scope.
        assert!(code.contains("tail: false } live=2\n"), "{code}");
    }
}
