//! Bytecode disassembler (`--dump-kam` style debugging output) for the
//! stream the engine runs, unfused or fused — where a superinstruction
//! renders as its mnemonic plus the base instructions it stands for
//! (`LoadSelectStore = Load a=1; Select n=0; Store a=2`), and an
//! instruction that reads a side-table row prints the row after its index
//! (`PushStr a=0 "ok"`, `SwitchInt a=2 arms=[0:17, 1:20] default=23`).

use crate::instr::Program;
use crate::threaded::{Args, Field, Fusion, Op, SwitchRows, ThreadedCode};
use crate::vm::{DispatchMode, Executable};
use std::fmt::Debug;
use std::fmt::Write as _;

/// Renders `p`'s stream at fusion level `fusion` with code addresses and
/// function entry markers: each instruction as its mnemonic and the
/// operand fields the opcode reads (absolute pc operands), a
/// superinstruction followed by the base instructions it stands for
/// ([`ThreadedCode::unfuse`]), each side-table row — string literal,
/// switch discriminant scheme, arms and default, `letregion` names —
/// after the index that reads it, and each non-tail call with its
/// frame-map entry (`live=N`).
pub fn disassemble(p: &Program, fusion: Fusion) -> String {
    let exe = Executable::prepare(p, DispatchMode::Threaded, fusion);
    let code = exe.code();
    let mut entries: std::collections::HashMap<usize, String> = Default::default();
    for (info, &pc) in p.funs.iter().zip(&code.entry_pc) {
        let name = &info.name;
        entries
            .entry(pc as usize)
            .and_modify(|s| {
                let _ = write!(s, ", {name}");
            })
            .or_insert_with(|| name.clone());
    }
    let mut out = String::new();
    for (pc, op) in code.ops.iter().enumerate() {
        if let Some(name) = entries.get(&pc) {
            let _ = writeln!(out, "{name}:");
        }
        let parts: Vec<String> = code.unfuse(pc).iter().map(|i| show(code, i)).collect();
        let _ = if op.is_fused() {
            write!(out, "  {pc:>5}  {} = {}", op.mnemonic(), parts.join("; "))
        } else {
            write!(out, "  {pc:>5}  {}", parts.concat())
        };
        let ret = pc as u32 + 1;
        if let Ok(i) = code.frame_map.binary_search_by_key(&ret, |e| e.0) {
            let _ = write!(out, " live={}", code.frame_map[i].1);
        }
        out.push('\n');
    }
    out
}

/// One base instruction: `Mnemonic field=value …`, then the side-table
/// row it reads, if any.
fn show(code: &ThreadedCode, (op, x): &(Op, Args)) -> String {
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
    let a = x.a as usize;
    let _ = match op {
        Op::PushStr => write!(s, " {:?}", code.strs[a]),
        Op::SwitchCon => {
            let (disc, rows) = &code.con_switches[a];
            write!(s, " disc={disc:?}{}", arms(rows))
        }
        Op::SwitchInt => write!(s, "{}", arms(&code.int_switches[a])),
        Op::SwitchStr => write!(s, "{}", arms(&code.str_switches[a])),
        Op::SwitchExn => write!(s, "{}", arms(&code.exn_switches[a])),
        Op::LetRegion => write!(s, " names={:?}", code.names[a]),
        _ => Ok(()),
    };
    s
}

/// A switch row: ` arms=[key:pc, …] default=pc`.
fn arms<K: Debug>((arms, default): &SwitchRows<K>) -> String {
    let arms: Vec<String> = arms.iter().map(|(k, t)| format!("{k:?}:{t}")).collect();
    format!(" arms=[{}] default={default}", arms.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disassembles_the_unfused_and_fused_stream() {
        let src = "fun fib n = if n < 2 then n else fib (n - 1) + fib (n - 2) val it = fib 5";
        let mut lprog = kit_typing::compile_str(src).unwrap();
        kit_lambda::opt::optimize(&mut lprog, &Default::default());
        let rprog = kit_region::infer(&lprog, kit_region::RegionOptions::regions_only());
        let prog = crate::compile(&rprog, true);
        let unfused = disassemble(&prog, Fusion::Off);
        assert!(unfused.contains("<main>:"), "{unfused}");
        assert!(unfused.contains("Halt"), "{unfused}");
        assert_eq!(
            unfused.lines().filter(|l| l.starts_with("  ")).count(),
            prog.code.len()
        );
        // `n < 2` (tagged 2 is 5): the components follow the mnemonic.
        let fused = disassemble(&prog, Fusion::Full);
        let lt = "GcCheckLoadConstPrimJump = GcCheck; Load a=1; PushConst k=5; \
                  Prim p=ILt at=None; JumpIfFalse t=";
        assert!(fused.contains(lt), "{fused}");
        // `fib (n - 1)` waits with the environment and `n` in scope.
        for listing in [&unfused, &fused] {
            assert!(listing.contains(" flag=false live=2\n"), "{listing}");
        }
    }

    #[test]
    fn prints_the_side_table_row_an_instruction_reads() {
        let src = "fun f n = case n of 0 => \"zero\" | 1 => \"one\" | _ => \"many\" \
                   fun sum [] = 0 | sum (x :: t) = x + sum t \
                   fun g n = sum [n, n + 1] \
                   val it = (f (g 1), f (g 2))";
        let mut lprog = kit_typing::compile_str(src).unwrap();
        kit_lambda::opt::optimize(&mut lprog, &Default::default());
        let rprog = kit_region::infer(&lprog, kit_region::RegionOptions::regions_only());
        let listing = disassemble(&crate::compile(&rprog, true), Fusion::Off);
        for row in [
            "PushStr a=0 \"zero\"",
            "SwitchInt a=0 arms=[0:",
            "LetRegion a=0 names=[",
        ] {
            assert!(listing.contains(row), "{row}: {listing}");
        }
    }
}
