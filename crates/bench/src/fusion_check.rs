//! The structural half of the fusion differential: `Fusion::Full` must be
//! a pure regrouping of the unfused stream. (The behavioural half — same
//! results and counters at both fusion levels — is `tests/fusion.rs`.)

use kit_kam::threaded::{translate, Field, Fusion, Op, SwitchRows, ThreadedCode};
use kit_kam::Program;

/// Panics unless, for `prog`: the `Off` stream is `prog.code` opcode for
/// opcode; the charges of the `Full` stream sum to `prog.code.len()`;
/// and `unfuse` of the `Full` stream, concatenated, is the `Off` stream —
/// operands equal, pc operands (branch targets, switch tables, entry
/// points, label pcs) equal through the pc map the charges define.
/// Returns the `Full` stream.
pub fn assert_fusion_regroups(prog: &Program, ctx: &str) -> ThreadedCode {
    let of_code: Vec<Op> = prog.code.iter().map(Op::of).collect();
    let off = translate(prog, Fusion::Off);
    let full = translate(prog, Fusion::Full);
    assert_eq!(off.ops, of_code, "{ctx}: Off vs compiled opcodes");

    // Old pc → new pc: a group starts where the charges before it end.
    let mut new_pc = vec![u32::MAX; prog.code.len()];
    let mut old = 0;
    for (new, op) in full.ops.iter().enumerate() {
        new_pc[old] = new as u32;
        old += op.cost() as usize;
    }
    assert_eq!(old, prog.code.len(), "{ctx}: charges vs source length");
    let map = |pc: u32| new_pc.get(pc as usize).copied().unwrap_or(u32::MAX);

    let mut pc = 0;
    for new in 0..full.ops.len() {
        for (op, x) in full.unfuse(new) {
            let mut want = off.args[pc];
            if op.fields().contains(&Field::T) {
                want.t = map(want.t);
            }
            assert_eq!(
                (op, x),
                (off.ops[pc], want),
                "{ctx}: pc {pc} (fused pc {new})"
            );
            pc += 1;
        }
    }

    fn mapped<K: Clone>(table: &[SwitchRows<K>], map: &dyn Fn(u32) -> u32) -> Vec<SwitchRows<K>> {
        let row = |(arms, default): &SwitchRows<K>| {
            let arms = arms.iter().map(|(k, t)| (k.clone(), map(*t))).collect();
            (arms, map(*default))
        };
        table.iter().map(row).collect()
    }
    let pcs = |v: &[u32]| v.iter().map(|&pc| map(pc)).collect::<Vec<_>>();
    assert_eq!(full.entry_pc, pcs(&off.entry_pc), "{ctx}: entry pcs");
    assert_eq!(full.pc_of_label, pcs(&off.pc_of_label), "{ctx}: label pcs");
    assert_eq!(full.fun_of_label, off.fun_of_label, "{ctx}");
    assert_eq!((&full.strs, &full.names), (&off.strs, &off.names), "{ctx}");
    let (discs, rows): (Vec<_>, Vec<_>) = off.con_switches.iter().cloned().unzip();
    let con: (Vec<_>, Vec<_>) = full.con_switches.iter().cloned().unzip();
    assert_eq!(con, (discs, mapped(&rows, &map)), "{ctx}: con switches");
    let int = mapped(&off.int_switches, &map);
    assert_eq!(full.int_switches, int, "{ctx}: int switches");
    let str = mapped(&off.str_switches, &map);
    assert_eq!(full.str_switches, str, "{ctx}: str switches");
    let exn = mapped(&off.exn_switches, &map);
    assert_eq!(full.exn_switches, exn, "{ctx}: exn switches");
    full
}
