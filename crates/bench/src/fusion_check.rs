//! The structural half of the fusion differential: `Fusion::Full` must be
//! a pure regrouping of the unfused stream. (The behavioural half — same
//! results and counters at both fusion levels — is
//! [`crate::differential::Differential`].)

use kit_kam::threaded::{Field, Fusion, SwitchRows, ThreadedCode};
use kit_kam::{DispatchMode, Executable, Program};

/// Panics unless, for `prog`: `prepare` at `Off` is the identity; the
/// charges of the `Full` stream sum to `prog.code.len()`; and `unfuse` of
/// the `Full` stream, concatenated, is the `Off` stream — operands equal,
/// pc operands (branch targets, switch tables, entry points, label pcs,
/// the frame map) equal through the pc map the charges define, and every
/// leader (a bound label, a return address) the start of a group. Returns
/// the `Full` stream.
pub fn assert_fusion_regroups(prog: &Program, ctx: &str) -> ThreadedCode {
    let prepare = |fusion| Executable::prepare(prog, DispatchMode::Threaded, fusion);
    let off = &prog.code;
    assert!(
        prepare(Fusion::Off).code() == off,
        "{ctx}: prepare at Off is not the identity"
    );
    let full = prepare(Fusion::Full).code().clone();

    // Old pc → new pc: a group starts where the charges before it end.
    let mut new_pc = vec![u32::MAX; prog.code.len()];
    let mut old = 0;
    for (new, op) in full.ops.iter().enumerate() {
        new_pc[old] = new as u32;
        old += op.cost() as usize;
    }
    assert_eq!(old, prog.code.len(), "{ctx}: charges vs unfused length");
    let map = |pc: u32| new_pc.get(pc as usize).copied().unwrap_or(u32::MAX);
    for (pc, _) in off.leaders().iter().enumerate().filter(|(_, l)| **l) {
        assert_ne!(map(pc as u32), u32::MAX, "{ctx}: a group spans leader {pc}");
    }

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
    let frames: Vec<_> = off
        .frame_map
        .iter()
        .map(|&(pc, live)| (map(pc), live))
        .collect();
    assert_eq!(full.frame_map, frames, "{ctx}: frame map");
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
