//! Round-trip tests for the threaded (struct-of-arrays) form: translating
//! a linked program and rebuilding every instruction must reproduce the
//! linked stream exactly, so both forms render the same disassembly, and
//! the threaded stream's charges add up to the source length.

use kit::{Compiler, Mode};
use kit_bench::programs;
use kit_kam::link::{link, Fusion};
use kit_kam::threaded::translate;
use kit_kam::{disasm, Program};

fn compiled(src: &str) -> Program {
    Compiler::new(Mode::R)
        .compile_source(src)
        .expect("benchmark compiles")
}

#[test]
fn threaded_form_round_trips_on_every_benchmark() {
    for b in programs::all() {
        let prog = compiled(&b.source_scaled(b.test_scale));
        for fusion in [Fusion::Off, Fusion::Full] {
            let linked = link(&prog, fusion);
            let tcode = translate(linked.clone());
            assert_eq!(
                tcode.ops.len(),
                linked.code.len(),
                "{}: stream length",
                b.name
            );
            for pc in 0..tcode.ops.len() {
                assert_eq!(
                    tcode.rebuild(pc),
                    linked.code[pc],
                    "{} ({fusion:?}): rebuild at pc {pc}",
                    b.name
                );
            }
            // The charges must cover every source instruction exactly —
            // this is what keeps fuel and the GC schedule bit-identical
            // with the oracle's one-per-instruction count.
            assert_eq!(
                tcode.ops.iter().map(|op| op.cost()).sum::<u64>(),
                prog.code.len() as u64,
                "{} ({fusion:?}): charges vs source length",
                b.name
            );
        }
    }
}

#[test]
fn both_dispatch_modes_render_the_same_mnemonic_stream() {
    for b in programs::all() {
        let prog = compiled(&b.source_scaled(b.test_scale));
        for fusion in [Fusion::Off, Fusion::Full] {
            let linked_render = disasm::disassemble_linked(&prog, fusion);
            let threaded_render = disasm::disassemble_threaded(&prog, fusion);
            // Identical apart from the "; linked:" / "; threaded:" header.
            let body = |s: &str| s.split_once('\n').unwrap().1.to_string();
            assert_eq!(
                body(&linked_render),
                body(&threaded_render),
                "{} ({fusion:?}): dispatch modes disagree on the rendered stream",
                b.name
            );
        }
    }
}

#[test]
fn profiled_superinstructions_appear_and_disassemble() {
    // The profile-selected superinstructions should fire on real
    // benchmark code (that is what justified them) and render under
    // their mnemonics.
    let mut seen = std::collections::BTreeSet::new();
    for b in programs::all() {
        let prog = compiled(&b.source_scaled(b.test_scale));
        let full = disasm::disassemble_threaded(&prog, Fusion::Full);
        // The leading space avoids prefix collisions (`LoadLoadPrimJump`
        // contains `LoadPrimJump`); disasm renders "  <pc>  <variant> {".
        const PROFILED: [&str; 14] = [
            " StoreLoadSelect {",
            " LoadPrimJump {",
            " SelectConstPrim {",
            " StoreLoad {",
            " LoadLoad {",
            " PrimJump {",
            " SelectStore {",
            " LoadStore {",
            " LoadSwitchCon {",
            " GcCheckLoad {",
            " RegHandleRegHandle {",
            " SelectStoreLoad {",
            " GcCheckLoadSwitchCon {",
            " RegHandleRegHandleLoad {",
        ];
        for mn in PROFILED {
            if full.contains(mn) {
                seen.insert(mn);
            }
        }
    }
    // SelectConstPrim fired only ~2.5k times across the suite, so it need
    // not appear at test scale; the data-hot rest must. `SelectStore` is
    // now almost always swallowed by the longer `SelectStoreLoad`,
    // so it is exempt too.
    for mn in [
        " StoreLoadSelect {",
        " LoadPrimJump {",
        " StoreLoad {",
        " LoadLoad {",
        " PrimJump {",
        " LoadStore {",
        " LoadSwitchCon {",
        " GcCheckLoad {",
        " RegHandleRegHandle {",
        " SelectStoreLoad {",
        " GcCheckLoadSwitchCon {",
        " RegHandleRegHandleLoad {",
    ] {
        assert!(seen.contains(mn), "{mn} never fused on any benchmark");
    }
}
