//! Compile-output identity: what the compiler emits is pinned by digests
//! (`tests/golden/compile_digests.txt`), so a change that is meant to make
//! compilation faster — PR 12's linear region annotation, PR 13's engine
//! deletion — can show that it changed nothing else.
//!
//! Every corpus program in every mode, and 200 full-surface generated
//! programs in `r`/`gt`/`rgt`, must disassemble byte for byte to the
//! recorded bytecode, and the region-annotated program must print the same
//! up to a bijective renaming of region variables (the total number of
//! region variables is allowed to shrink: regions that never occur in the
//! program consume no dense numbers).
//!
//! The file was last re-recorded by PR 17, which *meant* to change the
//! bytecode (curried `fix`-bound functions are uncurried; formal regions
//! are no longer global regions) and the generator (a curried function
//! kind, so all 600 generated rows are other programs). The transition
//! was checked before blessing and is recorded in EXPERIMENTS.md "PR 17":
//! 59 of the 110 corpus rows changed, `code_len` is smaller or equal on
//! every one of them, and result and output are unchanged on all 110;
//! with the *old* generator the new compiler changes all 600 generated
//! rows and shortens every one.
//!
//! PR 21 re-recorded it again for operand text only: region formals took
//! local slots `1..=nf` (so a region-polymorphic function's parameter
//! slots moved up by `nf`, and `RegSlot::Formal` names the slot) and
//! `EnterViaPair` gained its argument count. All 710 bytecode digests
//! changed; the `code_len` and region-program columns are identical on
//! every row, and results, outputs, instruction totals and the fused
//! opcode stream are unchanged on all 110 corpus and 600 generated rows
//! (EXPERIMENTS.md "PR 21").
//!
//! PR 23 re-recorded it for the bytecode column only: the compiler binds
//! its own labels, so branch operands print as pcs, a known call as
//! `Call { fun, target, .. }` and a handler as `PushHandler { target }`,
//! and entry markers come from `FunInfo::entry` (a stub gets none). All
//! 710 bytecode digests changed; the `code_len` and region-program
//! columns are identical on every row, and the instruction text at every
//! pc is byte-identical to the parent's linked listing (EXPERIMENTS.md
//! "PR 23"). Every row also checks that the labels are bound
//! (`assert_labels_bound`).
//!
//! It was last re-recorded for the region-program column only, when the
//! prelude came to be lowered once, before any program (so its lowering
//! variables are numbered first), and a one-row match came to bind a
//! variable pattern at a tuple component or constructor argument directly
//! instead of through a temporary. Variables print with their ids, so all
//! 710 region digests changed; the bytecode and `code_len` columns are
//! identical on all 710 rows (EXPERIMENTS.md, "Lowering the prelude once").
//!
//! The 600 generated rows were re-recorded once more when the generator
//! gained a builder that escapes as a value and is entered through its
//! closure stub (DESIGN.md §6h): the drawn programs changed, and the 110
//! corpus rows are identical (EXPERIMENTS.md, "Every debug build catches
//! dangling reads").
//!
//! The bytecode and `code_len` columns were re-recorded when the roots
//! came to be read from a frame map: local slots are taken in stack order
//! and given back when their scope exits, the slot clears at scope exits
//! and handler arms are gone, and the listing prints each non-tail call's
//! entry (`live=N`), so these digests pin the map. All 710 bytecode
//! digests changed; the region column is identical on all 710 rows, and
//! `code_len` is smaller on 670 and equal on the other 40 (727 313 →
//! 648 371 instructions in all; EXPERIMENTS.md, "Roots from a frame map").
//!
//! The bytecode column was re-recorded when the compiler came to emit the
//! stream the engine runs (`Op`/`Args`) instead of an instruction enum
//! translated one to one, so the listing is that stream's:
//! `Mnemonic field=value …` per instruction, then the side-table row it
//! reads (string literal, switch discriminant scheme, arms and default,
//! `letregion` names), entry markers from `ThreadedCode::entry_pc`. 700
//! bytecode digests changed (the other 10 programs read no side table);
//! the `code_len` and region columns are identical on all 710 rows. At
//! both fusion levels, on all 710 rows, the listing is byte-identical to
//! the parent's rendering of the translated stream with each side-table
//! instruction's row taken from the enum value it was translated from and
//! each non-tail call's `live=N` appended (EXPERIMENTS.md, "One
//! bytecode").
//!
//! Regenerate (only on a commit whose output is the reference):
//! `cargo test --release -p kit-bench --test compile_identity -- --ignored bless`

use kit::{Compiler, Mode};
use kit_bench::programs::{self, SplitMix64};
use kit_bench::randgen::{self, Surface};
use kit_kam::threaded::{Field, Op, SwitchRows};
use kit_kam::{Fusion, Program};
use kit_lambda::opt::OptOptions;
use kit_region::RegionOptions;
use std::collections::HashMap;
use std::fmt::Write as _;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/compile_digests.txt"
);

const GENERATED: u64 = 200;
const GENERATED_SEED: u64 = 0x5EED_1200;
const GENERATED_MODES: [Mode; 3] = [Mode::R, Mode::Gt, Mode::Rgt];

/// `Compiler::new(mode)`'s region options (the mapping is private to `kit`).
fn region_options(mode: Mode) -> RegionOptions {
    match mode {
        Mode::R | Mode::Rt => RegionOptions::regions_only(),
        Mode::Gt => RegionOptions::disabled(),
        Mode::Rgt => RegionOptions::with_gc(),
        Mode::Baseline => RegionOptions::baseline(),
    }
}

/// FNV-1a, spelled out so the digests do not depend on the standard
/// library's unspecified `DefaultHasher`.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Renames every region token `r<digits>` to `r<k>`, `k` the rank of its
/// first occurrence: two printed programs are equal up to a bijective
/// renaming of region variables exactly when their canonical forms are
/// equal. Variables print as `name_<id>`, so a token followed by `_` (or
/// glued to an identifier) is not a region.
fn canonical_regions(s: &str) -> String {
    let ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_' || b == b'\'';
    let bytes = s.as_bytes();
    let mut out = String::with_capacity(s.len());
    let mut rank: HashMap<&str, usize> = HashMap::new();
    let mut copied = 0;
    let mut i = 0;
    while i < bytes.len() {
        let starts = bytes[i] == b'r' && (i == 0 || !ident(bytes[i - 1]));
        let mut end = i + 1;
        while starts && end < bytes.len() && bytes[end].is_ascii_digit() {
            end += 1;
        }
        if starts && end > i + 1 && (end == bytes.len() || !ident(bytes[end])) {
            let next = rank.len();
            let k = *rank.entry(&s[i + 1..end]).or_insert(next);
            out.push_str(&s[copied..=i]);
            let _ = write!(out, "{k}");
            copied = end;
            i = end;
        } else {
            i += 1;
        }
    }
    out.push_str(&s[copied..]);
    out
}

/// The compiler bound every label it emitted: each pc operand — the `t`
/// of every opcode that reads one, every switch-table target — is inside
/// the stream, a known call enters its callee at the callee's entry, and
/// a label's pc is in the stream or `u32::MAX` (unbound).
fn assert_labels_bound(prog: &Program, mode: Mode) {
    let code = &prog.code;
    let n = code.len() as u32;
    for (pc, (op, x)) in code.ops.iter().zip(&code.args).enumerate() {
        if op.fields().contains(&Field::T) {
            assert!(x.t < n, "{mode}: pc {pc}: {op:?} {x:?} of {n}");
        }
        if *op == Op::Call {
            let entry = code.entry_pc.get(x.a as usize);
            assert_eq!(entry, Some(&x.t), "{mode}: pc {pc}: {op:?} {x:?}");
        }
    }
    fn targets<K>((arms, default): &SwitchRows<K>) -> Vec<u32> {
        arms.iter().map(|a| a.1).chain([*default]).collect()
    }
    let switches = (code.con_switches.iter())
        .flat_map(|(_, rows)| targets(rows))
        .chain(code.int_switches.iter().flat_map(targets))
        .chain(code.str_switches.iter().flat_map(targets))
        .chain(code.exn_switches.iter().flat_map(targets));
    for t in switches {
        assert!(t < n, "{mode}: switch target {t} of {n}");
    }
    for (label, &pc) in code.pc_of_label.iter().enumerate() {
        assert!(
            pc == u32::MAX || pc < n,
            "{mode}: label {label} at {pc} of {n}"
        );
    }
}

/// One golden row: bytecode digest, code length, region-program digest.
/// The region program must also pass `kit_region::check`.
fn digest(src: &str, mode: Mode) -> String {
    let prog = Compiler::new(mode)
        .compile_source(src)
        .unwrap_or_else(|e| panic!("{mode}: {e}"));
    assert_labels_bound(&prog, mode);
    let mut lprog = kit_typing::compile_str(src).expect("compiled above");
    kit_lambda::opt::optimize(&mut lprog, &OptOptions::default());
    let rprog = kit_region::infer(&lprog, region_options(mode));
    kit_region::check(&rprog).unwrap_or_else(|e| panic!("{mode}: {e}"));
    format!(
        "{:016x} {} {:016x}",
        fnv1a(&kit_kam::disasm::disassemble(&prog, Fusion::Off)),
        prog.code.len(),
        fnv1a(&canonical_regions(&kit_region::pretty::program_to_string(
            &rprog
        ))),
    )
}

fn current_digests() -> String {
    let mut out = String::new();
    for b in programs::all() {
        for mode in Mode::ALL_WITH_BASELINE {
            let _ = writeln!(out, "{} {} {}", b.name, mode, digest(b.src, mode));
        }
    }
    for i in 0..GENERATED {
        let src = randgen::program(&mut SplitMix64::new(GENERATED_SEED + i), Surface::Full);
        for mode in GENERATED_MODES {
            let _ = writeln!(out, "generated:{i} {mode} {}", digest(&src, mode));
        }
    }
    out
}

#[test]
fn compile_output_matches_recorded_digests() {
    let golden = std::fs::read_to_string(GOLDEN).expect("golden digest file");
    let current = current_digests();
    let differing: Vec<String> = golden
        .lines()
        .zip(current.lines())
        .filter(|(g, c)| g != c)
        .map(|(g, c)| format!("  recorded {g}\n  now      {c}"))
        .collect();
    assert!(
        differing.is_empty(),
        "{} of {} digests differ (program mode bytecode code_len regions):\n{}",
        differing.len(),
        golden.lines().count(),
        differing[..differing.len().min(8)].join("\n")
    );
    assert_eq!(golden.lines().count(), current.lines().count());
}

#[test]
#[ignore = "rewrites the golden file; run only on the reference commit"]
fn bless() {
    std::fs::write(GOLDEN, current_digests()).expect("write golden digest file");
}

#[test]
fn canonical_form_is_renaming_invariant() {
    let a = "letregion r7:inf, r12:1 in f_3[r7,r12] at r40 (r1_9, \"r7\")";
    let b = "letregion r2:inf, r5:1 in f_3[r2,r5] at r3 (r1_9, \"r2\")";
    assert_eq!(canonical_regions(a), canonical_regions(b));
    assert_eq!(
        canonical_regions(a),
        "letregion r0:inf, r1:1 in f_3[r0,r1] at r2 (r1_9, \"r0\")"
    );
    // Not a bijection: two regions merged into one.
    assert_ne!(canonical_regions("r1 r2 r1"), canonical_regions("r1 r1 r1"));
}
