//! Fusion selection over the whole corpus: runs every benchmark of the
//! paper's Fig. 3 at paper scale in all five execution modes, unfused, in
//! the VM's fusion counting mode (dispatches per pc), and prints the rows
//! [`kit_bench::fusion_select`] chooses by the dispatches they save, as a
//! `FUSION_CANDIDATES` table for `crates/kam/src/fusion_table.rs`, with
//! the corpus's dispatches unfused, under the committed table and under
//! the selection. The runs are shared out over all cores.
//!
//! This tool holds no clock: every time, rate and pause in this
//! repository is read by the repo benchmark (`benchmark/run.sh`, names in
//! `BENCHMARK.json`). The counts of every (program, mode) cell are the
//! `counts` table (`bench_output/counts.txt`).
//!
//! Usage: `cargo run -p kit-bench --release --bin bench-summary --
//!         --profile-fusion | --check-fusion`
//!
//! `--profile-fusion` prints the selection. `--check-fusion` prints it
//! too, and exits 1 if it is not the committed table's row set, or if a
//! committed row is dispatched nowhere. Anything else on the command
//! line exits 2 with the usage line.

use kit::{Compiler, Fusion, KamOp as Op, Mode};
use kit_bench::fusion_select::{row_name, Corpus};
use kit_bench::programs::{all, Benchmark};
use kit_bench::tables::sharded;

/// Prints the usage line and exits with status 2.
fn usage(problem: &str) -> ! {
    eprintln!(
        "bench-summary: {problem}\n\
         usage: bench-summary --profile-fusion | --check-fusion"
    );
    std::process::exit(2);
}

/// The command line, checked: `Ok(true)` for `--check-fusion`,
/// `Ok(false)` for `--profile-fusion`.
fn parse_args(argv: &[String]) -> Result<bool, String> {
    const FLAGS: [&str; 2] = ["--profile-fusion", "--check-fusion"];
    if let Some(other) = argv.iter().find(|a| !FLAGS.contains(&a.as_str())) {
        return Err(format!("unknown argument {other:?}"));
    }
    match argv {
        [flag] => Ok(flag == FLAGS[1]),
        _ => Err("give one of --profile-fusion, --check-fusion".to_string()),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let check = parse_args(&argv).unwrap_or_else(|problem| usage(&problem));
    let cells: Vec<(Benchmark, Mode)> = all()
        .into_iter()
        .flat_map(|b| Mode::ALL_WITH_BASELINE.map(|m| (b, m)))
        .collect();
    if !profile_fusion(&profile_corpus(&cells), check) {
        std::process::exit(1);
    }
}

/// Runs the cells unfused in the VM's counting mode, each program at its
/// default scale; the straight-line runs of their streams with the
/// dispatches each pc took.
fn profile_corpus(cells: &[(Benchmark, Mode)]) -> Corpus {
    let profiled = sharded(cells, |&(b, mode)| {
        let fail = |e: kit::Error| -> ! { panic!("{} [{mode}]: {e}", b.name) };
        let src = b.source_scaled(b.default_scale);
        let compiler = Compiler::new(mode)
            .with_fusion(Fusion::Off)
            .with_fusion_profile();
        let prog = compiler.compile_source(&src).unwrap_or_else(|e| fail(e));
        let out = compiler.run_program(&prog).unwrap_or_else(|e| fail(e));
        let prof = out
            .fusion_profile
            .expect("the counting mode returns a profile");
        eprintln!(
            "{:<10} {:<5} profiled ({} dispatches)",
            b.name,
            mode.suffix(),
            prof.dispatches()
        );
        (prog, prof.counts)
    });
    let mut corpus = Corpus::default();
    for (prog, counts) in &profiled {
        corpus.add(&prog.code, counts);
    }
    corpus
}

/// Prints the selected table and the corpus's dispatches under it and
/// under the committed one. With `check`, returns whether the committed
/// table is the selection and every committed row is dispatched.
fn profile_fusion(corpus: &Corpus, check: bool) -> bool {
    let selected = corpus.select();
    let rows: Vec<&[Op]> = selected.iter().map(|r| &r.seq[..]).collect();
    let now = kit_kam::fusion_table::rows();
    let unfused = corpus.dispatches(&[]);
    let ppm = |n: u64| (u128::from(n) * 1_000_000 / u128::from(unfused.max(1))) as u64;
    println!("dispatches, each profiled run weighed alike, per million unfused:");
    for (what, rows) in [("committed table", &now), ("selection", &rows)] {
        println!("{:>8}  {what}", ppm(corpus.dispatches(rows)));
    }
    println!("\n== selected FUSION_CANDIDATES (paste into crates/kam/src/fusion_table.rs) ==");
    println!("pub const FUSION_CANDIDATES: &[Pattern] = &[");
    for r in &selected {
        let seq: Vec<&str> = r.seq.iter().map(|op| op.mnemonic()).collect();
        let (name, saves) = (row_name(&r.seq), ppm(r.saves));
        println!("    row(&[{}], {name}, {saves}),", seq.join(", "));
    }
    println!("];");
    if !check {
        return true;
    }
    let mut ok = true;
    let (mut want, mut have) = (rows.clone(), now.clone());
    want.sort();
    have.sort();
    if want != have {
        let names = |a: &[&[Op]], b: &[&[Op]]| {
            let only: Vec<String> = a
                .iter()
                .filter(|s| !b.contains(s))
                .map(|s| row_name(s))
                .collect();
            only.join(", ")
        };
        eprintln!(
            "check-fusion: the committed table is not the selection: \
             committed only [{}], selected only [{}]",
            names(&have, &want),
            names(&want, &have)
        );
        ok = false;
    }
    for (seq, n) in now.iter().zip(corpus.fired(&now)) {
        if n == 0 {
            eprintln!("check-fusion: {} is dispatched nowhere", row_name(seq));
            ok = false;
        }
    }
    if ok {
        eprintln!(
            "check-fusion: the committed table is the selection ({} rows)",
            now.len()
        );
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_two_fusion_flags_are_taken() {
        let argv =
            |line: &str| -> Vec<String> { line.split_whitespace().map(str::to_string).collect() };
        assert_eq!(parse_args(&argv("--profile-fusion")), Ok(false));
        assert_eq!(parse_args(&argv("--check-fusion")), Ok(true));
        for (line, problem) in [
            ("", "give one of"),
            ("--check-fusion --profile-fusion", "give one of"),
            ("--profile-fusion --full", "unknown argument \"--full\""),
            ("--check-fusion --only fib", "unknown argument \"--only\""),
            ("stray", "unknown argument \"stray\""),
        ] {
            let err = parse_args(&argv(line)).unwrap_err();
            assert!(err.contains(problem), "`{line}`: {err}");
        }
    }
}
