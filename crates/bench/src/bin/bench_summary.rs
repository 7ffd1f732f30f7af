//! Count snapshot: runs every benchmark of the paper's Fig. 3 in all five
//! execution modes and writes the deterministic counters of each cell —
//! instructions, words allocated, #GC, bytes copied, peak pages/bytes —
//! as machine-readable JSON to the path given with `--out`
//! (there is no default, so a run can never overwrite a committed
//! `BENCH_PR<n>.json` by accident).
//!
//! This tool holds no clock. Every time, rate and pause in this
//! repository is read by the repo benchmark (`benchmark/run.sh`, names in
//! `BENCHMARK.json`), which alternates parent and change and reports
//! quartiles; the `env` block of every file written here says so under
//! `"times"`.
//!
//! Each (program, mode) cell runs once under both interpreter
//! configurations:
//!
//! * `threaded_off`  — the differential oracle: base handlers only, over
//!   the unfused stream
//! * `threaded_full` — the production engine: full fusion table
//!
//! The counters are bit-identical across runs, machines *and
//! configurations* — the driver asserts this, which is the
//! fusion-equivalence acceptance criterion. Cells are sharded over
//! `available_parallelism()` threads; with no timing there is nothing for
//! a neighbour to disturb.
//!
//! Usage: `cargo run -p kit-bench --release --bin bench-summary --
//!         [--out PATH] [--full] [--only prog,prog,...] [--modes r,rt,...]
//!         [--check-counts BENCH.json] | --profile-fusion`
//!
//! Anything else on the command line — an unknown flag, or a program or
//! mode name that does not exist — exits 2 with the usage line: a count
//! gate must not silently check less than it was asked to.
//!
//! The file starts with an `env` block the tool fills in itself — commit
//! (`git describe --always --dirty`: the short hash, marked when the
//! tree has uncommitted changes), `rustc -V`, core count, the command
//! line and the `times` pointer — so a row can be traced to what
//! produced it.
//!
//! `--check-counts FILE` compares the counters of every cell just run
//! with the cell of the same (program, mode, config, scale) in an earlier
//! `BENCH_PR<n>.json`, and exits 1 naming the first cell and counter that
//! differ (or if no cell is in common): the gate for a PR that changes
//! mechanism and claims the counts stayed put. With `--check-counts`,
//! `--out` is optional and nothing is written without it.
//!
//! A note on the `peak_pages`/`peak_bytes` columns: since PR 6 the heap
//! materializes pages lazily (DESIGN.md §6g/§6h), and these counters
//! measure **materialized backing only** — virgin pages granted by the
//! sizing policy but never touched are not counted. BENCH_PR4.json and
//! earlier predate that change, so their peak columns read higher than
//! later files on identical programs; the drift is the accounting
//! definition, not a memory regression.
//!
//! `--profile-fusion` runs the suite in the VM's fusion counting mode
//! instead (fusion off, so base opcodes are visible; prints to
//! stdout, no `--out`), aggregates dynamic pair/triple frequencies of
//! fallthrough-adjacent instructions, and prints the hot sequences, a
//! regenerated `FUSION_CANDIDATES` table for
//! `crates/kam/src/fusion_table.rs`, and the hot sequences of opcodes with
//! packing lanes that no row covers.

use kit::{Compiler, Fusion, FusionProfile, KamOp as Op, Mode};
use kit_bench::programs::{all, Benchmark};
use kit_kam::fusion_table::FUSION_CANDIDATES;
use kit_runtime::RtConfig;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The two interpreter configurations, oracle first.
const COMPARE: [(&str, Fusion); 2] = [
    ("threaded_off", Fusion::Off),
    ("threaded_full", Fusion::Full),
];

/// Where a reader of a BENCH file finds the times it does not hold.
const TIMES: &str = "none here: every time, rate and pause is read by benchmark/run.sh \
                     (metric names in BENCHMARK.json)";

struct Row {
    program: String,
    mode: &'static str,
    config: &'static str,
    scale: i64,
    instructions: u64,
    words_allocated: u64,
    gc_count: u64,
    bytes_copied: u64,
    peak_pages: u64,
    peak_bytes: u64,
}

/// One (program, mode) work item: all configs run inside it.
struct Cell {
    bench: Benchmark,
    mode: Mode,
    scale: i64,
}

/// Prints the usage line and exits with status 2.
fn usage(problem: &str) -> ! {
    eprintln!(
        "bench-summary: {problem}\n\
         usage: bench-summary [--out PATH] [--full] [--only p,..] [--modes m,..] \
         [--check-counts BENCH.json]   (one of --out, --check-counts is required)\n\
         \x20      bench-summary --profile-fusion [--full] [--only p,..] [--modes m,..]"
    );
    std::process::exit(2);
}

/// The command line, checked: every argument is a known flag or its value,
/// every program and mode named exists.
#[derive(Debug, Default)]
struct Args {
    out: Option<String>,
    full: bool,
    only: Option<Vec<String>>,
    modes: Option<Vec<String>>,
    profile_fusion: bool,
    check_counts: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} wants a value"))
        };
        let csv = |s: String| s.split(',').map(str::to_string).collect::<Vec<_>>();
        match flag.as_str() {
            "--out" => args.out = Some(value()?),
            "--full" => args.full = true,
            "--only" => args.only = Some(csv(value()?)),
            "--modes" => args.modes = Some(csv(value()?)),
            "--profile-fusion" => args.profile_fusion = true,
            "--check-counts" => args.check_counts = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let programs: Vec<&str> = all().iter().map(|b| b.name).collect();
    let modes = Mode::ALL_WITH_BASELINE.map(Mode::suffix);
    for (flag, asked, known) in [
        ("--only", &args.only, &programs[..]),
        ("--modes", &args.modes, &modes[..]),
    ] {
        for name in asked.iter().flatten() {
            if !known.contains(&name.as_str()) {
                return Err(format!(
                    "{flag} {name}: no such name (known: {})",
                    known.join(",")
                ));
            }
        }
    }
    if !args.profile_fusion && args.out.is_none() && args.check_counts.is_none() {
        return Err("--out PATH is required (there is no default file)".to_string());
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|problem| usage(&problem));
    let selected = |names: &Option<Vec<String>>, name: &str| {
        names.as_ref().is_none_or(|ns| ns.iter().any(|n| n == name))
    };

    let cells: Vec<Cell> = all()
        .into_iter()
        .filter(|b| selected(&args.only, b.name))
        .flat_map(|b| {
            let scale = if args.full {
                b.default_scale
            } else {
                b.test_scale
            };
            Mode::ALL_WITH_BASELINE
                .into_iter()
                .filter(|m| selected(&args.modes, m.suffix()))
                .map(move |mode| Cell {
                    bench: b,
                    mode,
                    scale,
                })
                .collect::<Vec<_>>()
        })
        .collect();

    if args.profile_fusion {
        profile_fusion(&cells);
        return;
    }

    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, Vec<Row>)>> = Mutex::new(Vec::new());
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(cells.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else { break };
                let rows = run_cell(cell);
                results
                    .lock()
                    .expect("a cell that panics has already failed the run")
                    .push((i, rows));
            });
        }
    });

    let mut done = results
        .into_inner()
        .expect("a cell that panics has already failed the run");
    done.sort_by_key(|(i, _)| *i);
    let rows: Vec<Row> = done.into_iter().flat_map(|(_, r)| r).collect();

    if let Some(out_path) = &args.out {
        let mut json = format!("{{\n  \"env\": {},\n  \"runs\": [\n", env_json(&argv));
        for (i, r) in rows.iter().enumerate() {
            let _ = write!(
                json,
                "    {{\"program\": \"{}\", \"mode\": \"{}\", \"config\": \"{}\", \
                 \"scale\": {}, \"instructions\": {}, \
                 \"words_allocated\": {}, \"gc_count\": {}, \"bytes_copied\": {}, \
                 \"peak_pages\": {}, \"peak_bytes\": {}}}",
                r.program,
                r.mode,
                r.config,
                r.scale,
                r.instructions,
                r.words_allocated,
                r.gc_count,
                r.bytes_copied,
                r.peak_pages,
                r.peak_bytes,
            );
            json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
        }
        json.push_str("  ]\n}\n");
        std::fs::write(out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
        eprintln!("wrote {} rows to {out_path}", rows.len());
    }
    if let Some(reference) = &args.check_counts {
        match check_counts(&rows, reference) {
            Ok(n) => eprintln!("check-counts: {n} cells equal to {reference}"),
            Err(e) => {
                eprintln!("check-counts: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// First line of a command's standard output, or `"unknown"`.
fn first_line_of(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `env` block: where, with what and how the rows were produced.
fn env_json(args: &[String]) -> String {
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    format!(
        "{{\"commit\": \"{}\", \"rustc\": \"{}\", \"nproc\": {}, \
         \"command\": \"bench-summary {}\", \"times\": \"{TIMES}\"}}",
        esc(&first_line_of("git", &["describe", "--always", "--dirty"])),
        esc(&first_line_of("rustc", &["-V"])),
        std::thread::available_parallelism().map_or(0, usize::from),
        esc(&args.join(" ")),
    )
}

/// The flat `"key": value` objects of a BENCH file's `"runs"` array, as
/// text (values unquoted). Reads what this tool and a JSON pretty-printer
/// write: run rows hold strings and numbers only, no nesting.
fn read_runs(text: &str) -> Result<Vec<Vec<(String, String)>>, String> {
    let at = text.find("\"runs\"").ok_or("no \"runs\" array")?;
    let body = &text[at..];
    let body = &body[body.find('[').ok_or("\"runs\" is not an array")? + 1..];
    let mut rows = Vec::new();
    let mut rest = body;
    loop {
        let close = rest.find(']').ok_or("unterminated \"runs\" array")?;
        let Some(open) = rest.find('{').filter(|&o| o < close) else {
            return Ok(rows);
        };
        let end = open + rest[open..].find('}').ok_or("unterminated run row")?;
        let row = rest[open + 1..end]
            .split(',')
            .map(|field| {
                let (k, v) = field
                    .split_once(':')
                    .ok_or_else(|| format!("run row field `{}`", field.trim()))?;
                let unquote = |s: &str| s.trim().trim_matches('"').to_string();
                Ok((unquote(k), unquote(v)))
            })
            .collect::<Result<Vec<_>, String>>()?;
        rows.push(row);
        rest = &rest[end + 1..];
    }
}

/// Holds `rows` to the cells of an earlier BENCH file; `Ok` is the number
/// of cells compared.
fn check_counts(rows: &[Row], reference: &str) -> Result<usize, String> {
    let text = std::fs::read_to_string(reference).map_err(|e| format!("{reference}: {e}"))?;
    let recorded = read_runs(&text).map_err(|e| format!("{reference}: {e}"))?;
    let get = |row: &'_ [(String, String)], k: &str| -> Option<String> {
        row.iter().find(|(f, _)| f == k).map(|(_, v)| v.clone())
    };
    let mut compared = 0;
    for r in rows {
        let key = [
            ("program", r.program.clone()),
            ("mode", r.mode.to_string()),
            ("config", r.config.to_string()),
            ("scale", r.scale.to_string()),
        ];
        let Some(old) = recorded
            .iter()
            .find(|row| key.iter().all(|(k, v)| get(row, k).as_ref() == Some(v)))
        else {
            continue;
        };
        compared += 1;
        for (counter, now) in [
            ("instructions", r.instructions),
            ("words_allocated", r.words_allocated),
            ("gc_count", r.gc_count),
            ("bytes_copied", r.bytes_copied),
        ] {
            let was = get(old, counter).ok_or(format!("{reference}: row without {counter}"))?;
            if was != now.to_string() {
                return Err(format!(
                    "{} [{}] {} @{}: {counter} is {now}, {reference} has {was}",
                    r.program, r.mode, r.config, r.scale
                ));
            }
        }
    }
    if compared == 0 {
        return Err(format!("no measured cell is in {reference}"));
    }
    Ok(compared)
}

/// Runs one (program, mode) cell once under both configurations and
/// asserts that the deterministic counters do not depend on the fusion
/// set.
fn run_cell(cell: &Cell) -> Vec<Row> {
    let src = cell.bench.source_scaled(cell.scale);
    let fail = |e: kit::Error| -> ! { panic!("{} [{}]: {e}", cell.bench.name, cell.mode) };
    let compilers = COMPARE.map(|(_, fusion)| Compiler::new(cell.mode).with_fusion(fusion));
    let prog = compilers[0]
        .compile_source(&src)
        .unwrap_or_else(|e| fail(e));
    let outs: Vec<kit::Outcome> = compilers
        .iter()
        .map(|compiler| compiler.run_program(&prog).unwrap_or_else(|e| fail(e)))
        .collect();
    for ((name, _), o) in COMPARE.iter().zip(&outs).skip(1) {
        assert_eq!(
            (
                o.instructions,
                o.stats.words_allocated,
                o.stats.gc_count,
                o.stats.gc_copied_words
            ),
            (
                outs[0].instructions,
                outs[0].stats.words_allocated,
                outs[0].stats.gc_count,
                outs[0].stats.gc_copied_words
            ),
            "{} [{}]: config {} diverges from {}",
            cell.bench.name,
            cell.mode,
            name,
            COMPARE[0].0,
        );
    }
    let page_bytes = (RtConfig::default().page_words() * std::mem::size_of::<u64>()) as u64;
    COMPARE
        .iter()
        .zip(outs)
        .map(|((name, _), out)| {
            eprintln!(
                "{:<10} {:<5} {:<14} {:>12} instr {:>11} words  #GC {:<4} {:>10} B copied",
                cell.bench.name,
                cell.mode.suffix(),
                name,
                out.instructions,
                out.stats.words_allocated,
                out.stats.gc_count,
                out.stats.gc_copied_words * 8,
            );
            Row {
                program: cell.bench.name.to_string(),
                mode: cell.mode.suffix(),
                config: name,
                scale: cell.scale,
                instructions: out.instructions,
                words_allocated: out.stats.words_allocated,
                gc_count: out.stats.gc_count,
                bytes_copied: out.stats.gc_copied_words * 8,
                peak_pages: (out.stats.peak_bytes as u64).div_ceil(page_bytes),
                peak_bytes: out.stats.peak_bytes as u64,
            }
        })
        .collect()
}

/// The count of `seq` among the hot sequences of its length.
fn count_of<const N: usize>(hot: &[([Op; N], u64)], seq: &[Op]) -> u64 {
    hot.iter()
        .find(|(ops, _)| ops[..] == *seq)
        .map_or(0, |(_, n)| *n)
}

/// Runs the cells in the VM's counting mode and prints the hot adjacent
/// sequences plus a regenerated `FUSION_CANDIDATES` table.
fn profile_fusion(cells: &[Cell]) {
    let mut total = Box::new(FusionProfile::default());
    for cell in cells {
        let src = cell.bench.source_scaled(cell.scale);
        let compiler = Compiler::new(cell.mode).with_fusion_profile();
        let prog = compiler
            .compile_source(&src)
            .unwrap_or_else(|e| panic!("{} [{}]: {e}", cell.bench.name, cell.mode));
        let out = compiler
            .run_program(&prog)
            .unwrap_or_else(|e| panic!("{} [{}]: {e}", cell.bench.name, cell.mode));
        let prof = out
            .fusion_profile
            .expect("counting mode must return a profile");
        total.merge(&prof);
        eprintln!(
            "{:<10} {:<5} profiled ({} instr)",
            cell.bench.name,
            cell.mode.suffix(),
            out.instructions
        );
    }

    let (pairs, triples) = (total.hot_pairs(), total.hot_triples());
    let line = |ops: &[Op], n: u64| {
        let names: Vec<&str> = ops.iter().map(|op| op.mnemonic()).collect();
        println!("{n:>14}  {}", names.join(";"));
    };
    println!("\n== hot adjacent pairs ==");
    for (ops, n) in pairs.iter().take(24) {
        line(ops, *n);
    }
    println!("\n== hot adjacent triples ==");
    for (ops, n) in triples.iter().take(24) {
        line(ops, *n);
    }

    // Regenerate the candidate table: current rows with fresh counts. The
    // matrices hold pair/triple counts; a 4-long row's count is bounded
    // above by the rarer of its two triples.
    let count = |seq: &[Op]| match seq.len() {
        2 => count_of(&pairs, seq),
        3 => count_of(&triples, seq),
        _ => count_of(&triples, &seq[..3]).min(count_of(&triples, &seq[1..])),
    };
    println!("\n== regenerated FUSION_CANDIDATES (paste into crates/kam/src/fusion_table.rs) ==");
    println!("pub const FUSION_CANDIDATES: &[Pattern] = &[");
    for p in FUSION_CANDIDATES {
        let seq: Vec<&str> = p.seq.iter().map(|op| op.mnemonic()).collect();
        let n = count(p.seq);
        println!("    row(&[{}], {:?}, {n}),", seq.join(", "), p.out);
    }
    println!("];");

    // Hot sequences of opcodes that have packing lanes and no row yet —
    // candidates for the next regeneration.
    println!("\n== uncovered fusible sequences (candidates) ==");
    let candidate = |ops: &[Op]| {
        ops.iter().all(|op| op.packs()) && !FUSION_CANDIDATES.iter().any(|p| p.seq == ops)
    };
    for (ops, n) in triples.iter().filter(|(ops, _)| candidate(ops)).take(12) {
        line(ops, *n);
    }
    for (ops, n) in pairs.iter().filter(|(ops, _)| candidate(ops)).take(12) {
        line(ops, *n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(instructions: u64) -> Row {
        Row {
            program: "fib".to_string(),
            mode: "r",
            config: "threaded_full",
            scale: 24,
            instructions,
            words_allocated: 40,
            gc_count: 0,
            bytes_copied: 0,
            peak_pages: 1,
            peak_bytes: 296,
        }
    }

    #[test]
    fn unknown_flags_programs_and_modes_are_refused_not_skipped() {
        let argv =
            |line: &str| -> Vec<String> { line.split_whitespace().map(str::to_string).collect() };
        let gate = parse_args(&argv("--only dlx,fib --modes r,rgt --check-counts F")).unwrap();
        assert_eq!(gate.only, Some(vec!["dlx".to_string(), "fib".to_string()]));
        assert_eq!(gate.out, None, "a count check needs no output file");
        for (line, problem) in [
            (
                "--only dlx,fbi --check-counts F",
                "--only fbi: no such name",
            ),
            ("--modes r,rtg --out F", "--modes rtg: no such name"),
            ("--out F --samples 1", "unknown argument \"--samples\""),
            ("--out F stray", "unknown argument \"stray\""),
            ("--full --out", "--out wants a value"),
            ("--full", "--out PATH is required"),
        ] {
            let err = parse_args(&argv(line)).unwrap_err();
            assert!(err.contains(problem), "`{line}`: {err}");
        }
    }

    #[test]
    fn check_counts_reads_both_layouts_and_names_the_first_difference() {
        // One row as this tool writes it, one as a pretty-printer does.
        let text = "{\n \"env\": {\"nproc\": 2},\n \"runs\": [\n\
            {\"program\": \"tak\", \"mode\": \"r\", \"config\": \"threaded_full\", \"scale\": 7, \
             \"instructions\": 5, \"words_allocated\": 0, \"gc_count\": 0, \"bytes_copied\": 0},\n\
            {\n  \"program\": \"fib\",\n  \"mode\": \"r\",\n  \"config\": \"threaded_full\",\n  \
             \"scale\": 24,\n  \"instructions\": 1871,\n  \"words_allocated\": 40,\n  \
             \"gc_count\": 0,\n  \"bytes_copied\": 0\n }\n ],\n \"serve\": [{\"label\": \"x\"}]\n}\n";
        assert_eq!(read_runs(text).unwrap().len(), 2);
        let path = std::env::temp_dir().join(format!("check_counts_{}.json", std::process::id()));
        std::fs::write(&path, text).unwrap();
        let file = path.to_str().unwrap();
        assert_eq!(check_counts(&[row(1871)], file), Ok(1));
        let err = check_counts(&[row(1872)], file).unwrap_err();
        assert!(
            err.contains("fib [r] threaded_full @24: instructions is 1872") && err.contains("1871"),
            "{err}"
        );
        let mut elsewhere = row(1871);
        elsewhere.scale = 25;
        assert!(check_counts(&[elsewhere], file)
            .unwrap_err()
            .contains("no measured cell"));
        std::fs::remove_file(&path).unwrap();
    }
}
