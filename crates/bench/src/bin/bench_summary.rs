//! Perf-trajectory snapshot: runs every benchmark of the paper's Fig. 3 in
//! all five execution modes and writes a machine-readable JSON summary
//! to the path given with `--out` (required: there is no default, so a run
//! can never overwrite a committed `BENCH_PR<n>.json` by accident).
//!
//! By default each (program, mode) cell is measured under both
//! interpreter configurations, interleaved sample-by-sample so host
//! throughput drift cancels out of the A/B comparison:
//!
//! * `match_off`     — the differential oracle: match-dispatch loop over
//!   the unfused stream
//! * `threaded_full` — the production engine: direct-threaded dispatch,
//!   full fusion table
//!
//! The deterministic counters (instructions, words allocated, #GC, bytes
//! copied) are bit-identical across runs, machines *and configurations* —
//! the driver asserts this, which is the dispatch-equivalence acceptance
//! criterion. `instructions_per_sec` is the wall-clock throughput of the
//! abstract machine (best of `--samples N` runs, default 3) and is the
//! number PRs optimizing the interpreter hot path are judged by.
//!
//! Usage: `cargo run -p kit-bench --release --bin bench-summary --
//!         --out PATH [--full] [--samples N] [--jobs N]
//!         [--only prog,prog,...] [--modes r,rt,...]
//!         [--dispatch match|threaded] [--fusion off|full]
//!         [--gc-compare] [--profile-fusion] [--check-counts BENCH.json]`
//!
//! The file starts with an `env` block the tool fills in itself — commit
//! (`git describe --always --dirty`: the short hash, marked when the
//! tree has uncommitted changes), `rustc -V`, core count, sample count
//! and the command line — so a row can be traced to what produced it.
//!
//! `--check-counts FILE` compares the deterministic counters of every
//! cell just measured with the cell of the same (program, mode, config,
//! scale) in an earlier `BENCH_PR<n>.json`, and exits 1 naming the first
//! cell and counter that differ (or if no cell is in common): the gate
//! for a PR that changes mechanism and claims the counts stayed put.
//!
//! `--only`/`--modes` restrict the sweep; `--dispatch`/`--fusion` replace
//! the two-way comparison with a single pinned configuration. `--jobs N`
//! shards (program, mode) cells across N worker threads — the interleaved
//! A/B stays intact because a cell never splits across shards.
//!
//! `--gc-compare` switches the comparison axis from dispatch engines to
//! *collector modes*: each (program, mode) cell runs under the
//! stop-the-world collector (`gc_serial`) and the sliced bounded-pause
//! collector (`gc_sliced`), both on the production engine. Every row
//! reports `gc_time_ns` and the pause quantiles (p50/p99/max from the
//! runtime's log2 pause histogram), taken as a coherent set from the
//! sample with the least collector time — the same best-of-N filter
//! throughput gets — so the JSON answers the acceptance question
//! directly: how far below the stop-the-world max pause the sliced p99
//! sits. Mutator-visible
//! counters (instructions, words allocated, the result) are asserted
//! identical across collector modes; the GC counters themselves differ
//! by design, since the schedule is mode-dependent. Modes default to
//! `rgt` (collector modes only matter when the collector runs).
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
//! instead (match dispatch, hence unfused, so base opcodes are visible;
//! prints to stdout, no `--out`),
//! aggregates dynamic pair/triple frequencies of fallthrough-adjacent
//! instructions, and prints the hot sequences plus a regenerated
//! `FUSION_CANDIDATES` table for `crates/kam/src/fusion_table.rs`.
//!
//! `--serve` switches to the multi-tenant server benchmark (DESIGN.md
//! §6i): an in-process `kit-serve` pool is driven at increasing
//! concurrency levels over the serve mix (`--mix`, default
//! [`kit_bench::serve_bench::DEFAULT_MIX`]) and the JSON (`--out`,
//! required here too) gets a `"serve"` array with requests/sec, p50/p99
//! latency, per-program counters and per-worker collector time. Each
//! point's per-program counters are asserted uniform across all
//! responses, and a final standalone check demands bit-identical
//! instruction totals and GC counters against single-threaded runs.
//! `--sessions N` pins a single concurrency level; `--workers N` sizes
//! the pool.

use kit::{Compiler, DispatchMode, Fusion, FusionProfile, KamOp as Op, Mode};
use kit_bench::programs::{all, Benchmark};
use kit_kam::fusion_table::{Opk, FUSION_CANDIDATES};
use kit_runtime::RtConfig;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One interpreter configuration under measurement. `gc_slice` selects
/// the collector mode (stop-the-world / sliced); the dispatch-engine
/// comparison leaves it at the stop-the-world default.
#[derive(Clone, Copy)]
struct Config {
    name: &'static str,
    dispatch: DispatchMode,
    fusion: Fusion,
    gc_slice: Option<u64>,
}

impl Config {
    const fn dispatch_cmp(name: &'static str, dispatch: DispatchMode, fusion: Fusion) -> Config {
        Config {
            name,
            dispatch,
            fusion,
            gc_slice: None,
        }
    }
}

const COMPARE: [Config; 2] = [
    Config::dispatch_cmp("match_off", DispatchMode::Match, Fusion::Off),
    Config::dispatch_cmp("threaded_full", DispatchMode::Threaded, Fusion::Full),
];

/// The collector-mode comparison (`--gc-compare`): stop-the-world vs the
/// sliced bounded-pause collector, both on the production engine.
const GC_COMPARE: [Config; 2] = [
    Config {
        name: "gc_serial",
        dispatch: DispatchMode::Threaded,
        fusion: Fusion::Full,
        gc_slice: None,
    },
    Config {
        name: "gc_sliced",
        dispatch: DispatchMode::Threaded,
        fusion: Fusion::Full,
        gc_slice: Some(4096),
    },
];

struct Row {
    program: String,
    mode: &'static str,
    config: &'static str,
    scale: i64,
    instructions: u64,
    instructions_per_sec: f64,
    words_allocated: u64,
    gc_count: u64,
    bytes_copied: u64,
    peak_pages: u64,
    peak_bytes: u64,
    gc_time_ns: u64,
    gc_pause_p50_ns: u64,
    gc_pause_p99_ns: u64,
    gc_pause_max_ns: u64,
    gc_slices: u64,
}

/// One (program, mode) work item: all configs run interleaved inside it.
struct Cell {
    bench: Benchmark,
    mode: Mode,
    scale: i64,
}

/// Prints the usage line and exits with status 2.
fn usage(problem: &str) -> ! {
    eprintln!(
        "bench-summary: {problem}\n\
         usage: bench-summary --out PATH [--full] [--samples N] [--jobs N] [--only p,..] \
         [--modes m,..] [--dispatch match|threaded] [--fusion off|full] [--gc-compare] \
         [--check-counts BENCH.json]\n\
         \x20      bench-summary --serve --out PATH [--workers N] [--sessions N] [--mix SPEC] \
         [--dispatch match|threaded]\n\
         \x20      bench-summary --profile-fusion [--only p,..] [--modes m,..]"
    );
    std::process::exit(2);
}

/// The `--out` path; both writing modes refuse to run without one.
fn required_out(args: &[String]) -> String {
    args.iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| usage("--out PATH is required (there is no default file)"))
}

fn parse_dispatch(s: &str) -> DispatchMode {
    kit_bench::parse_dispatch(s)
        .unwrap_or_else(|| usage(&format!("--dispatch {s}: expected match|threaded")))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let flag_val = |flag: &str| -> Option<&String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    if args.iter().any(|a| a == "--serve") {
        serve_summary(&args);
        return;
    }
    let samples = flag_val("--samples")
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(3)
        .max(1);
    let jobs = flag_val("--jobs")
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(1)
        .max(1);
    let csv_arg = |flag: &str| -> Option<Vec<String>> {
        flag_val(flag).map(|s| s.split(',').map(str::to_string).collect())
    };
    let only = csv_arg("--only");
    let gc_compare = args.iter().any(|a| a == "--gc-compare");
    // Collector modes only differ where the collector runs, so the GC
    // comparison defaults to the paper's combined mode.
    let modes = csv_arg("--modes").or_else(|| gc_compare.then(|| vec!["rgt".to_string()]));

    let dispatch = flag_val("--dispatch").map(|s| parse_dispatch(s));
    let fusion = flag_val("--fusion").map(|s| match s.as_str() {
        "off" => Fusion::Off,
        "full" => Fusion::Full,
        other => usage(&format!("--fusion {other}: expected off|full")),
    });

    let cells: Vec<Cell> = all()
        .into_iter()
        .filter(|b| only.as_ref().is_none_or(|o| o.iter().any(|n| n == b.name)))
        .flat_map(|b| {
            let scale = if full { b.default_scale } else { b.test_scale };
            Mode::ALL_WITH_BASELINE
                .into_iter()
                .filter(|m| {
                    modes
                        .as_ref()
                        .is_none_or(|ms| ms.iter().any(|s| s == m.suffix()))
                })
                .map(move |mode| Cell {
                    bench: b,
                    mode,
                    scale,
                })
                .collect::<Vec<_>>()
        })
        .collect();

    if args.iter().any(|a| a == "--profile-fusion") {
        profile_fusion(&cells);
        return;
    }
    let out_path = required_out(&args);

    // Pinning either axis collapses the comparison to one configuration.
    let configs: Vec<Config> = if gc_compare {
        GC_COMPARE.to_vec()
    } else if dispatch.is_some() || fusion.is_some() {
        vec![Config {
            name: "pinned",
            dispatch: dispatch.unwrap_or_default(),
            fusion: fusion.unwrap_or_default(),
            gc_slice: None,
        }]
    } else {
        COMPARE.to_vec()
    };

    let started = Instant::now();
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, Vec<Row>, Duration)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(cells.len().max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else { break };
                let t0 = Instant::now();
                let rows = run_cell(cell, &configs, samples, gc_compare);
                results.lock().unwrap().push((i, rows, t0.elapsed()));
            });
        }
    });

    let mut done = results.into_inner().unwrap();
    done.sort_by_key(|(i, ..)| *i);
    let serial: Duration = done.iter().map(|(_, _, d)| *d).sum();
    let rows: Vec<Row> = done.into_iter().flat_map(|(_, r, _)| r).collect();

    let mut json = format!(
        "{{\n  \"env\": {},\n  \"runs\": [\n",
        env_json(&args, samples)
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"program\": \"{}\", \"mode\": \"{}\", \"config\": \"{}\", \
             \"scale\": {}, \
             \"instructions\": {}, \"instructions_per_sec\": {:.0}, \
             \"words_allocated\": {}, \"gc_count\": {}, \"bytes_copied\": {}, \
             \"peak_pages\": {}, \"peak_bytes\": {}, \
             \"gc_time_ns\": {}, \"gc_pause_p50_ns\": {}, \"gc_pause_p99_ns\": {}, \
             \"gc_pause_max_ns\": {}, \"gc_slices\": {}}}",
            r.program,
            r.mode,
            r.config,
            r.scale,
            r.instructions,
            r.instructions_per_sec,
            r.words_allocated,
            r.gc_count,
            r.bytes_copied,
            r.peak_pages,
            r.peak_bytes,
            r.gc_time_ns,
            r.gc_pause_p50_ns,
            r.gc_pause_p99_ns,
            r.gc_pause_max_ns,
            r.gc_slices,
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    eprintln!("wrote {} rows to {out_path}", rows.len());
    if let Some(reference) = flag_val("--check-counts") {
        match check_counts(&rows, reference) {
            Ok(n) => eprintln!("check-counts: {n} cells equal to {reference}"),
            Err(e) => {
                eprintln!("check-counts: {e}");
                std::process::exit(1);
            }
        }
    }
    if jobs > 1 {
        eprintln!(
            "sharded {} cells over {jobs} threads: {:.1}s wall vs {:.1}s serial ({:.1}s saved)",
            cells.len(),
            started.elapsed().as_secs_f64(),
            serial.as_secs_f64(),
            (serial.saturating_sub(started.elapsed())).as_secs_f64(),
        );
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
fn env_json(args: &[String], samples: usize) -> String {
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    format!(
        "{{\"commit\": \"{}\", \"rustc\": \"{}\", \"nproc\": {}, \"samples\": {samples}, \
         \"command\": \"bench-summary {}\"}}",
        esc(&first_line_of("git", &["describe", "--always", "--dirty"])),
        esc(&first_line_of("rustc", &["-V"])),
        std::thread::available_parallelism().map_or(0, usize::from),
        esc(&args[1..].join(" ")),
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

/// Runs every configuration over one (program, mode) cell, interleaving the
/// sample rounds (config A sample 1, config B sample 1, ..., A 2, B 2, ...)
/// so slow host drift hits all configurations equally.
///
/// With `gc_compare`, the configurations differ in *collector mode*
/// rather than dispatch engine, so the bit-identical assertion narrows
/// to the mutator-visible counters plus the result — a sliced
/// collection finishing at a later safe point legitimately changes
/// `#GC` and the copied-word total, but never the program's answer.
/// The five GC columns of a row, `(gc_time_ns, p50, p99, max, slices)`,
/// taken together from one sample.
type GcCols = (u64, u64, u64, u64, u64);

fn run_cell(cell: &Cell, configs: &[Config], samples: usize, gc_compare: bool) -> Vec<Row> {
    let src = cell.bench.source_scaled(cell.scale);
    let compilers: Vec<Compiler> = configs
        .iter()
        .map(|c| {
            let mut compiler = Compiler::new(cell.mode)
                .with_dispatch(c.dispatch)
                .with_fusion(c.fusion);
            if let Some(budget) = c.gc_slice {
                compiler = compiler.with_config(RtConfig {
                    gc_slice_budget_words: Some(budget),
                    ..RtConfig::default()
                });
            }
            compiler
        })
        .collect();
    let prog = compilers[0]
        .compile_source(&src)
        .unwrap_or_else(|e| panic!("{} [{}]: {e}", cell.bench.name, cell.mode));
    let mut best: Vec<Option<kit::Outcome>> = (0..configs.len()).map(|_| None).collect();
    // GC timing gets the same best-of-N noise filter as throughput, from
    // its own winning sample: the fastest-wall run is not necessarily the
    // one with the least collector interference, and the five GC columns
    // must stay a coherent set from a single run.
    let mut best_gc: Vec<Option<GcCols>> = (0..configs.len()).map(|_| None).collect();
    for _ in 0..samples {
        for ((slot, gc_slot), compiler) in best.iter_mut().zip(&mut best_gc).zip(&compilers) {
            let out = compiler
                .run_program(&prog)
                .unwrap_or_else(|e| panic!("{} [{}]: {e}", cell.bench.name, cell.mode));
            if gc_slot.is_none_or(|(t, ..)| out.stats.gc_time_ns < t) {
                *gc_slot = Some((
                    out.stats.gc_time_ns,
                    out.stats.gc_pause_hist.quantile_ns(0.5).unwrap_or(0),
                    out.stats.gc_pause_hist.quantile_ns(0.99).unwrap_or(0),
                    out.stats.gc_pause_max_ns,
                    out.stats.gc_slices,
                ));
            }
            if slot.as_ref().is_none_or(|b| out.wall < b.wall) {
                *slot = Some(out);
            }
        }
    }
    let outs: Vec<kit::Outcome> = best.into_iter().map(Option::unwrap).collect();
    for (c, o) in configs.iter().zip(&outs).skip(1) {
        if gc_compare {
            // Collector equivalence: the mode may move the GC schedule
            // but never what the mutator computes.
            assert_eq!(
                (&o.result, o.instructions, o.stats.words_allocated),
                (
                    &outs[0].result,
                    outs[0].instructions,
                    outs[0].stats.words_allocated
                ),
                "{} [{}]: collector mode {} diverges from {}",
                cell.bench.name,
                cell.mode,
                c.name,
                configs[0].name,
            );
        } else {
            // Dispatch equivalence: the deterministic counters must not
            // depend on the dispatch engine or the fusion set.
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
                c.name,
                configs[0].name,
            );
        }
    }
    configs
        .iter()
        .zip(outs)
        .zip(best_gc)
        .map(|((c, out), gc)| {
            let page_bytes = 256u64 * 8; // RtConfig default: 2^8 words/page
            let (gc_time_ns, p50, p99, pause_max_ns, slices) = gc.unwrap();
            eprintln!(
                "{:<10} {:<5} {:<14} {:>12} instr {:>10.2} Minstr/s  #GC {:<4} \
                 gc {:>7.2}ms  p99 {:>9}ns",
                cell.bench.name,
                cell.mode.suffix(),
                c.name,
                out.instructions,
                out.instructions as f64 / out.wall.as_secs_f64() / 1e6,
                out.stats.gc_count,
                gc_time_ns as f64 / 1e6,
                p99,
            );
            Row {
                program: cell.bench.name.to_string(),
                mode: cell.mode.suffix(),
                config: c.name,
                scale: cell.scale,
                instructions: out.instructions,
                instructions_per_sec: out.instructions as f64 / out.wall.as_secs_f64(),
                words_allocated: out.stats.words_allocated,
                gc_count: out.stats.gc_count,
                bytes_copied: out.stats.gc_copied_words * 8,
                peak_pages: (out.stats.peak_bytes as u64).div_ceil(page_bytes),
                peak_bytes: out.stats.peak_bytes as u64,
                gc_time_ns,
                gc_pause_p50_ns: p50,
                gc_pause_p99_ns: p99,
                gc_pause_max_ns: pause_max_ns,
                gc_slices: slices,
            }
        })
        .collect()
}

/// The `--serve` mode: drives an in-process `kit-serve` pool at
/// increasing concurrency over the serve mix, then floods a deliberately
/// under-provisioned pool to record the overload columns (shed,
/// rate_limited, deadline_exceeded, queue_depth_p99), and writes the
/// `"serve"` rows to `--out`.
fn serve_summary(args: &[String]) {
    use kit_bench::serve_bench::{
        json_document, json_row, parse_mix, print_report, run_point, ServePoint, DEFAULT_MIX,
    };
    use kit_serve::server::{Server, ServerConfig};

    let flag_val = |flag: &str| -> Option<&String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let out_path = required_out(args);
    let workers = flag_val("--workers")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, usize::from))
        .max(1);
    let dispatch = flag_val("--dispatch").map_or(DispatchMode::default(), |s| parse_dispatch(s));
    let mix = parse_mix(
        flag_val("--mix").map_or(DEFAULT_MIX, String::as_str),
        Mode::Rgt,
        dispatch,
    )
    .unwrap_or_else(|e| panic!("--mix: {e}"));

    // Concurrency levels: the acceptance point (1k sessions) plus a 4k
    // point showing queueing behavior, unless --sessions pins one level.
    let points: Vec<ServePoint> = match flag_val("--sessions").and_then(|s| s.parse().ok()) {
        Some(sessions) => vec![point(sessions)],
        None => vec![point(1_000), point(4_000)],
    };

    // Headroom for the ordinary points: the queue bound stays out of the
    // way so these rows measure throughput, not shedding.
    let handle = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers,
            queue_cap: 16_384,
            ..ServerConfig::default()
        },
    )
    .expect("bind server")
    .spawn();
    let mut rows = Vec::with_capacity(points.len() + 1);
    for p in &points {
        let report = run_point(handle.addr(), p, &mix)
            .unwrap_or_else(|e| panic!("serve point {}: {e}", p.label));
        print_report(p, workers, &report);
        rows.push(json_row(p, workers, &report));
    }

    // The acceptance criterion: in-server counters bit-identical to
    // standalone single-threaded execution of the same programs.
    let checked = kit_serve::check_against_standalone(handle.addr(), &mix)
        .unwrap_or_else(|e| panic!("standalone check: {e}"));
    eprintln!(
        "standalone check: {} programs bit-identical to single-threaded runs",
        checked.len()
    );
    handle.shutdown();

    // The overload row: the same mix flooded at 4× the ordinary
    // concurrency into a deliberately tight queue, so the shed /
    // queue_depth_p99 columns show the admission layer working instead
    // of latency quietly collapsing.
    let flood_handle = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers,
            queue_cap: 256,
            ..ServerConfig::default()
        },
    )
    .expect("bind flood server")
    .spawn();
    let flood = ServePoint {
        label: "serve_flood".to_string(),
        sessions: 4_000,
        conns: 128,
        requests: 12_000,
    };
    let report = run_point(flood_handle.addr(), &flood, &mix)
        .unwrap_or_else(|e| panic!("serve point {}: {e}", flood.label));
    print_report(&flood, workers, &report);
    rows.push(json_row(&flood, workers, &report));
    let checked = kit_serve::check_against_standalone(flood_handle.addr(), &mix)
        .unwrap_or_else(|e| panic!("post-flood standalone check: {e}"));
    eprintln!(
        "post-flood check: {} programs bit-identical to single-threaded runs",
        checked.len()
    );
    flood_handle.shutdown();

    std::fs::write(&out_path, json_document(&rows))
        .unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    eprintln!("wrote {} serve rows to {out_path}", rows.len());
}

/// Standard shape of a serve load point: sessions spread over enough
/// connections to keep per-connection pipelines shallow, with enough
/// requests that the pool reaches steady state.
fn point(sessions: usize) -> kit_bench::serve_bench::ServePoint {
    kit_bench::serve_bench::ServePoint {
        label: format!("serve_{sessions}"),
        sessions,
        conns: (sessions / 16).clamp(1, 128),
        requests: (sessions * 3).max(6_000),
    }
}

/// The source-instruction kind a base opcode fuses as, if any.
fn opk_of(op: Op) -> Option<Opk> {
    Some(match op {
        Op::Load => Opk::Load,
        Op::Store => Opk::Store,
        Op::Pop => Opk::Pop,
        Op::PushConst => Opk::PushConst,
        Op::Select => Opk::Select,
        Op::Prim => Opk::Prim,
        Op::JumpIfFalse => Opk::JumpIfFalse,
        Op::SwitchCon => Opk::SwitchCon,
        Op::GcCheck => Opk::GcCheck,
        Op::RegHandle => Opk::RegHandle,
        _ => return None,
    })
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

    let fusible = |ops: &[Op]| ops.iter().all(|&o| opk_of(o).is_some());
    println!("\n== hot adjacent pairs ==");
    for (ops, n) in total.hot_pairs().into_iter().take(24) {
        println!(
            "{:>14}  {};{}{}",
            n,
            ops[0].mnemonic(),
            ops[1].mnemonic(),
            if fusible(&ops) { "  [fusible]" } else { "" }
        );
    }
    println!("\n== hot adjacent triples ==");
    for (ops, n) in total.hot_triples().into_iter().take(24) {
        println!(
            "{:>14}  {};{};{}{}",
            n,
            ops[0].mnemonic(),
            ops[1].mnemonic(),
            ops[2].mnemonic(),
            if fusible(&ops) { "  [fusible]" } else { "" }
        );
    }

    // Regenerate the candidate table: current patterns with fresh counts.
    let count_of = |seq: &[Opk]| -> (u64, bool) {
        // The matrices hold pair/triple counts; a 4-long pattern's count is
        // approximated (upper bound) by the rarer of its two triples.
        let pair = |a: Opk, b: Opk| {
            total
                .hot_pairs()
                .iter()
                .find(|(ops, _)| opk_of(ops[0]) == Some(a) && opk_of(ops[1]) == Some(b))
                .map_or(0, |(_, n)| *n)
        };
        let triple = |a: Opk, b: Opk, c: Opk| {
            total
                .hot_triples()
                .iter()
                .find(|(ops, _)| {
                    opk_of(ops[0]) == Some(a)
                        && opk_of(ops[1]) == Some(b)
                        && opk_of(ops[2]) == Some(c)
                })
                .map_or(0, |(_, n)| *n)
        };
        match seq {
            [a, b] => (pair(*a, *b), true),
            [a, b, c] => (triple(*a, *b, *c), true),
            [a, b, c, d] => (triple(*a, *b, *c).min(triple(*b, *c, *d)), false),
            _ => (0, false),
        }
    };
    println!("\n== regenerated FUSION_CANDIDATES (paste into crates/kam/src/fusion_table.rs) ==");
    println!("pub static FUSION_CANDIDATES: &[Pattern] = &[");
    for p in FUSION_CANDIDATES {
        let (n, exact) = count_of(p.seq);
        let seq: Vec<String> = p.seq.iter().map(|k| format!("Opk::{k:?}")).collect();
        println!("    Pattern {{");
        println!("        seq: &[{}],", seq.join(", "));
        println!("        out: FuseKind::{:?},", p.out);
        println!(
            "        dyn_count: {n},{}",
            if exact {
                ""
            } else {
                " // min of overlapping triples"
            }
        );
        println!("    }},");
    }
    println!("];");

    // Hot fusible sequences the table does not cover yet — candidates
    // for the next regeneration.
    println!("\n== uncovered fusible sequences (candidates) ==");
    let covered = |seq: &[Opk]| FUSION_CANDIDATES.iter().any(|p| p.seq == seq);
    let mut shown = 0;
    for (ops, n) in total.hot_triples() {
        let seq: Option<Vec<Opk>> = ops.iter().map(|&o| opk_of(o)).collect();
        if let Some(seq) = seq {
            if !covered(&seq) && shown < 12 {
                println!("{:>14}  {:?}", n, seq);
                shown += 1;
            }
        }
    }
    for (ops, n) in total.hot_pairs() {
        let seq: Option<Vec<Opk>> = ops.iter().map(|&o| opk_of(o)).collect();
        if let Some(seq) = seq {
            if !covered(&seq) && shown < 24 {
                println!("{:>14}  {:?}", n, seq);
                shown += 1;
            }
        }
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
            instructions_per_sec: 1.0,
            words_allocated: 40,
            gc_count: 0,
            bytes_copied: 0,
            peak_pages: 1,
            peak_bytes: 296,
            gc_time_ns: 0,
            gc_pause_p50_ns: 0,
            gc_pause_p99_ns: 0,
            gc_pause_max_ns: 0,
            gc_slices: 0,
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
