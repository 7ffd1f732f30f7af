//! Load generator for the `kit-serve` multi-tenant server.
//!
//! ```text
//! loadgen [--addr HOST:PORT]        # target a running server…
//!         [--workers N]             # …or spawn one in-process (default)
//!         [--sessions N]            # concurrent in-flight requests (default 1000)
//!         [--conns N]               # TCP connections (default 64)
//!         [--requests N]            # total requests (default 8×sessions)
//!         [--mix SPEC]              # name[:scale][:fuel=N][:pages=N][:deadline=MS][:tenant=ID],…
//!         [--mode r|rt|gt|rgt|smlnj]
//!         [--queue-cap N]           # in-process server admission bound
//!         [--rate RPS[:BURST]]      # in-process per-tenant token bucket
//!         [--deadline-ms N]         # in-process server default deadline
//!         [--check]                 # compare counters against standalone runs
//!         [--chaos]                 # run adversarial clients alongside the load
//!         [--chaos-secs N]          # chaos duration (default 3)
//! ```
//!
//! A correctness driver, not a stopwatch: it reports how many requests
//! were answered and how, with per-program counter aggregates (uniformity
//! across *executed* responses is enforced by the driver;
//! shed/rate-limited/deadline outcomes are tallied). Latency and
//! throughput are the repo benchmark's (`benchmark/run.sh`, workloads
//! `serve_hot` and `serve_miss`). `--check` additionally runs each mix
//! program once on a standalone, identically configured `Compiler` and
//! demands bit-identical instruction totals and GC counters.
//!
//! `--chaos` (in-process server only) throws slowloris writers,
//! mid-frame disconnects, malformed/oversized frames, stalled readers
//! and connection churn at the server *while* the healthy mix runs,
//! then proves availability with a fresh post-chaos burst and checks
//! the leak probes: the live-worker count and compile-cache size must
//! match their pre-chaos values, and open connections must settle to
//! zero.

use kit::Mode;
use kit_bench::chaos;
use kit_bench::serve_bench::{parse_mix, print_report, DEFAULT_MIX};
use kit_serve::server::{RateLimit, Server, ServerConfig};
use kit_serve::{run_load, LoadSpec};
use std::net::SocketAddr;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--addr HOST:PORT | --workers N] [--sessions N] [--conns N] \
         [--requests N] [--mix SPEC] [--mode M] [--queue-cap N] \
         [--rate RPS[:BURST]] [--deadline-ms N] [--check] [--chaos] [--chaos-secs N]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_val = |flag: &str| -> Option<&String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let has = |flag: &str| args.iter().any(|a| a == flag);
    for (i, a) in args.iter().enumerate() {
        let known = [
            "--addr",
            "--workers",
            "--sessions",
            "--conns",
            "--requests",
            "--mix",
            "--mode",
            "--queue-cap",
            "--rate",
            "--deadline-ms",
            "--check",
            "--chaos",
            "--chaos-secs",
        ];
        let takes_value = |f: &str| f != "--check" && f != "--chaos";
        if known.contains(&a.as_str()) {
            continue;
        }
        // Values of known value-taking flags are fine; anything else is a typo.
        let is_value = i > 0 && known.contains(&args[i - 1].as_str()) && takes_value(&args[i - 1]);
        if !is_value {
            eprintln!("loadgen: unknown argument {a:?}");
            usage();
        }
    }

    let parse_num = |flag: &str, default: usize| -> usize {
        flag_val(flag).map_or(default, |s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("loadgen: {flag} wants a number, got {s:?}");
                usage()
            })
        })
    };
    let sessions = parse_num("--sessions", 1000).max(1);
    let conns = parse_num("--conns", 64).max(1);
    let requests = parse_num("--requests", sessions.saturating_mul(8)).max(1);
    let mode = flag_val("--mode").map_or(Mode::Rgt, |s| {
        Mode::ALL_WITH_BASELINE
            .into_iter()
            .find(|m| m.suffix() == s)
            .unwrap_or_else(|| {
                eprintln!("loadgen: unknown mode {s:?}");
                usage()
            })
    });
    let mix_spec = flag_val("--mix").map_or(DEFAULT_MIX, String::as_str);
    let mix = parse_mix(mix_spec, mode).unwrap_or_else(|e| {
        eprintln!("loadgen: {e}");
        usage()
    });
    let chaos_mode = has("--chaos");

    // Either target a running server or host one in this process.
    let (addr, handle, workers): (SocketAddr, Option<kit_serve::ServerHandle>, usize) =
        match flag_val("--addr") {
            Some(a) => {
                if chaos_mode {
                    eprintln!("loadgen: --chaos needs the in-process server (its leak probes)");
                    usage();
                }
                let addr = a.parse().unwrap_or_else(|_| {
                    eprintln!("loadgen: bad --addr {a:?}");
                    usage()
                });
                (addr, None, 0)
            }
            None => {
                let workers = parse_num(
                    "--workers",
                    std::thread::available_parallelism().map_or(4, usize::from),
                )
                .max(1);
                let mut config = ServerConfig {
                    workers,
                    ..ServerConfig::default()
                };
                config.queue_cap = parse_num("--queue-cap", config.queue_cap).max(1);
                if let Some(rate) = flag_val("--rate") {
                    let (rps, burst) = match rate.split_once(':') {
                        Some((r, b)) => (r.parse(), b.parse()),
                        None => (rate.parse(), rate.parse()),
                    };
                    match (rps, burst) {
                        (Ok(rps), Ok(burst)) => {
                            config.rate_limit = Some(RateLimit { rps, burst });
                        }
                        _ => {
                            eprintln!("loadgen: --rate wants RPS[:BURST], got {rate:?}");
                            usage()
                        }
                    }
                }
                if flag_val("--deadline-ms").is_some() {
                    config.default_deadline_ms = Some(parse_num("--deadline-ms", 0) as u64);
                }
                if chaos_mode {
                    // Tight hygiene budgets so the adversaries are reaped
                    // within the smoke leg's lifetime.
                    config.idle_timeout = Duration::from_secs(2);
                    config.frame_timeout = Duration::from_millis(750);
                    config.write_timeout = Duration::from_secs(1);
                }
                let handle = Server::bind("127.0.0.1:0", config)
                    .unwrap_or_else(|e| {
                        eprintln!("loadgen: bind: {e}");
                        std::process::exit(1);
                    })
                    .spawn();
                (handle.addr(), Some(handle), workers)
            }
        };

    let spec = |sessions, conns, requests| LoadSpec {
        addr,
        requests,
        sessions,
        conns,
        mix: mix.clone(),
    };

    // Pre-chaos leak probes: warm the compile cache with one run of the
    // mix — plus the chaos victim program the adversaries submit — so
    // the cache size is at its steady state before the baseline is
    // recorded.
    let probes_before = handle.as_ref().filter(|_| chaos_mode).map(|h| {
        run_load(&spec(16, 4, mix.len().max(16))).unwrap_or_else(|e| {
            eprintln!("loadgen: warmup failed: {e}");
            std::process::exit(1);
        });
        chaos::prime(addr).unwrap_or_else(|e| {
            eprintln!("loadgen: cache prime failed: {e}");
            std::process::exit(1);
        });
        (h.live_workers(), h.cache_size())
    });

    let chaos_thread = chaos_mode.then(|| {
        let secs = parse_num("--chaos-secs", 3) as u64;
        std::thread::spawn(move || chaos::run_chaos(addr, Duration::from_secs(secs)))
    });

    let main_run = spec(sessions, conns, requests);
    let report = run_load(&main_run).unwrap_or_else(|e| {
        eprintln!("loadgen: {e}");
        std::process::exit(1);
    });
    print_report("loadgen", &main_run, workers, &report);

    if let Some(t) = chaos_thread {
        let inflicted = t.join().unwrap_or_else(|_| {
            eprintln!("loadgen: chaos thread panicked");
            std::process::exit(1);
        });
        eprintln!(
            "chaos: {} slowloris, {} mid-frame disconnects, {} malformed, \
             {} stalled readers, {} churn cycles",
            inflicted.slowloris,
            inflicted.mid_frame_disconnects,
            inflicted.malformed,
            inflicted.stalled_readers,
            inflicted.churned,
        );

        // Availability: a fresh burst after the abuse must answer
        // correctly (the run_load uniformity checks are the assertion).
        let burst = spec(64, 8, 256);
        let after = run_load(&burst).unwrap_or_else(|e| {
            eprintln!("loadgen: post-chaos burst failed: {e}");
            std::process::exit(1);
        });
        print_report("post_chaos", &burst, workers, &after);

        // Leak probes: same worker pool, same cache, connections gone.
        let h = handle.as_ref().expect("chaos mode hosts the server");
        let (workers_before, cache_before) = probes_before.expect("probed before chaos");
        let workers_after = h.live_workers();
        if workers_after != workers_before {
            eprintln!(
                "loadgen: worker leak: {workers_before} workers before chaos, \
                 {workers_after} after"
            );
            std::process::exit(1);
        }
        let cache_after = h.cache_size();
        if cache_after != cache_before {
            eprintln!(
                "loadgen: cache leak: {cache_before} entries before chaos, {cache_after} after"
            );
            std::process::exit(1);
        }
        // Chaos connections are reaped on their hygiene budgets; give
        // the slowest (idle timeout, 2s) a grace period to settle.
        let settle_deadline = std::time::Instant::now() + Duration::from_secs(10);
        while h.open_connections() > 0 && std::time::Instant::now() < settle_deadline {
            std::thread::sleep(Duration::from_millis(50));
        }
        let open = h.open_connections();
        if open > 0 {
            eprintln!("loadgen: connection leak: {open} connections still open after chaos");
            std::process::exit(1);
        }
        eprintln!(
            "chaos: no leaks ({workers_after} workers, {cache_after} cached programs, \
             0 open connections)"
        );
    }

    if has("--check") {
        let rows = kit_serve::check_against_standalone(addr, &mix).unwrap_or_else(|e| {
            eprintln!("loadgen: check failed: {e}");
            std::process::exit(1);
        });
        for row in &rows {
            eprintln!("check {:<22} {}", row.name, row.summary);
        }
        eprintln!(
            "check: all {} programs bit-identical to standalone",
            rows.len()
        );
    }

    if let Some(h) = handle {
        h.shutdown();
    }
}
