//! Tier-1 serve check: `kit-serve` behind the load driver the chaos,
//! flood and drain legs of `scripts/verify.sh` use, small enough for
//! `cargo test -q` (the whole file runs in about a third of a second in
//! a debug build; its budget is 10 s). 16 sessions over 4 connections
//! keep one worker saturated, so every request queues behind others, and:
//!
//! * every request is answered exactly once — [`run_load`] fails on a
//!   response whose id is not in flight and on a count that is short;
//! * what executed under load has the counters of a standalone
//!   [`Compiler`] run, including the run that breaches its fuel quota;
//! * a queue bound sheds with typed `Overloaded` and a wall-clock budget
//!   ends a run with typed `DeadlineExceeded`, and neither loses a
//!   request or changes what the admitted ones compute — with the worker
//!   held by a spinner before the load starts, so neither depends on how
//!   the scheduler interleaves the sessions.
//!
//! The full overload matrix is `crates/serve/tests/server.rs`.

use kit::{Compiler, DispatchMode, Mode};
use kit_bench::serve_bench::parse_mix;
use kit_serve::{
    run_load, Client, LoadProgram, LoadSpec, Server, ServerConfig, ServerHandle, Status,
};
use std::time::{Duration, Instant};

const MIX: &str = "fib:12,fib:12:fuel=1000";
/// Never returns: only a deadline stops it.
const SPIN: &str = "fun loop n = loop (n + 1)\nval it = loop 0";

fn one_worker(queue_cap: usize) -> ServerHandle {
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            queue_cap,
            ..ServerConfig::default()
        },
    )
    .expect("bind")
    .spawn()
}

fn load(handle: &ServerHandle, requests: usize, mix: Vec<LoadProgram>) -> kit_serve::LoadReport {
    run_load(&LoadSpec {
        addr: handle.addr(),
        requests,
        sessions: 16,
        conns: 4,
        mix,
    })
    .expect("every request is answered once and executed responses are uniform")
}

#[test]
fn sixteen_sessions_on_one_worker_match_standalone_runs() {
    let handle = one_worker(ServerConfig::default().queue_cap);
    let mix = parse_mix(MIX, Mode::Rgt, DispatchMode::default()).expect("mix");
    let report = load(&handle, 64, mix.clone());
    assert_eq!(report.requests, 64);
    assert_eq!(
        (report.shed, report.rate_limited, report.deadline_exceeded),
        (0, 0, 0),
        "nothing here is load-dependent"
    );

    let [fib, starved] = &report.per_program[..] else {
        panic!("one row per mix entry: {:?}", report.per_program);
    };
    assert_eq!((fib.requests, fib.executed), (32, 32));
    assert_eq!((starved.requests, starved.executed), (32, 32));

    let alone = Compiler::new(Mode::Rgt)
        .run_source(&mix[0].src)
        .expect("standalone fib");
    assert_eq!(fib.status, Status::Ok);
    assert_eq!(
        (
            fib.result.as_str(),
            fib.instructions,
            fib.gc_count,
            fib.gc_copied_words,
            fib.peak_bytes
        ),
        (
            alone.result.as_str(),
            alone.instructions,
            alone.stats.gc_count,
            alone.stats.gc_copied_words,
            alone.stats.peak_bytes as u64
        )
    );
    let out_of_fuel = Compiler::new(Mode::Rgt)
        .with_fuel(1000)
        .run_source(&mix[1].src)
        .expect_err("fib 12 needs more than 1000 instructions");
    assert_eq!(starved.status, Status::OutOfFuel);
    assert_eq!(starved.result, out_of_fuel.to_string());
    handle.shutdown();
}

#[test]
fn a_full_queue_sheds_and_a_deadline_cuts_off_without_losing_a_request() {
    const QUEUE_CAP: usize = 4;
    let handle = one_worker(QUEUE_CAP);
    let mut mix = parse_mix(MIX, Mode::Rgt, DispatchMode::default()).expect("mix");
    mix.push(LoadProgram {
        deadline_ms: Some(40),
        ..LoadProgram::plain("spin", Mode::Rgt, DispatchMode::default(), SPIN)
    });
    // One spinner first, on its own connection, and the load only once
    // the worker holds it (it compiled it, and nothing is queued): the
    // sixteen sessions then meet a busy worker and a full queue however
    // the scheduler orders them, and a deadline cuts off at least this
    // one even if every spinner in the load is shed.
    let addr = handle.addr();
    let first = std::thread::spawn(move || {
        Client::connect(addr)
            .and_then(|mut c| {
                c.call_as(
                    "",
                    Some(250),
                    Mode::Rgt,
                    DispatchMode::default(),
                    None,
                    None,
                    SPIN,
                )
            })
            .expect("the first spinner is answered")
    });
    let t0 = Instant::now();
    while handle.cache_size() == 0 || handle.queue_depth() != 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "the worker never took the spinner"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let report = load(&handle, 48, mix.clone());
    assert_eq!(
        first.join().expect("spinner thread").status,
        Status::DeadlineExceeded
    );

    assert_eq!(report.requests, 48, "shed or cut off, still answered");
    assert!(report.shed >= 1, "{report:?}");
    assert!(report.queue_depth_p99 as usize <= QUEUE_CAP, "{report:?}");
    let (shed, _, deadline_exceeded, ..) = handle.overload_stats();
    assert_eq!(
        (shed as usize, deadline_exceeded as usize),
        (report.shed, report.deadline_exceeded + 1),
        "the server's books match the wire, and the first spinner"
    );
    for p in &report.per_program {
        assert_eq!(
            p.executed + p.shed + p.deadline_exceeded,
            p.requests,
            "{p:?}"
        );
        assert_eq!(p.requests, 16, "{p:?}");
    }
    let spin = &report.per_program[2];
    assert_eq!(spin.executed, 0, "only its deadline stops it");

    // Overload never changes what an admitted request computes.
    let alone = Compiler::new(Mode::Rgt)
        .run_source(&mix[0].src)
        .expect("standalone fib");
    let fib = &report.per_program[0];
    if fib.executed > 0 {
        assert_eq!(
            (fib.status, fib.result.as_str(), fib.instructions),
            (Status::Ok, alone.result.as_str(), alone.instructions)
        );
    }
    handle.shutdown();
}
