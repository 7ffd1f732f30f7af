//! End-to-end server tests: mixed quota outcomes under concurrency,
//! bit-identical counters vs standalone execution, tenant isolation
//! (a neighbour breaching its quota must not perturb anyone else), and
//! the overload matrix — flood (bounded queue + typed `Overloaded`),
//! rate limiting, wall-clock deadlines (typed and repeatable), graceful
//! drain (zero dropped in-flight), and reader hygiene (idle/stall typed
//! closes, mid-frame EOF reaping).

use kit::{Compiler, DispatchMode, Mode};
use kit_serve::server::{RateLimit, Server, ServerConfig};
use kit_serve::wire::Status;
use kit_serve::{check_against_standalone, run_load, Client, LoadProgram, LoadSpec};
use std::time::Duration;

const FIB: &str = "fun fib n = if n < 2 then n else fib (n-1) + fib (n-2)\nval it = fib 13";
const BUILD: &str = "fun build 0 = nil | build n = n :: build (n-1)\nval it = length (build 40000)";
/// Runs forever (no result); only fuel or a deadline stops it.
const SPIN: &str = "fun loop n = loop (n + 1)\nval it = loop 0";

fn prog(name: &str, src: &str, fuel: Option<u64>, pages: Option<usize>) -> LoadProgram {
    LoadProgram {
        name: name.to_string(),
        mode: Mode::Rgt,
        fuel,
        max_heap_pages: pages,
        deadline_ms: None,
        tenant: String::new(),
        src: src.to_string(),
    }
}

fn start(workers: usize) -> kit_serve::ServerHandle {
    start_with(ServerConfig {
        workers,
        ..ServerConfig::default()
    })
}

fn start_with(config: ServerConfig) -> kit_serve::ServerHandle {
    Server::bind("127.0.0.1:0", config).expect("bind").spawn()
}

#[test]
fn mixed_outcomes_under_load_match_standalone() {
    let handle = start(4);
    let mix = vec![
        prog("fib", FIB, None, None),
        prog("fib-fuel", FIB, Some(1_000), None),
        prog("build-quota", BUILD, None, Some(8)),
    ];
    let report = run_load(&LoadSpec {
        addr: handle.addr(),
        requests: 96,
        sessions: 24,
        conns: 6,
        mix: mix.clone(),
    })
    .expect("load run");

    assert_eq!(report.requests, 96);
    // Round-robin over three programs, nothing load-dependent: each was
    // asked 32 times and executed 32 times.
    for p in &report.per_program {
        assert_eq!((p.requests, p.executed), (32, 32), "{}", p.name);
    }
    let by_name = |n: &str| {
        report
            .per_program
            .iter()
            .find(|p| p.name == n)
            .unwrap_or_else(|| panic!("missing program {n}"))
    };
    assert_eq!(by_name("fib").status, Status::Ok);
    assert_eq!(by_name("fib").result, "233");
    assert_eq!(by_name("fib-fuel").status, Status::OutOfFuel);
    assert_eq!(by_name("build-quota").status, Status::QuotaExceeded);
    // Nothing was shed: the queue bound is far above this load.
    assert_eq!(report.shed, 0);
    assert_eq!(report.rate_limited, 0);
    assert_eq!(report.deadline_exceeded, 0);
    // The load driver already enforced per-program uniformity; pin the
    // absolute values to a standalone run too.
    let rows = check_against_standalone(handle.addr(), &mix).expect("standalone check");
    assert_eq!(rows.len(), 3);

    // All responses came from the worker pool we configured.
    let stats = handle.worker_stats();
    assert_eq!(stats.len(), 4);
    let total: u64 = stats.iter().map(|(requests, _)| requests).sum();
    assert_eq!(total, 96 + 3); // load run + the check's three calls

    handle.shutdown();
}

#[test]
fn quota_breach_is_not_observable_by_concurrent_tenants() {
    // A well-behaved tenant's counters while a noisy neighbour breaches
    // its memory quota must equal the counters of the same program run
    // alone in a fresh process-equivalent (standalone Compiler).
    let handle = start(2);
    let mix = vec![
        prog("victim", FIB, None, None),
        prog("noisy", BUILD, None, Some(8)),
    ];
    let report = run_load(&LoadSpec {
        addr: handle.addr(),
        requests: 40,
        sessions: 8,
        conns: 4,
        mix,
    })
    .expect("load run");

    let victim = report
        .per_program
        .iter()
        .find(|p| p.name == "victim")
        .expect("victim row");
    let alone = Compiler::new(Mode::Rgt)
        .run_source(FIB)
        .expect("standalone run");
    assert_eq!(victim.status, Status::Ok);
    assert_eq!(victim.result, alone.result);
    assert_eq!(victim.instructions, alone.instructions);
    assert_eq!(victim.gc_count, alone.stats.gc_count);
    assert_eq!(victim.gc_copied_words, alone.stats.gc_copied_words);
    handle.shutdown();
}

#[test]
fn compile_errors_and_bad_frames_get_typed_statuses() {
    let handle = start(1);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let resp = client
        .call(
            Mode::Rgt,
            DispatchMode::Threaded,
            None,
            None,
            "val it = undefined_name",
        )
        .expect("call");
    assert_eq!(resp.status, Status::CompileError);
    assert!(!resp.result.is_empty());

    // A syntactically valid frame with an unknown mode byte gets a
    // BadRequest response before the connection closes.
    use std::io::Write;
    use std::net::TcpStream;
    let mut raw = TcpStream::connect(handle.addr()).expect("connect raw");
    let mut payload = kit_serve::wire::encode_request(&kit_serve::Request {
        req_id: 9,
        mode: Mode::R,
        dispatch: DispatchMode::Threaded,
        fuel: None,
        max_heap_pages: None,
        deadline_ms: None,
        tenant: String::new(),
        src: "val it = 1".to_string(),
    });
    let sound = payload.clone();
    payload[9] = 250; // clobber the mode byte
    kit_serve::wire::write_frame(&mut raw, &payload).expect("write frame");
    raw.flush().expect("flush");
    let resp = kit_serve::wire::read_response(&mut raw).expect("read response");
    assert_eq!(resp.status, Status::BadRequest);

    // A sound frame whose dispatch byte names no engine (0, 2 and 3 are
    // retired values) is refused under its own id with a constant
    // message, never reaches the compile cache, and leaves the
    // connection good for the next valid request.
    let cached = handle.cache_size();
    let mut raw = TcpStream::connect(handle.addr()).expect("connect raw");
    for b in [0, 2, 3, 255] {
        let mut payload = sound.clone();
        payload[10] = b;
        kit_serve::wire::write_frame(&mut raw, &payload).expect("write frame");
        let resp = kit_serve::wire::read_response(&mut raw).expect("read response");
        assert_eq!(resp.status, Status::BadRequest, "dispatch byte {b}");
        assert_eq!(resp.req_id, 9, "dispatch byte {b}");
        assert_eq!(resp.result, kit_serve::wire::UNKNOWN_DISPATCH);
    }
    assert_eq!(handle.cache_size(), cached);
    kit_serve::wire::write_frame(&mut raw, &sound).expect("write frame");
    let resp = kit_serve::wire::read_response(&mut raw).expect("read response");
    assert_eq!((resp.status, resp.req_id), (Status::Ok, 9));
    assert_eq!(resp.result, "1");
    assert_eq!(handle.cache_size(), cached + 1);
    handle.shutdown();
}

#[test]
fn a_program_nested_past_the_compilers_limits_is_refused_and_the_server_keeps_serving() {
    // 2 000 one-line declarations are 2 000 nested `let`s to every pass
    // behind the elaborator; 20 000 parentheses are 20 000 recursions of the
    // parser; 5 000 additions are a loop to the parser and 5 000 recursions
    // of the elaborator. Each overflowed a worker's stack, which
    // `catch_unwind` cannot see: the process died on a 46 KB request.
    // 1 000 declarations of a 16-wide tuple pattern are 17 000 levels, and
    // the refusal comes only after elaboration, so elaboration has to stay
    // linear in declarations for the worker to answer at once.
    let handle = start(1);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut vals = String::from("val x0 = 1\n");
    for i in 1..=2000 {
        vals.push_str(&format!("val x{i} = x{} + {i}\n", i - 1));
    }
    vals.push_str("val it = x2000\n");
    let parens = format!("val it = {}1{}", "(".repeat(20_000), ")".repeat(20_000));
    let sum = format!("val it = 1{}", " + 1".repeat(5_000));
    let mut wide = String::from("val a0_15 = 0\n");
    for i in 1..=1000 {
        let pat: Vec<String> = (0..16).map(|j| format!("a{i}_{j}")).collect();
        wide.push_str(&format!(
            "val ({}) = (a{}_15 + 1{})\n",
            pat.join(", "),
            i - 1,
            ", 0".repeat(15)
        ));
    }
    wide.push_str("val it = a1000_0\n");
    let mut call = |src: &str| {
        client
            .call(Mode::Rgt, DispatchMode::Threaded, None, None, src)
            .expect("call")
    };
    for src in [&vals, &parens, &sum, &wide] {
        let resp = call(src);
        assert_eq!(resp.status, Status::CompileError);
        assert!(resp.result.contains("levels deep"), "{}", resp.result);
    }
    let resp = call("val it = 1");
    assert_eq!((resp.status, resp.result.as_str()), (Status::Ok, "1"));
    assert_eq!(handle.live_workers(), 1);
    handle.shutdown();
}

#[test]
fn program_cache_shares_one_compilation() {
    // Same source and mode from many connections: every
    // response must be identical (same Arc'd PreparedProgram) and the
    // server must survive the burst with exactly one cached entry's
    // worth of behavior — counters uniform across all 64 sessions.
    let handle = start(4);
    let mix = vec![prog("fib", FIB, None, None)];
    let report = run_load(&LoadSpec {
        addr: handle.addr(),
        requests: 64,
        sessions: 64,
        conns: 8,
        mix,
    })
    .expect("load run");
    assert_eq!(report.per_program[0].requests, 64);
    assert_eq!(report.per_program[0].status, Status::Ok);
    assert_eq!(handle.cache_size(), 1);
    handle.shutdown();
}

#[test]
fn blocking_round_trip_is_not_held_up_by_delayed_acks() {
    // One small frame out, one small frame back, call by call: a frame
    // written as header-then-payload on a socket without TCP_NODELAY waits
    // for the peer's delayed ACK (40 ms on Linux) — once per direction.
    // The program itself runs in well under a millisecond.
    let handle = start(1);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let src = FIB.replace("fib 13", "fib 12");
    let mut call = || {
        let t0 = std::time::Instant::now();
        let resp = client
            .call(Mode::Rgt, DispatchMode::default(), None, None, &src)
            .expect("round trip");
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.result, "144");
        t0.elapsed()
    };
    call(); // compiles; the timed calls hit the cache
    let mut trips: Vec<Duration> = (0..20).map(|_| call()).collect();
    trips.sort();
    let median = trips[trips.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "median cached round trip {median:?}, all: {trips:?}"
    );
    assert_eq!(handle.cache_size(), 1);
    handle.shutdown();
}

// ------------------------------------------------------ overload matrix

#[test]
fn flood_is_shed_with_typed_overloaded_and_healthy_work_stays_exact() {
    // Two workers, a tiny queue, and far more in-flight work than either
    // can hold: the surplus must be shed with typed `Overloaded`
    // responses (carrying retry advice), the queue depth must respect
    // the bound, and the responses that *did* execute must still be
    // bit-identical per program — overload never corrupts results.
    let handle = start_with(ServerConfig {
        workers: 2,
        queue_cap: 4,
        ..ServerConfig::default()
    });
    let mix = vec![prog("fib", FIB, None, None)];
    let report = run_load(&LoadSpec {
        addr: handle.addr(),
        requests: 256,
        sessions: 64, // 64 in flight into a 2-worker, 4-slot queue
        conns: 8,
        mix: mix.clone(),
    })
    .expect("flood run");

    assert_eq!(report.requests, 256, "every request got a typed answer");
    let p = &report.per_program[0];
    assert!(p.shed > 0, "a 64-deep flood into queue_cap=4 must shed");
    assert!(p.executed > 0, "admitted work still executes");
    assert_eq!(p.executed + p.shed, 256);
    assert_eq!(p.status, Status::Ok, "executed responses are uniform Ok");
    assert_eq!(p.result, "233");
    // Reported depths are sampled at admission, so they are bounded by
    // the configured cap.
    assert!(
        report.queue_depth_p99 <= 4,
        "queue depth p99 {} exceeds the configured bound",
        report.queue_depth_p99
    );
    let (shed, .., queue_depth_max) = handle.overload_stats();
    assert_eq!(shed as usize, p.shed);
    // The watermark is a depth the queue held, so the cap bounds it too.
    assert!(
        queue_depth_max <= 4,
        "queue depth watermark {queue_depth_max} exceeds the configured bound"
    );

    // Retry advice is present on a directly-observed shed response.
    // (Flood again with a single pipelined burst and look at one.)
    let rows = check_against_standalone(handle.addr(), &mix).expect("post-flood check");
    assert_eq!(rows.len(), 1, "server answers exactly after the flood");
    handle.shutdown();
}

#[test]
fn tenant_share_shedding_keeps_the_polite_tenant_served() {
    // A hog floods; a polite tenant trickles. A full queue sheds the
    // hog's requests, so the polite tenant keeps executing (and its
    // executed responses stay uniform).
    let handle = start_with(ServerConfig {
        workers: 2,
        queue_cap: 8,
        ..ServerConfig::default()
    });
    let mut hog = prog("hog", FIB, None, None);
    hog.tenant = "hog".to_string();
    let mut polite = prog("polite", FIB, None, None);
    polite.tenant = "polite".to_string();
    // Mix weights: 7 hog entries to 1 polite, so the hog dominates the
    // queue and is the eviction target.
    let mut mix = vec![polite];
    for i in 0..7 {
        let mut h = hog.clone();
        h.name = format!("hog{i}");
        mix.push(h);
    }
    let report = run_load(&LoadSpec {
        addr: handle.addr(),
        requests: 512,
        sessions: 96,
        conns: 8,
        mix,
    })
    .expect("tenant flood");

    let polite_row = report
        .per_program
        .iter()
        .find(|p| p.name == "polite")
        .expect("polite row");
    let hog_shed: usize = report
        .per_program
        .iter()
        .filter(|p| p.name.starts_with("hog"))
        .map(|p| p.shed)
        .sum();
    assert!(hog_shed > 0, "the hog must absorb the shedding");
    assert!(
        polite_row.executed > 0,
        "the polite tenant must keep getting served"
    );
    if polite_row.executed > 0 {
        assert_eq!(polite_row.status, Status::Ok);
        assert_eq!(polite_row.result, "233");
    }
    handle.shutdown();
}

#[test]
fn rate_limited_tenant_gets_typed_refusals_with_retry_advice() {
    let handle = start_with(ServerConfig {
        workers: 2,
        rate_limit: Some(RateLimit {
            rps: 5.0,
            burst: 2.0,
        }),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut limited = 0;
    let mut ok = 0;
    for _ in 0..10 {
        let resp = client
            .call_as("greedy", None, Mode::Rgt, None, None, "val it = 1 + 2")
            .expect("call");
        match resp.status {
            Status::Ok => ok += 1,
            Status::RateLimited => {
                assert!(resp.retry_after_ms > 0, "refusals carry retry advice");
                assert_eq!(resp.worker, u32::MAX, "never reached a worker");
                limited += 1;
            }
            other => panic!("unexpected status {other:?}"),
        }
    }
    assert!(ok >= 2, "the burst allowance admits the first requests");
    assert!(limited > 0, "a 10-request burst against burst=2 is limited");

    // A different tenant has its own bucket: its first call sails through.
    let resp = client
        .call_as("modest", None, Mode::Rgt, None, None, "val it = 1 + 2")
        .expect("call");
    assert_eq!(resp.status, Status::Ok);

    let (_, rate_limited, ..) = handle.overload_stats();
    assert_eq!(rate_limited as usize, limited);
    handle.shutdown();
}

#[test]
fn deadline_breach_is_typed_and_repeatable_through_the_server() {
    // The same spinning program under the same wall-clock budget must
    // fail with the same status and the same error text when compiled
    // and when served from the cache — deadlines surface at safe points,
    // whose text carries no run-dependent ordinal.
    let handle = start(2);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut outcomes = Vec::new();
    for run in 0..2 {
        let resp = client
            .call_as("deadline-test", Some(80), Mode::Rgt, None, None, SPIN)
            .expect("call");
        outcomes.push((run, resp.status, resp.result));
    }
    for (run, status, result) in &outcomes {
        assert_eq!(
            *status,
            Status::DeadlineExceeded,
            "run {run} must breach the deadline"
        );
        assert_eq!(result, &outcomes[0].2, "run {run}: error text diverges");
    }
    let (_, _, deadline_exceeded, ..) = handle.overload_stats();
    assert_eq!(deadline_exceeded, outcomes.len() as u64);
    handle.shutdown();
}

#[test]
fn drain_answers_queued_work_and_drops_no_in_flight_request() {
    use std::net::TcpStream;

    // One worker, a deep queue, and a pile of pipelined slow-ish
    // requests; drain mid-pile. Every request must get exactly one
    // response: the started ones complete `Ok`, the queued ones are
    // answered `Overloaded` — nothing vanishes.
    let handle = start_with(ServerConfig {
        workers: 1,
        queue_cap: 64,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let mut tx = TcpStream::connect(addr).expect("connect");
    let mut rx = tx.try_clone().expect("clone");
    rx.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    const N: u64 = 24;
    for req_id in 0..N {
        kit_serve::wire::write_request(
            &mut tx,
            &kit_serve::Request {
                req_id,
                mode: Mode::Rgt,
                dispatch: DispatchMode::Threaded,
                fuel: None,
                max_heap_pages: None,
                deadline_ms: None,
                tenant: "drainee".to_string(),
                src: FIB.to_string(),
            },
        )
        .expect("send");
    }
    // Let the worker start chewing, then drain.
    std::thread::sleep(Duration::from_millis(50));
    let report = handle.drain(Duration::from_secs(30));
    assert!(report.drained, "one fib in flight drains well within 30s");

    let mut seen = std::collections::HashMap::new();
    for _ in 0..N {
        let resp = kit_serve::wire::read_response(&mut rx).expect("every request is answered");
        let prev = seen.insert(resp.req_id, resp.status);
        assert_eq!(prev, None, "request answered twice");
    }
    let completed = seen.values().filter(|s| **s == Status::Ok).count();
    let shed = seen.values().filter(|s| **s == Status::Overloaded).count();
    assert_eq!(completed + shed, N as usize);
    assert!(completed >= 1, "the in-flight request completed");
    assert_eq!(
        shed, report.answered_overloaded,
        "the drain's count matches the wire"
    );
    for s in seen.values() {
        assert!(
            matches!(s, Status::Ok | Status::Overloaded),
            "unexpected drain status {s:?}"
        );
    }
}

// ------------------------------------------------------ reader hygiene

#[test]
fn idle_connection_gets_typed_close() {
    let handle = start_with(ServerConfig {
        workers: 1,
        idle_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let mut s = std::net::TcpStream::connect(handle.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // Say nothing; the server must close us with a typed response.
    let resp = kit_serve::wire::read_response(&mut s).expect("typed close");
    assert_eq!(resp.status, Status::Closed);
    assert!(resp.result.contains("idle"));
    handle.shutdown();
}

#[test]
fn slowloris_frame_gets_typed_close_and_mid_frame_eof_is_reaped_silently() {
    use std::io::Write;
    use std::net::{Shutdown, TcpStream};

    let handle = start_with(ServerConfig {
        workers: 1,
        idle_timeout: Duration::from_secs(30),
        frame_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    });

    // Slowloris: start a frame, stall. The frame budget must close us
    // with a typed response even though the idle budget is far away.
    let mut s = TcpStream::connect(handle.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(&100u32.to_le_bytes()).expect("length prefix");
    s.write_all(&[2u8; 10]).expect("partial payload");
    s.flush().unwrap();
    let resp = kit_serve::wire::read_response(&mut s).expect("typed close");
    assert_eq!(resp.status, Status::Closed);
    assert!(resp.result.contains("stalled"));

    // Mid-frame EOF: promise bytes, die. No response owed; the server
    // must reap the connection without panicking and keep serving.
    let mut dead = TcpStream::connect(handle.addr()).expect("connect");
    dead.write_all(&100u32.to_le_bytes())
        .expect("length prefix");
    dead.write_all(&[2u8; 10]).expect("partial payload");
    dead.flush().unwrap();
    dead.shutdown(Shutdown::Both).expect("die mid-frame");
    drop(dead);

    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(handle.live_workers(), 1, "no worker died to the abuse");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let resp = client
        .call(Mode::Rgt, DispatchMode::Threaded, None, None, "val it = 7")
        .expect("server still serves");
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(resp.result, "7");
    handle.shutdown();
}
