//! The load driver: opens `conns` TCP connections to a running server,
//! keeps `sessions` requests in flight across them (pipelined — each
//! connection has a sender and a receiver thread), and reports
//! requests/sec, p50/p99 latency, per-program counter aggregates, and
//! per-worker collector time. Shared by the `loadgen` binary and the
//! `bench-summary` serve section so both report identical numbers.
//!
//! Overload awareness (PR 10): responses split into *deterministic*
//! outcomes ([`Status::is_deterministic`] — produced by actually running
//! the program, demanded bit-identical per program) and *load-dependent*
//! outcomes (`Overloaded`, `RateLimited`, `DeadlineExceeded`), which are
//! tallied per program and in aggregate instead of compared. Every
//! request still receives exactly one typed response — shedding never
//! silently drops — so the response count always matches the request
//! count.

use crate::wire::{self, Request, Response, Status};
use kit::{Compiler, DispatchMode, Mode};
use std::collections::{BTreeMap, HashMap};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// One program in the load mix.
#[derive(Debug, Clone)]
pub struct LoadProgram {
    /// Display name (benchmark name, possibly with quota annotations).
    pub name: String,
    /// Execution mode.
    pub mode: Mode,
    /// Dispatch engine.
    pub dispatch: DispatchMode,
    /// Per-request fuel quota.
    pub fuel: Option<u64>,
    /// Per-request memory quota in pages.
    pub max_heap_pages: Option<usize>,
    /// Per-request wall-clock budget in milliseconds (from admission).
    pub deadline_ms: Option<u64>,
    /// Tenant id sent with each request (empty = anonymous).
    pub tenant: String,
    /// MiniML source.
    pub src: String,
}

impl LoadProgram {
    /// A quota-free program under the given name — the common case for
    /// tests and generated mixes.
    pub fn plain(name: &str, mode: Mode, dispatch: DispatchMode, src: &str) -> LoadProgram {
        LoadProgram {
            name: name.to_string(),
            mode,
            dispatch,
            fuel: None,
            max_heap_pages: None,
            deadline_ms: None,
            tenant: String::new(),
            src: src.to_string(),
        }
    }
}

/// What to run and how hard to push.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Server address.
    pub addr: SocketAddr,
    /// Total requests to issue (assigned round-robin over the mix).
    pub requests: usize,
    /// Concurrent in-flight sessions across all connections.
    pub sessions: usize,
    /// TCP connections to spread the sessions over.
    pub conns: usize,
    /// The program mix.
    pub mix: Vec<LoadProgram>,
}

/// Aggregate counters for one mix program, with uniformity enforced over
/// the *deterministic* responses: every executed response for the
/// program must agree on status, instructions, gc_count and
/// gc_copied_words (the determinism claim of DESIGN.md §6i). Shed,
/// rate-limited and deadline-breached responses are load-dependent and
/// are tallied, not compared.
#[derive(Debug, Clone)]
pub struct ProgramReport {
    /// The program's display name.
    pub name: String,
    /// Responses received (all statuses).
    pub requests: usize,
    /// Uniform status of the deterministic responses; when *no* response
    /// was deterministic (e.g. a fully rate-limited hog), the status of
    /// the first response received.
    pub status: Status,
    /// Deterministic responses (those counted under `status` when it is
    /// deterministic).
    pub executed: usize,
    /// Responses shed at admission with `Overloaded`.
    pub shed: usize,
    /// Responses refused with `RateLimited`.
    pub rate_limited: usize,
    /// Responses that breached their wall-clock deadline.
    pub deadline_exceeded: usize,
    /// Uniform instruction total (0 for non-`Ok` outcomes).
    pub instructions: u64,
    /// Uniform collection count.
    pub gc_count: u64,
    /// Uniform copied-word count.
    pub gc_copied_words: u64,
    /// Summed collector time across the program's requests.
    pub gc_time_ns: u64,
    /// Maximum peak footprint over the program's requests.
    pub peak_bytes: u64,
    /// 99th-percentile latency over this program's responses,
    /// milliseconds (the per-tenant fairness probe: a polite tenant's
    /// p99 must hold while a hog floods).
    pub p99_ms: f64,
    /// Uniform result/error text of the deterministic responses.
    pub result: String,
}

/// What one load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Responses received (== requests issued on success).
    pub requests: usize,
    /// Wall-clock time from first send to last receive.
    pub wall: Duration,
    /// Requests per second.
    pub rps: f64,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
    /// Mean request latency, milliseconds.
    pub mean_ms: f64,
    /// Requests shed at admission (`Overloaded`), all programs.
    pub shed: usize,
    /// Requests refused with `RateLimited`, all programs.
    pub rate_limited: usize,
    /// Requests that breached their deadline, all programs.
    pub deadline_exceeded: usize,
    /// 99th percentile of the admission-queue depth observed across all
    /// responses (each response reports the depth at its admission).
    pub queue_depth_p99: u32,
    /// Per-program aggregates, mix order.
    pub per_program: Vec<ProgramReport>,
    /// Collector nanoseconds summed per worker id.
    pub per_worker_gc_ns: BTreeMap<u32, u64>,
}

/// Per-connection receiver tallies, merged after the join.
#[derive(Default)]
struct ConnTally {
    latencies: Vec<Duration>,
    queue_depths: Vec<u32>,
    /// program index → accumulated responses
    programs: HashMap<usize, ProgAcc>,
    worker_gc_ns: HashMap<u32, u64>,
    errors: Vec<String>,
}

#[derive(Default)]
struct ProgAcc {
    requests: usize,
    executed: usize,
    shed: usize,
    rate_limited: usize,
    deadline_exceeded: usize,
    gc_time_ns: u64,
    peak_bytes: u64,
    latencies: Vec<Duration>,
    /// First deterministic response (uniformity reference).
    first: Option<Response>,
    /// First response of any status (fallback when nothing executed).
    first_any: Option<Response>,
}

impl ProgAcc {
    fn absorb_status(&mut self, status: Status) {
        match status {
            Status::Overloaded => self.shed += 1,
            Status::RateLimited => self.rate_limited += 1,
            Status::DeadlineExceeded => self.deadline_exceeded += 1,
            _ => {}
        }
    }
}

struct Pending {
    /// req_id → (program index, send instant)
    inflight: HashMap<u64, (usize, Instant)>,
    outstanding: usize,
    /// Set by the receiver on failure so a capacity-blocked sender exits
    /// instead of waiting forever.
    aborted: bool,
}

/// Runs the load and aggregates the report.
///
/// # Errors
///
/// Returns a message on socket failure or on a per-program counter
/// mismatch (two *deterministic* responses for the same program
/// disagreeing on status, instructions or GC counters).
pub fn run_load(spec: &LoadSpec) -> Result<LoadReport, String> {
    if spec.mix.is_empty() || spec.requests == 0 {
        return Err("empty load: need at least one mix program and one request".to_string());
    }
    let conns = spec.conns.clamp(1, spec.requests);
    let sessions = spec.sessions.max(1);
    // Split the in-flight budget over the connections, first conns
    // rounding up so the total matches.
    let budget = |c: usize| {
        let base = sessions / conns;
        let share = if c < sessions % conns { base + 1 } else { base };
        share.max(1)
    };

    let t0 = Instant::now();
    let mut handles = Vec::with_capacity(conns);
    for c in 0..conns {
        let addr = spec.addr;
        let mix: Vec<LoadProgram> = spec.mix.clone();
        let total = spec.requests;
        let nconns = conns;
        let cap = budget(c);
        handles.push(thread::spawn(move || -> Result<ConnTally, String> {
            drive_conn(addr, &mix, total, nconns, c, cap)
        }));
    }

    let mut tally = ConnTally::default();
    for h in handles {
        let t = h
            .join()
            .map_err(|_| "load connection thread panicked".to_string())??;
        tally.latencies.extend(t.latencies);
        tally.queue_depths.extend(t.queue_depths);
        tally.errors.extend(t.errors);
        for (w, ns) in t.worker_gc_ns {
            *tally.worker_gc_ns.entry(w).or_insert(0) += ns;
        }
        for (p, acc) in t.programs {
            merge_prog(&mut tally.programs, &mut tally.errors, p, acc);
        }
    }
    let wall = t0.elapsed();

    if let Some(e) = tally.errors.first() {
        return Err(e.clone());
    }

    let mut lat = tally.latencies;
    lat.sort_unstable();
    let n = lat.len();
    if n != spec.requests {
        return Err(format!("expected {} responses, got {n}", spec.requests));
    }
    let pct = |p: f64| lat[(((n as f64) * p).ceil() as usize).clamp(1, n) - 1];
    let mean = lat.iter().sum::<Duration>() / n as u32;

    let mut depths = tally.queue_depths;
    depths.sort_unstable();
    let queue_depth_p99 = depths
        .get((((depths.len() as f64) * 0.99).ceil() as usize).clamp(1, depths.len().max(1)) - 1)
        .copied()
        .unwrap_or(0);

    let (mut shed, mut rate_limited, mut deadline_exceeded) = (0, 0, 0);
    let mut per_program = Vec::with_capacity(spec.mix.len());
    for (i, prog) in spec.mix.iter().enumerate() {
        let mut acc = tally
            .programs
            .remove(&i)
            .ok_or_else(|| format!("program {} received no responses", prog.name))?;
        shed += acc.shed;
        rate_limited += acc.rate_limited;
        deadline_exceeded += acc.deadline_exceeded;
        acc.latencies.sort_unstable();
        let pn = acc.latencies.len();
        let p99 = acc.latencies[(((pn as f64) * 0.99).ceil() as usize).clamp(1, pn) - 1];
        let reference = acc
            .first
            .as_ref()
            .or(acc.first_any.as_ref())
            .expect("a counted program has at least one response");
        per_program.push(ProgramReport {
            name: prog.name.clone(),
            requests: acc.requests,
            status: reference.status,
            executed: acc.executed,
            shed: acc.shed,
            rate_limited: acc.rate_limited,
            deadline_exceeded: acc.deadline_exceeded,
            instructions: reference.instructions,
            gc_count: reference.gc_count,
            gc_copied_words: reference.gc_copied_words,
            gc_time_ns: acc.gc_time_ns,
            peak_bytes: acc.peak_bytes,
            p99_ms: p99.as_secs_f64() * 1e3,
            result: reference.result.clone(),
        });
    }

    Ok(LoadReport {
        requests: n,
        wall,
        rps: n as f64 / wall.as_secs_f64(),
        p50_ms: pct(0.50).as_secs_f64() * 1e3,
        p99_ms: pct(0.99).as_secs_f64() * 1e3,
        mean_ms: mean.as_secs_f64() * 1e3,
        shed,
        rate_limited,
        deadline_exceeded,
        queue_depth_p99,
        per_program,
        per_worker_gc_ns: tally.worker_gc_ns.into_iter().collect(),
    })
}

/// Drives one connection: a sender thread pushes this connection's share
/// of the request stream (request `i` goes to connection `i % nconns`,
/// program `i % mix.len()`), blocking while `cap` requests are in
/// flight; the receiver (this thread) tallies responses.
fn drive_conn(
    addr: SocketAddr,
    mix: &[LoadProgram],
    total: usize,
    nconns: usize,
    conn: usize,
    cap: usize,
) -> Result<ConnTally, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("set nodelay: {e}"))?;
    let mut rx = stream
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    // A stuck server (or a sender that died mid-stream) must not hang
    // the run forever; a timed-out read surfaces as a recv error.
    rx.set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| format!("set timeout: {e}"))?;
    let pending = Arc::new((
        Mutex::new(Pending {
            inflight: HashMap::new(),
            outstanding: 0,
            aborted: false,
        }),
        Condvar::new(),
    ));

    let my_ids: Vec<usize> = (conn..total).step_by(nconns).collect();
    let expected = my_ids.len();

    let sender = {
        let pending = Arc::clone(&pending);
        let mix = mix.to_vec();
        let mut tx = stream;
        thread::spawn(move || -> Result<(), String> {
            for i in my_ids {
                let prog = &mix[i % mix.len()];
                let req = Request {
                    req_id: i as u64,
                    mode: prog.mode,
                    dispatch: prog.dispatch,
                    fuel: prog.fuel,
                    max_heap_pages: prog.max_heap_pages,
                    deadline_ms: prog.deadline_ms,
                    tenant: prog.tenant.clone(),
                    src: prog.src.clone(),
                };
                let (lock, cv) = &*pending;
                let mut p = lock.lock().expect("pending lock");
                while p.outstanding >= cap && !p.aborted {
                    p = cv.wait(p).expect("pending wait");
                }
                if p.aborted {
                    return Err("receiver aborted".to_string());
                }
                p.inflight
                    .insert(req.req_id, (i % mix.len(), Instant::now()));
                p.outstanding += 1;
                drop(p);
                if let Err(e) = wire::write_request(&mut tx, &req) {
                    return Err(format!("send: {e}"));
                }
            }
            Ok(())
        })
    };

    let mut tally = ConnTally::default();
    for _ in 0..expected {
        let resp = match wire::read_response(&mut rx) {
            Ok(r) => r,
            Err(e) => {
                tally.errors.push(format!("recv: {e}"));
                break;
            }
        };
        let (lock, cv) = &*pending;
        let mut p = lock.lock().expect("pending lock");
        let Some((prog_idx, sent)) = p.inflight.remove(&resp.req_id) else {
            tally
                .errors
                .push(format!("unexpected req_id {}", resp.req_id));
            break;
        };
        p.outstanding -= 1;
        drop(p);
        cv.notify_one();
        let latency = sent.elapsed();
        tally.latencies.push(latency);
        tally.queue_depths.push(resp.queue_depth);
        // Shed/limited responses carry `worker == u32::MAX` (no worker
        // touched them); keep the per-worker books to real workers.
        if resp.worker != u32::MAX {
            *tally.worker_gc_ns.entry(resp.worker).or_insert(0) += resp.gc_time_ns;
        }
        let mut acc = ProgAcc {
            requests: 1,
            gc_time_ns: resp.gc_time_ns,
            peak_bytes: resp.peak_bytes,
            latencies: vec![latency],
            ..ProgAcc::default()
        };
        acc.absorb_status(resp.status);
        if resp.status.is_deterministic() {
            acc.executed = 1;
            acc.first = Some(resp);
        } else {
            acc.first_any = Some(resp);
        }
        merge_prog(&mut tally.programs, &mut tally.errors, prog_idx, acc);
    }

    if !tally.errors.is_empty() {
        let (lock, cv) = &*pending;
        lock.lock().expect("pending lock").aborted = true;
        cv.notify_all();
    }
    match sender.join() {
        Ok(Ok(())) => {}
        // Suppress the sender's secondary error when the receiver
        // already recorded the root cause.
        Ok(Err(e)) if tally.errors.is_empty() => tally.errors.push(e),
        Ok(Err(_)) => {}
        Err(_) => tally.errors.push("sender thread panicked".to_string()),
    }
    Ok(tally)
}

/// Folds `acc` into the per-program map, recording an error if its
/// deterministic counters disagree with what the program produced
/// elsewhere. Load-dependent outcomes never participate in the
/// comparison — only in the tallies.
fn merge_prog(
    programs: &mut HashMap<usize, ProgAcc>,
    errors: &mut Vec<String>,
    idx: usize,
    acc: ProgAcc,
) {
    match programs.get_mut(&idx) {
        None => {
            programs.insert(idx, acc);
        }
        Some(have) => {
            if let (Some(a), Some(b)) = (&have.first, &acc.first) {
                if (
                    a.status,
                    a.instructions,
                    a.gc_count,
                    a.gc_copied_words,
                    &a.result,
                ) != (
                    b.status,
                    b.instructions,
                    b.gc_count,
                    b.gc_copied_words,
                    &b.result,
                ) {
                    errors.push(format!(
                        "program #{idx} responses disagree: \
                         ({:?}, {} instr, {} gcs, {} copied, {:?}) vs \
                         ({:?}, {} instr, {} gcs, {} copied, {:?})",
                        a.status,
                        a.instructions,
                        a.gc_count,
                        a.gc_copied_words,
                        a.result,
                        b.status,
                        b.instructions,
                        b.gc_count,
                        b.gc_copied_words,
                        b.result,
                    ));
                }
            }
            if have.first.is_none() {
                have.first = acc.first;
            }
            if have.first_any.is_none() {
                have.first_any = acc.first_any;
            }
            have.requests += acc.requests;
            have.executed += acc.executed;
            have.shed += acc.shed;
            have.rate_limited += acc.rate_limited;
            have.deadline_exceeded += acc.deadline_exceeded;
            have.gc_time_ns += acc.gc_time_ns;
            have.peak_bytes = have.peak_bytes.max(acc.peak_bytes);
            have.latencies.extend(acc.latencies);
        }
    }
}

/// One row of a server-vs-standalone check.
#[derive(Debug)]
pub struct CheckRow {
    /// The program's display name.
    pub name: String,
    /// Human-readable outcome summary (shared by both sides on success).
    pub summary: String,
}

/// Runs each mix program once through the server and once standalone on
/// an identically configured [`Compiler`], and demands bit-identical
/// observables: status, result/error text, instruction total, GC count
/// and copied words. Deadlines are deliberately *not* forwarded — a
/// wall-clock breach is load-dependent, so the check compares the
/// deterministic quotas only.
///
/// # Errors
///
/// Returns a description of the first divergence found.
pub fn check_against_standalone(
    addr: SocketAddr,
    mix: &[LoadProgram],
) -> Result<Vec<CheckRow>, String> {
    let mut client =
        crate::client::Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut rows = Vec::with_capacity(mix.len());
    for prog in mix {
        let served = client
            .call(
                prog.mode,
                prog.dispatch,
                prog.fuel,
                prog.max_heap_pages,
                &prog.src,
            )
            .map_err(|e| format!("{}: call failed: {e}", prog.name))?;

        let mut compiler = Compiler::new(prog.mode).with_dispatch(prog.dispatch);
        if let Some(fuel) = prog.fuel {
            compiler = compiler.with_fuel(fuel);
        }
        if let Some(pages) = prog.max_heap_pages {
            compiler = compiler.with_max_heap_pages(pages);
        }
        let summary = match compiler.run_source(&prog.src) {
            Ok(out) => {
                if served.status != Status::Ok {
                    return Err(format!(
                        "{}: server says {:?} ({}), standalone succeeded",
                        prog.name, served.status, served.result
                    ));
                }
                let server_side = (
                    served.result.as_str(),
                    served.instructions,
                    served.gc_count,
                    served.gc_copied_words,
                );
                let local_side = (
                    out.result.as_str(),
                    out.instructions,
                    out.stats.gc_count,
                    out.stats.gc_copied_words,
                );
                if server_side != local_side {
                    return Err(format!(
                        "{}: server {server_side:?} != standalone {local_side:?}",
                        prog.name
                    ));
                }
                format!(
                    "ok: result={} instructions={} gc_count={} gc_copied_words={}",
                    out.result, out.instructions, out.stats.gc_count, out.stats.gc_copied_words
                )
            }
            Err(e) => {
                if served.status == Status::Ok || served.result != e.to_string() {
                    return Err(format!(
                        "{}: server says {:?} ({:?}), standalone failed with {:?}",
                        prog.name,
                        served.status,
                        served.result,
                        e.to_string()
                    ));
                }
                format!("error (both sides): {e}")
            }
        };
        rows.push(CheckRow {
            name: prog.name.clone(),
            summary,
        });
    }
    Ok(rows)
}
