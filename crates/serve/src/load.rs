//! The load driver: opens `conns` TCP connections to a running server,
//! keeps `sessions` requests in flight across them (pipelined — each
//! connection has a sender and a receiver thread), and reports what was
//! answered: response counts and per-program counter aggregates. It is a
//! correctness driver (chaos, flood, drain, `loadgen --check`) and holds
//! no clock — latency and throughput are the repo benchmark's
//! (`benchmark/`, open loop).
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
use std::collections::HashSet;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

/// One program in the load mix.
#[derive(Debug, Clone)]
pub struct LoadProgram {
    /// Display name (benchmark name, possibly with quota annotations).
    pub name: String,
    /// Execution mode.
    pub mode: Mode,
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
    pub fn plain(name: &str, mode: Mode, src: &str) -> LoadProgram {
        LoadProgram {
            name: name.to_string(),
            mode,
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
    /// Maximum peak footprint over the program's requests.
    pub peak_bytes: u64,
    /// Uniform result/error text of the deterministic responses.
    pub result: String,
}

/// What one load run was answered.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Responses received (== requests issued on success).
    pub requests: usize,
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
}

/// What a mix program's responses added up to.
#[derive(Default)]
struct ProgAcc {
    requests: usize,
    executed: usize,
    shed: usize,
    rate_limited: usize,
    deadline_exceeded: usize,
    peak_bytes: u64,
    /// First deterministic response (uniformity reference).
    first: Option<Response>,
    /// First response of any status (fallback when nothing executed).
    first_any: Option<Response>,
}

impl ProgAcc {
    /// Counts one response. Deterministic responses must agree with the
    /// first one seen; load-dependent outcomes are tallied, never compared.
    fn absorb(&mut self, resp: Response) -> Result<(), String> {
        self.requests += 1;
        self.peak_bytes = self.peak_bytes.max(resp.peak_bytes);
        match resp.status {
            Status::Overloaded => self.shed += 1,
            Status::RateLimited => self.rate_limited += 1,
            Status::DeadlineExceeded => self.deadline_exceeded += 1,
            _ => {}
        }
        if !resp.status.is_deterministic() {
            self.first_any.get_or_insert(resp);
            return Ok(());
        }
        self.executed += 1;
        fn observed(r: &Response) -> (Status, u64, u64, u64, &str) {
            (
                r.status,
                r.instructions,
                r.gc_count,
                r.gc_copied_words,
                &r.result,
            )
        }
        match &self.first {
            None => self.first = Some(resp),
            Some(first) if observed(first) != observed(&resp) => {
                return Err(format!(
                    "(status, instructions, gc_count, gc_copied_words, result) \
                     {:?} vs {:?}",
                    observed(first),
                    observed(&resp)
                ));
            }
            Some(_) => {}
        }
        Ok(())
    }
}

struct Pending {
    /// Ids sent and not yet answered: a response outside this set is a
    /// duplicate or an invention.
    inflight: HashSet<u64>,
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

    let mut handles = Vec::with_capacity(conns);
    for c in 0..conns {
        let addr = spec.addr;
        let mix: Vec<LoadProgram> = spec.mix.clone();
        let total = spec.requests;
        let nconns = conns;
        let cap = budget(c);
        handles.push(thread::spawn(move || {
            drive_conn(addr, &mix, total, nconns, c, cap)
        }));
    }

    // Join every connection before reporting the first failure.
    let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
    let mut depths = Vec::with_capacity(spec.requests);
    let mut programs: Vec<ProgAcc> = spec.mix.iter().map(|_| ProgAcc::default()).collect();
    for conn in joined {
        let responses = conn.map_err(|_| "load connection thread panicked".to_string())??;
        for resp in responses {
            depths.push(resp.queue_depth);
            // The sender assigned request `i` to program `i % mix.len()`.
            let idx = resp.req_id as usize % spec.mix.len();
            programs[idx]
                .absorb(resp)
                .map_err(|e| format!("program #{idx} responses disagree: {e}"))?;
        }
    }

    let n = depths.len();
    if n != spec.requests {
        return Err(format!("expected {} responses, got {n}", spec.requests));
    }
    depths.sort_unstable();
    let queue_depth_p99 = depths[((n as f64 * 0.99).ceil() as usize).clamp(1, n) - 1];

    let (mut shed, mut rate_limited, mut deadline_exceeded) = (0, 0, 0);
    let mut per_program = Vec::with_capacity(spec.mix.len());
    for (prog, acc) in spec.mix.iter().zip(programs) {
        shed += acc.shed;
        rate_limited += acc.rate_limited;
        deadline_exceeded += acc.deadline_exceeded;
        let reference = acc
            .first
            .as_ref()
            .or(acc.first_any.as_ref())
            .ok_or_else(|| format!("program {} received no responses", prog.name))?;
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
            peak_bytes: acc.peak_bytes,
            result: reference.result.clone(),
        });
    }

    Ok(LoadReport {
        requests: n,
        shed,
        rate_limited,
        deadline_exceeded,
        queue_depth_p99,
        per_program,
    })
}

/// Drives one connection: a sender thread pushes this connection's share
/// of the request stream (request `i` goes to connection `i % nconns`,
/// program `i % mix.len()`), blocking while `cap` requests are in
/// flight; the receiver (this thread) collects the responses, each
/// checked to answer a request that is in flight.
fn drive_conn(
    addr: SocketAddr,
    mix: &[LoadProgram],
    total: usize,
    nconns: usize,
    conn: usize,
    cap: usize,
) -> Result<Vec<Response>, String> {
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
            inflight: HashSet::new(),
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
                    dispatch: DispatchMode::Threaded,
                    fuel: prog.fuel,
                    max_heap_pages: prog.max_heap_pages,
                    deadline_ms: prog.deadline_ms,
                    tenant: prog.tenant.clone(),
                    src: prog.src.clone(),
                };
                let (lock, cv) = &*pending;
                let mut p = lock.lock().expect("pending lock");
                while p.inflight.len() >= cap && !p.aborted {
                    p = cv.wait(p).expect("pending wait");
                }
                if p.aborted {
                    return Err("receiver aborted".to_string());
                }
                p.inflight.insert(req.req_id);
                drop(p);
                if let Err(e) = wire::write_request(&mut tx, &req) {
                    return Err(format!("send: {e}"));
                }
            }
            Ok(())
        })
    };

    let mut responses = Vec::with_capacity(expected);
    let mut failure = None;
    while responses.len() < expected {
        let resp = match wire::read_response(&mut rx) {
            Ok(r) => r,
            Err(e) => {
                failure = Some(format!("recv: {e}"));
                break;
            }
        };
        let (lock, cv) = &*pending;
        if !lock
            .lock()
            .expect("pending lock")
            .inflight
            .remove(&resp.req_id)
        {
            failure = Some(format!("unexpected req_id {}", resp.req_id));
            break;
        }
        cv.notify_one();
        responses.push(resp);
    }

    if failure.is_some() {
        let (lock, cv) = &*pending;
        lock.lock().expect("pending lock").aborted = true;
        cv.notify_all();
    }
    // The receiver's failure is the root cause; the sender's own error
    // only counts when the receiver saw none.
    let sent = sender
        .join()
        .unwrap_or_else(|_| Err("sender thread panicked".to_string()));
    match failure {
        Some(e) => Err(e),
        None => sent.map(|()| responses),
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
                DispatchMode::Threaded,
                prog.fuel,
                prog.max_heap_pages,
                &prog.src,
            )
            .map_err(|e| format!("{}: call failed: {e}", prog.name))?;

        let mut compiler = Compiler::new(prog.mode);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn response(status: Status, instructions: u64) -> Response {
        Response {
            req_id: 0,
            status,
            worker: 0,
            retry_after_ms: 0,
            queue_depth: 0,
            instructions,
            gc_count: 0,
            gc_copied_words: 0,
            gc_time_ns: 0,
            peak_bytes: 64,
            result: "233".to_string(),
            output: String::new(),
        }
    }

    #[test]
    fn executed_responses_must_agree_and_load_dependent_ones_are_only_counted() {
        let mut acc = ProgAcc::default();
        acc.absorb(response(Status::Overloaded, 0)).unwrap();
        acc.absorb(response(Status::Ok, 1871)).unwrap();
        acc.absorb(response(Status::DeadlineExceeded, 0)).unwrap();
        acc.absorb(response(Status::Ok, 1871)).unwrap();
        assert_eq!(
            (acc.requests, acc.executed, acc.shed, acc.deadline_exceeded),
            (4, 2, 1, 1)
        );
        let err = acc.absorb(response(Status::Ok, 1872)).unwrap_err();
        assert!(err.contains("1871") && err.contains("1872"), "{err}");
    }
}
