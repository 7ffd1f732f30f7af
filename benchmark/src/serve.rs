//! The serve workloads: an in-process `kit-serve` with one worker, driven
//! over one pipelined connection by one polling generator thread — open loop
//! at a fixed rate, then closed loop to saturation.

use crate::inputs::{self, Arrival, Expected, ProgramSpec, SERVE_MODE};
use crate::layers::ns_per_call;
use crate::report::Tally;
use crate::stats::{self, Reading};
use crate::trace::Tracer;
use kit::DispatchMode;
use kit_serve::wire::{self, Request, Response, Status};
use kit_serve::{Client, Server, ServerConfig, ServerHandle};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// Requests the closed-loop phase keeps in flight: 25 ms of queued work at
/// 0.4 ms a request, which the polling generator tops up within microseconds
/// of every response, so the worker never waits for the connection.
const SATURATION_IN_FLIGHT: usize = 64;

/// The open loop holds a request back while this many are out (half the
/// server's default admission queue), so that a spell in which the host
/// stalls the server delays requests (and counts the delay, from the time
/// each was due) and sheds none.
const OPEN_LOOP_MAX_IN_FLIGHT: usize = 512;

/// The closed-loop phase counts `Ok` responses per slice of this length:
/// long enough that a slice holds some 600 `serve_hot` responses (50 of
/// `serve_miss`), short enough that the quiet spells of the host, which last
/// from half a second to many, hold whole slices.
const SATURATION_SLICE: Duration = Duration::from_millis(250);

/// A server that stops answering fails the run instead of hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Debug)]
pub struct MixProgram {
    pub name: &'static str,
    pub src: String,
    pub expected: Expected,
}

impl MixProgram {
    pub fn label(&self) -> String {
        format!("{}.{SERVE_MODE}", self.name)
    }
}

pub fn load_mix(dir: &Path, programs: &[ProgramSpec]) -> Result<Vec<MixProgram>, String> {
    programs
        .iter()
        .map(|spec| {
            let scale = spec.scales[spec.scales.len() / 2];
            let text = inputs::read_program(dir, spec.name)?;
            Ok(MixProgram {
                name: spec.name,
                src: inputs::source_scaled(&text, scale)
                    .map_err(|e| format!("{}: {e}", spec.name))?,
                expected: Expected::load(dir, spec.name, scale)?,
            })
        })
        .collect()
}

/// How a phase turns (request index, program) into source text: the plain
/// program, or the program with a nonce no other request carries.
#[derive(Debug, Clone, Copy)]
pub struct Sources<'a> {
    pub mix: &'a [MixProgram],
    /// `(seed, phase)` when every request must miss the compile cache.
    pub unique: Option<(u64, &'a str)>,
}

impl Sources<'_> {
    fn src(&self, index: u64, program: usize) -> String {
        let src = &self.mix[program].src;
        match self.unique {
            Some((seed, phase)) => inputs::with_nonce(src, seed, phase, index),
            None => src.clone(),
        }
    }

    fn request(&self, index: u64, program: usize) -> Request {
        Request {
            req_id: index,
            mode: SERVE_MODE,
            dispatch: DispatchMode::default(),
            fuel: None,
            max_heap_pages: None,
            deadline_ms: None,
            tenant: String::new(),
            src: self.src(index, program),
        }
    }
}

fn io_err(what: &str, e: io::Error) -> String {
    format!("{what}: {e}")
}

/// Appends `req` as one frame, so that it can leave in one `write`.
fn frame_into(out: &mut Vec<u8>, req: &Request) {
    let payload = wire::encode_request(req);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
}

fn frame(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    frame_into(&mut out, req);
    out
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
    stream.set_nodelay(true).map_err(|e| io_err("nodelay", e))?;
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| io_err("read timeout", e))?;
    Ok(stream)
}

fn check(resp: &Response, expected: &Expected) -> Result<(), String> {
    if resp.status != Status::Ok {
        return Err(format!("status {:?}: {}", resp.status, resp.result));
    }
    if !expected.matches(&resp.result, &resp.output) {
        return Err(format!(
            "result {:?}, expected {:?}",
            resp.result, expected.result
        ));
    }
    Ok(())
}

/// Set-up of a serve workload: start the server, connect, and put every
/// program of the mix into the compile cache (pipelined, then checked).
pub fn set_up(mix: &[MixProgram]) -> Result<(ServerHandle, TcpStream), String> {
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config)
        .map_err(|e| io_err("bind", e))?
        .spawn();
    let mut stream = connect(server.addr())?;
    let plain = Sources { mix, unique: None };
    for p in 0..mix.len() {
        stream
            .write_all(&frame(&plain.request(p as u64, p)))
            .map_err(|e| io_err("prime write", e))?;
    }
    for _ in 0..mix.len() {
        let resp = wire::read_response(&mut stream).map_err(|e| io_err("prime read", e))?;
        let program = mix
            .get(resp.req_id as usize)
            .ok_or_else(|| format!("prime: unknown request id {}", resp.req_id))?;
        check(&resp, &program.expected).map_err(|e| format!("prime {}: {e}", program.name))?;
    }
    Ok((server, stream))
}

/// What the open loop measured, per request in arrival order.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Intended send time → response decoded, milliseconds.
    pub lat_ms: Vec<f64>,
    /// Intended send time → the generator got to the request, milliseconds.
    pub late_ms: Vec<f64>,
    pub program: Vec<usize>,
    pub queue_depth: Vec<f64>,
    pub tally: Tally,
    /// Seconds the generator took to send its requests, and seconds the
    /// schedule gave it.
    pub send_span_s: f64,
    pub due_span_s: f64,
}

impl OpenLoop {
    pub fn achieved_rps(&self) -> f64 {
        self.tally.attempted as f64 / self.send_span_s
    }

    pub fn offered_rps(&self) -> f64 {
        self.tally.attempted as f64 / self.due_span_s
    }

    /// Latencies by program of a mix of `programs`.
    pub fn lat_by_program(&self, programs: usize) -> Vec<Vec<f64>> {
        let mut groups = vec![Vec::new(); programs];
        for (&p, &ms) in self.program.iter().zip(&self.lat_ms) {
            groups[p].push(ms);
        }
        groups
    }

    /// Pools a later window of the same phase into this one.
    pub fn absorb(&mut self, other: OpenLoop) {
        self.lat_ms.extend(other.lat_ms);
        self.late_ms.extend(other.late_ms);
        self.program.extend(other.program);
        self.queue_depth.extend(other.queue_depth);
        self.tally.absorb(other.tally);
        self.send_span_s += other.send_span_s;
        self.due_span_s += other.due_span_s;
    }
}

/// Clock readings of one request, nanoseconds since the phase started.
#[derive(Debug, Clone, Copy, Default)]
struct Clock {
    start: u64,
    encoded: u64,
    written: u64,
    first_byte: u64,
    read: u64,
    decoded: u64,
}

/// The generator's end of the connection. It never blocks: one thread
/// polls it for both directions, so the generator needs no wake-up — on
/// this box a sleeping thread can wake a whole scheduler tick (4 ms) late
/// when the other core is busy (README, "Load generator").
struct Pipe {
    stream: TcpStream,
    out: Vec<u8>,
    sent: usize,
    inp: Vec<u8>,
    parsed: usize,
}

/// Asks the kernel to acknowledge what `stream` receives at once instead of
/// holding the ACK back for up to 40 ms. The server writes a response as two
/// segments and sends the second only when the first is acknowledged, so
/// with delayed ACKs the generator's latencies are the kernel's ACK timer
/// and its mode switches, 16 ms in one run and 22 ms in the next (README,
/// "First readings"). The option wears off, so it is set again after every
/// read. Not on Linux: a no-op.
fn quick_ack(stream: &TcpStream) {
    #[cfg(target_os = "linux")]
    {
        use std::os::fd::AsRawFd;
        extern "C" {
            fn setsockopt(
                socket: i32,
                level: i32,
                name: i32,
                value: *const std::ffi::c_void,
                len: u32,
            ) -> i32;
        }
        const IPPROTO_TCP: i32 = 6;
        const TCP_QUICKACK: i32 = 12;
        let on: i32 = 1;
        // SAFETY: the descriptor is open for as long as `stream` is borrowed,
        // and `value` points at a live `i32` whose size is the `len` passed.
        // A failure leaves the socket as it was, which is safe to ignore.
        unsafe {
            setsockopt(
                stream.as_raw_fd(),
                IPPROTO_TCP,
                TCP_QUICKACK,
                (&on as *const i32).cast(),
                std::mem::size_of::<i32>() as u32,
            );
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = stream;
}

impl Pipe {
    fn new(stream: &TcpStream) -> Result<Pipe, String> {
        let stream = stream.try_clone().map_err(|e| io_err("clone", e))?;
        stream
            .set_nonblocking(true)
            .map_err(|e| io_err("nonblocking", e))?;
        quick_ack(&stream);
        Ok(Pipe {
            stream,
            out: Vec::new(),
            sent: 0,
            inp: Vec::new(),
            parsed: 0,
        })
    }

    fn queue(&mut self, req: &Request) {
        frame_into(&mut self.out, req);
    }

    /// Writes what the socket takes; true once nothing is left to send.
    fn flush(&mut self) -> io::Result<bool> {
        while self.sent < self.out.len() {
            match self.stream.write(&self.out[self.sent..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if !self.out.is_empty() {
            // Sending puts the socket back into delayed-ACK mode.
            quick_ack(&self.stream);
        }
        self.out.clear();
        self.sent = 0;
        Ok(true)
    }

    /// Reads what has arrived; true if anything did.
    fn fill(&mut self) -> io::Result<bool> {
        let mut chunk = [0u8; 16 << 10];
        let mut any = false;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.inp.extend_from_slice(&chunk[..n]);
                    any = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if any {
                        quick_ack(&self.stream);
                    }
                    return Ok(any);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The next complete response frame that has arrived, decoded.
    fn next_response(&mut self) -> io::Result<Option<Response>> {
        let rest = &self.inp[self.parsed..];
        let Some(len) = rest.first_chunk::<4>().map(|l| u32::from_le_bytes(*l)) else {
            return Ok(None);
        };
        if len > wire::MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "oversized frame",
            ));
        }
        let Some(payload) = rest.get(4..4 + len as usize) else {
            return Ok(None);
        };
        let resp = wire::decode_response(payload)?;
        self.parsed += 4 + len as usize;
        if self.parsed == self.inp.len() {
            self.inp.clear();
            self.parsed = 0;
        }
        Ok(Some(resp))
    }
}

impl Drop for Pipe {
    fn drop(&mut self) {
        // The clone shares the socket's mode with the caller's stream.
        let _ = self.stream.set_nonblocking(false);
    }
}

/// Sends `arrivals` on schedule over `stream` and collects every response.
/// With a tracer, request `i` leaves a `request` span (due → decoded) of job
/// `job_base + i` with `late`, `encode`, `write`, `wait`, `read` and
/// `decode` children.
pub fn open_loop(
    stream: &TcpStream,
    sources: Sources<'_>,
    arrivals: &[Arrival],
    tracer: Option<(&mut Tracer, u64)>,
) -> Result<OpenLoop, String> {
    let mut pipe = Pipe::new(stream)?;
    let mut clocks = vec![Clock::default(); arrivals.len()];
    let mut responses: Vec<Option<Response>> = Vec::new();
    responses.resize_with(arrivals.len(), || None);
    let t0 = Instant::now();
    let ns = || t0.elapsed().as_nanos() as u64;
    let (mut next, mut received) = (0, 0);
    // Requests queued but not yet fully on the wire, oldest first.
    let mut unwritten: Vec<usize> = Vec::new();
    let mut last_progress = t0;
    let mut out = OpenLoop::default();

    let outcome: io::Result<()> = (|| {
        while received < arrivals.len() {
            let mut now = ns();
            if next < arrivals.len()
                && now >= arrivals[next].due_ns
                && next - received < OPEN_LOOP_MAX_IN_FLIGHT
            {
                clocks[next].start = now;
                pipe.queue(&sources.request(next as u64, arrivals[next].program));
                clocks[next].encoded = ns();
                unwritten.push(next);
                next += 1;
            }
            if !unwritten.is_empty() && pipe.flush()? {
                now = ns();
                for i in unwritten.drain(..) {
                    clocks[i].written = now;
                }
            }
            if pipe.fill()? {
                let first_byte = ns();
                while let Some((resp, read)) = {
                    let read = ns();
                    pipe.next_response()?.map(|r| (r, read))
                } {
                    if let Some(slot) = responses.get_mut(resp.req_id as usize) {
                        let c = &mut clocks[resp.req_id as usize];
                        (c.first_byte, c.read, c.decoded) = (first_byte, read, ns());
                        *slot = Some(resp);
                    }
                    received += 1;
                }
                last_progress = Instant::now();
            } else if last_progress.elapsed() > READ_TIMEOUT {
                return Err(io::ErrorKind::TimedOut.into());
            }
        }
        Ok(())
    })();
    if let Err(e) = outcome {
        out.tally.fail(io_err("open loop", e));
    }

    out.tally.attempted = arrivals.len() as u64;
    let mut tracer = tracer;
    for (i, (a, resp)) in arrivals.iter().zip(responses).enumerate() {
        let Some(resp) = resp else {
            out.tally.fail(format!("request {i}: no response"));
            continue;
        };
        if let Err(e) = check(&resp, &sources.mix[a.program].expected) {
            out.tally.fail(format!(
                "request {i} ({}): {e}",
                sources.mix[a.program].name
            ));
            continue;
        }
        let c = clocks[i];
        out.lat_ms
            .push(c.decoded.saturating_sub(a.due_ns) as f64 / 1e6);
        out.late_ms
            .push(c.start.saturating_sub(a.due_ns) as f64 / 1e6);
        out.program.push(a.program);
        out.queue_depth.push(f64::from(resp.queue_depth));
        if let Some((tr, job_base)) = tracer.as_mut() {
            let base = tr.ns_of(t0);
            let job = *job_base + i as u64;
            let root = tr.record("request", job, None, base + a.due_ns, base + c.decoded);
            for (name, start, end) in [
                ("late", a.due_ns, c.start),
                ("encode", c.start, c.encoded),
                ("write", c.encoded, c.written),
                ("wait", c.written, c.first_byte),
                ("read", c.first_byte, c.read),
                ("decode", c.read, c.decoded),
            ] {
                tr.record(name, job, Some(root), base + start, base + end.max(start));
            }
        }
    }
    if let (Some(last), true) = (arrivals.last(), next == arrivals.len()) {
        out.due_span_s = last.due_ns as f64 / 1e9;
        out.send_span_s = clocks[arrivals.len() - 1].start as f64 / 1e9;
    }
    Ok(out)
}

/// What the closed-loop saturation phase measured.
#[derive(Debug, Default)]
pub struct Saturation {
    /// `Ok` responses per second in each whole [`SATURATION_SLICE`] of the
    /// phase's windows.
    pub slice_rates: Vec<f64>,
    /// `Ok` responses inside the windows, and the windows' total length.
    pub ok_in_window: u64,
    pub window_s: f64,
    pub tally: Tally,
}

impl Saturation {
    /// The rate of `Ok` responses in the quiet twentieth of the phase: the
    /// `1 − QUIET` quantile of the slices' rates (the counterpart of a quiet
    /// time; `stats::QUIET` says why). Under two slices, the mean rate.
    pub fn capacity_per_s(&self) -> f64 {
        if self.slice_rates.len() < 2 {
            return self.ok_in_window as f64 / self.window_s;
        }
        let mut rates = self.slice_rates.clone();
        rates.sort_by(f64::total_cmp);
        stats::quantile(&rates, 1.0 - stats::QUIET)
    }

    /// Pools a later window of the same phase into this one.
    pub fn absorb(&mut self, other: Saturation) {
        self.slice_rates.extend(other.slice_rates);
        self.ok_in_window += other.ok_in_window;
        self.window_s += other.window_s;
        self.tally.absorb(other.tally);
    }
}

/// Keeps [`SATURATION_IN_FLIGHT`] requests outstanding for `window`, then
/// collects what is still out.
pub fn saturate(
    stream: &TcpStream,
    sources: Sources<'_>,
    window: Duration,
    pick: &mut impl FnMut() -> usize,
) -> Result<Saturation, String> {
    let mut pipe = Pipe::new(stream)?;
    let mut programs: Vec<usize> = Vec::new();
    let mut answered: Vec<bool> = Vec::new();
    let mut received = 0;
    let mut out = Saturation::default();
    let slice_ns = SATURATION_SLICE.as_nanos();
    let mut ok_by_slice = vec![0u64; (window.as_nanos() / slice_ns) as usize];
    let t0 = Instant::now();
    let mut last_progress = t0;

    let outcome: io::Result<()> = (|| loop {
        let in_window = t0.elapsed() < window;
        if !in_window && received == programs.len() {
            return Ok(());
        }
        while in_window && programs.len() - received < SATURATION_IN_FLIGHT {
            let program = pick();
            pipe.queue(&sources.request(programs.len() as u64, program));
            programs.push(program);
            answered.push(false);
        }
        pipe.flush()?;
        if pipe.fill()? {
            while let Some(resp) = pipe.next_response()? {
                received += 1;
                let at = t0.elapsed();
                let Some(&program) = programs.get(resp.req_id as usize) else {
                    out.tally
                        .fail(format!("unknown request id {}", resp.req_id));
                    continue;
                };
                answered[resp.req_id as usize] = true;
                match check(&resp, &sources.mix[program].expected) {
                    Ok(()) => {
                        out.ok_in_window += u64::from(at <= window);
                        if let Some(n) = ok_by_slice.get_mut((at.as_nanos() / slice_ns) as usize) {
                            *n += 1;
                        }
                    }
                    Err(e) => out.tally.fail(format!(
                        "request {} ({}): {e}",
                        resp.req_id, sources.mix[program].name
                    )),
                }
            }
            last_progress = Instant::now();
        } else if last_progress.elapsed() > READ_TIMEOUT {
            return Err(io::ErrorKind::TimedOut.into());
        }
    })();
    if let Err(e) = outcome {
        out.tally.fail(io_err("saturation", e));
    }
    out.tally.attempted = programs.len() as u64;
    for i in answered
        .iter()
        .enumerate()
        .filter_map(|(i, a)| (!a).then_some(i))
    {
        out.tally.fail(format!("request {i}: no response"));
    }
    out.window_s = window.as_secs_f64();
    out.slice_rates = ok_by_slice
        .iter()
        .map(|&n| n as f64 / SATURATION_SLICE.as_secs_f64())
        .collect();
    Ok(out)
}

/// `serve.*` probes of an idle server: one request in flight at a time.
pub struct IdleProbes {
    pub connect_ms: Reading,
    pub rpc_ms_p50: Reading,
    pub hit_ms_p50: Reading,
    pub miss_ms_p50: Reading,
    pub wire_encode_req_ns: Reading,
    pub wire_decode_req_ns: Reading,
    pub wire_encode_resp_ns: Reading,
    pub wire_decode_resp_ns: Reading,
}

fn one_at_a_time(
    stream: &mut TcpStream,
    sources: Sources<'_>,
    rounds: usize,
    tally: &mut Tally,
) -> Result<(Vec<f64>, Option<Response>), String> {
    let mut ms = Vec::new();
    let mut last = None;
    for i in 0..rounds * sources.mix.len() {
        let program = i % sources.mix.len();
        let bytes = frame(&sources.request(i as u64, program));
        let t0 = Instant::now();
        stream
            .write_all(&bytes)
            .map_err(|e| io_err("probe write", e))?;
        let resp = wire::read_response(stream).map_err(|e| io_err("probe read", e))?;
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        tally.attempted += 1;
        if let Err(e) = check(&resp, &sources.mix[program].expected) {
            tally.fail(format!("probe {}: {e}", sources.mix[program].name));
        }
        last = Some(resp);
    }
    Ok((ms, last))
}

fn ns_each(f: impl FnMut()) -> Reading {
    Reading::quiet(&ns_per_call(41, 200, f))
}

/// Probes a server that has `mix` cached and nothing else to do. `seed`
/// keeps the cache-miss nonces apart from every other phase's.
pub fn probe_idle(
    server: &ServerHandle,
    mix: &[MixProgram],
    seed: u64,
    tally: &mut Tally,
) -> Result<IdleProbes, String> {
    use std::hint::black_box;
    let addr = server.addr();

    let connect_ms: Vec<f64> = (0..21)
        .map(|_| {
            let t0 = Instant::now();
            let s = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            drop(s);
            Ok(ms)
        })
        .collect::<Result<_, String>>()?;

    // The library's own blocking client, as a caller would use it.
    let mut client = Client::connect(addr).map_err(|e| io_err("client connect", e))?;
    let mut rpc_ms = Vec::new();
    for i in 0..4 * mix.len() {
        let program = &mix[i % mix.len()];
        let t0 = Instant::now();
        let resp = client
            .call(
                SERVE_MODE,
                DispatchMode::default(),
                None,
                None,
                &program.src,
            )
            .map_err(|e| io_err("client call", e))?;
        rpc_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        tally.attempted += 1;
        if let Err(e) = check(&resp, &program.expected) {
            tally.fail(format!("rpc {}: {e}", program.name));
        }
    }
    drop(client);

    let mut stream = connect(addr)?;
    let hot = Sources { mix, unique: None };
    let cold = Sources {
        mix,
        unique: Some((seed, "probe")),
    };
    let (hit_ms, sample_resp) = one_at_a_time(&mut stream, hot, 5, tally)?;
    let (miss_ms, _) = one_at_a_time(&mut stream, cold, 5, tally)?;

    let req = hot.request(1, mix.len() - 1);
    let req_bytes = wire::encode_request(&req);
    let resp = sample_resp.ok_or("no probe response")?;
    let resp_bytes = wire::encode_response(&resp);
    Ok(IdleProbes {
        connect_ms: Reading::quiet(&connect_ms),
        rpc_ms_p50: Reading::pick(&rpc_ms, |s| s.median),
        hit_ms_p50: Reading::pick(&hit_ms, |s| s.median),
        miss_ms_p50: Reading::pick(&miss_ms, |s| s.median),
        wire_encode_req_ns: ns_each(|| {
            black_box(wire::encode_request(black_box(&req)));
        }),
        wire_decode_req_ns: ns_each(|| {
            black_box(wire::decode_request(black_box(&req_bytes)).expect("own encoding"));
        }),
        wire_encode_resp_ns: ns_each(|| {
            black_box(wire::encode_response(black_box(&resp)));
        }),
        wire_decode_resp_ns: ns_each(|| {
            black_box(wire::decode_response(black_box(&resp_bytes)).expect("own encoding"));
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_read_off_the_fastest_slices_of_all_windows() {
        let window = |rates: &[f64]| Saturation {
            slice_rates: rates.to_vec(),
            ok_in_window: rates.iter().sum::<f64>() as u64 / 4,
            window_s: rates.len() as f64 / 4.0,
            ..Saturation::default()
        };
        // Two windows of ten slices; a slow spell covers most of the first.
        let mut sat = window(&[100.0; 10]);
        sat.absorb(window(&[
            400.0, 400.0, 400.0, 400.0, 400.0, 400.0, 100.0, 100.0, 100.0, 100.0,
        ]));
        assert_eq!(sat.slice_rates.len(), 20);
        assert_eq!(sat.window_s, 5.0);
        assert_eq!(sat.capacity_per_s(), 400.0);
        // A window shorter than two slices reports its mean rate.
        let short = Saturation {
            ok_in_window: 30,
            window_s: 0.2,
            ..Saturation::default()
        };
        assert_eq!(short.capacity_per_s(), 150.0);
    }
}
