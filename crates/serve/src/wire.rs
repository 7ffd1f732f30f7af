//! The length-prefixed binary wire protocol (DESIGN.md §6i).
//!
//! Every message is one *frame*: a little-endian `u32` payload length
//! followed by that many payload bytes. Integers inside the payload are
//! little-endian; strings are a `u32` length plus UTF-8 bytes. The
//! protocol is deliberately positional and versioned by a leading byte —
//! a hand-rolled codec keeps the workspace std-only.
//!
//! Requests carry a client-chosen `req_id` which the response echoes:
//! one connection may pipeline many requests, and the worker pool
//! completes them in whatever order scheduling produces.

use kit::{DispatchMode, Mode};
use std::io::{self, Read, Write};

/// Protocol version byte expected at the head of every request.
/// Version 2 (PR 10) added the tenant id and per-request deadline to the
/// request frame, and `retry_after_ms`/`queue_depth` plus the overload
/// statuses (`Overloaded`, `RateLimited`, `DeadlineExceeded`, `Closed`)
/// to the response frame.
pub const VERSION: u8 = 2;

/// Upper bound on a frame payload; a length above this is treated as a
/// malformed frame rather than an allocation request.
pub const MAX_FRAME: u32 = 16 << 20;

/// A program-execution request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen id echoed in the response (pipelining).
    pub req_id: u64,
    /// Execution mode (paper §1.2).
    pub mode: Mode,
    /// The dispatch engine: there is one, sent as byte 1; the field goes
    /// with the next protocol version.
    pub dispatch: DispatchMode,
    /// Instruction budget; `None` is unlimited.
    pub fuel: Option<u64>,
    /// Page cap on the materialized heap footprint; `None` is unlimited.
    pub max_heap_pages: Option<usize>,
    /// Wall-clock budget in milliseconds, measured from admission (so
    /// queueing delay counts); `None` defers to the server's default.
    pub deadline_ms: Option<u64>,
    /// Tenant id for rate limiting and fair shedding. Empty means
    /// anonymous: the server falls back to the hashed client address, so
    /// one flooding connection still cannot starve the rest.
    pub tenant: String,
    /// MiniML source text.
    pub src: String,
}

/// Outcome classification of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The program ran to completion; `result` holds the rendered value.
    Ok,
    /// The source did not compile; `result` holds the error.
    CompileError,
    /// An exception escaped; `result` holds the error.
    UncaughtException,
    /// The fuel quota was exhausted.
    OutOfFuel,
    /// The memory quota was breached.
    QuotaExceeded,
    /// The request frame itself was malformed.
    BadRequest,
    /// The request was shed at admission (queue full, or the server is
    /// draining) and was never executed; `retry_after_ms` advises when to
    /// try again.
    Overloaded,
    /// The tenant's token bucket was empty; the request was never
    /// executed. `retry_after_ms` is the time until a token accrues.
    RateLimited,
    /// The wall-clock deadline passed at a safe point mid-execution.
    DeadlineExceeded,
    /// Server-initiated typed close (idle timeout or a frame that
    /// stalled mid-read); no further responses follow on this connection.
    Closed,
}

impl Status {
    /// True for outcomes produced by actually executing the program —
    /// these are deterministic and must be bit-identical across
    /// responses; shed/limited/deadline outcomes are load- and
    /// clock-dependent and are tallied instead of compared.
    pub fn is_deterministic(self) -> bool {
        matches!(
            self,
            Status::Ok
                | Status::CompileError
                | Status::UncaughtException
                | Status::OutOfFuel
                | Status::QuotaExceeded
        )
    }

    fn to_byte(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::CompileError => 1,
            Status::UncaughtException => 2,
            Status::OutOfFuel => 3,
            Status::QuotaExceeded => 4,
            Status::BadRequest => 5,
            Status::Overloaded => 6,
            Status::RateLimited => 7,
            Status::DeadlineExceeded => 8,
            Status::Closed => 9,
        }
    }

    fn from_byte(b: u8) -> io::Result<Status> {
        Ok(match b {
            0 => Status::Ok,
            1 => Status::CompileError,
            2 => Status::UncaughtException,
            3 => Status::OutOfFuel,
            4 => Status::QuotaExceeded,
            5 => Status::BadRequest,
            6 => Status::Overloaded,
            7 => Status::RateLimited,
            8 => Status::DeadlineExceeded,
            9 => Status::Closed,
            other => return Err(bad(format!("unknown status byte {other}"))),
        })
    }
}

/// The server's answer to one [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's `req_id`.
    pub req_id: u64,
    /// Outcome classification.
    pub status: Status,
    /// Id of the worker that executed the request (for per-worker
    /// aggregation in the load generator); `u32::MAX` when the request
    /// never reached a worker (shed, rate-limited, bad frame).
    pub worker: u32,
    /// Backoff advice in milliseconds for `Overloaded`/`RateLimited`
    /// responses (0 otherwise).
    pub retry_after_ms: u32,
    /// Depth of the admission queue when this request was admitted (or
    /// shed) — the load driver aggregates these into `queue_depth_p99`.
    pub queue_depth: u32,
    /// Instructions executed (0 unless `Ok`).
    pub instructions: u64,
    /// Collections performed (0 unless `Ok`).
    pub gc_count: u64,
    /// Words copied by the collector (0 unless `Ok`).
    pub gc_copied_words: u64,
    /// Wall-clock nanoseconds spent collecting (0 unless `Ok`).
    pub gc_time_ns: u64,
    /// Peak memory footprint in bytes (0 unless `Ok`).
    pub peak_bytes: u64,
    /// Rendered result value (`Ok`) or error text (otherwise).
    pub result: String,
    /// Everything the program printed.
    pub output: String,
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Wire encoding of a [`Mode`] (also the server's cache-key byte).
pub fn mode_byte(m: Mode) -> u8 {
    match m {
        Mode::R => 0,
        Mode::Rt => 1,
        Mode::Gt => 2,
        Mode::Rgt => 3,
        Mode::Baseline => 4,
    }
}

fn mode_of(b: u8) -> io::Result<Mode> {
    Ok(match b {
        0 => Mode::R,
        1 => Mode::Rt,
        2 => Mode::Gt,
        3 => Mode::Rgt,
        4 => Mode::Baseline,
        other => return Err(bad(format!("unknown mode byte {other}"))),
    })
}

/// Wire encoding of a [`DispatchMode`].
fn dispatch_byte(d: DispatchMode) -> u8 {
    match d {
        DispatchMode::Threaded => 1,
    }
}

/// Byte 1 is the one engine. An old client may still send 0, 2 or 3, the
/// values of deleted engines: those are refused like any unknown byte,
/// never remapped to the live one.
fn dispatch_of(b: u8) -> Option<DispatchMode> {
    (b == 1).then_some(DispatchMode::Threaded)
}

/// The constant answer to a request naming an engine the server lacks.
pub const UNKNOWN_DISPATCH: &str = "bad request: unknown dispatch engine";

/// Why [`decode_request`] refused a frame payload.
#[derive(Debug)]
pub enum DecodeError {
    /// The payload is malformed: nothing in it, the request id included,
    /// can be trusted.
    Malformed(io::Error),
    /// An otherwise well-formed request whose dispatch byte names no
    /// engine. Frame boundary and request id are intact, so the server
    /// answers it and keeps the connection.
    UnknownDispatch {
        /// The refused request's id, for the response.
        req_id: u64,
    },
}

impl From<io::Error> for DecodeError {
    fn from(e: io::Error) -> Self {
        DecodeError::Malformed(e)
    }
}

impl From<DecodeError> for io::Error {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Malformed(e) => e,
            DecodeError::UnknownDispatch { .. } => bad(UNKNOWN_DISPATCH.to_string()),
        }
    }
}

// ------------------------------------------------------- payload cursors

struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| bad("truncated frame".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> io::Result<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| bad(format!("invalid UTF-8: {e}")))
    }

    fn done(&self) -> io::Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(bad(format!("{} trailing bytes", self.buf.len() - self.pos)))
        }
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Reads one frame payload (length prefix + bytes).
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(bad(format!("frame of {len} bytes exceeds MAX_FRAME")));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// Writes one frame (length prefix + payload) with a single `write`: on a
/// socket, a header sent on its own is a small segment the peer's delayed
/// ACK holds up the payload behind (40 ms per frame on Linux).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)
}

/// Encodes a request into a frame payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(51 + req.tenant.len() + req.src.len());
    out.push(VERSION);
    out.extend_from_slice(&req.req_id.to_le_bytes());
    out.push(mode_byte(req.mode));
    out.push(dispatch_byte(req.dispatch));
    out.extend_from_slice(&req.fuel.unwrap_or(0).to_le_bytes());
    out.extend_from_slice(&(req.max_heap_pages.unwrap_or(0) as u64).to_le_bytes());
    out.extend_from_slice(&req.deadline_ms.unwrap_or(0).to_le_bytes());
    put_str(&mut out, &req.tenant);
    put_str(&mut out, &req.src);
    out
}

/// Decodes a request frame payload. The dispatch byte is judged last, so
/// [`DecodeError::UnknownDispatch`] means everything else checked out.
pub fn decode_request(payload: &[u8]) -> Result<Request, DecodeError> {
    let mut c = Cur {
        buf: payload,
        pos: 0,
    };
    let version = c.u8()?;
    if version != VERSION {
        return Err(bad(format!("protocol version {version}, expected {VERSION}")).into());
    }
    let req_id = c.u64()?;
    let mode = mode_of(c.u8()?)?;
    let dispatch_byte = c.u8()?;
    let fuel = match c.u64()? {
        0 => None,
        n => Some(n),
    };
    let max_heap_pages = match c.u64()? {
        0 => None,
        n => Some(n as usize),
    };
    let deadline_ms = match c.u64()? {
        0 => None,
        n => Some(n),
    };
    let tenant = c.str()?;
    let src = c.str()?;
    c.done()?;
    let Some(dispatch) = dispatch_of(dispatch_byte) else {
        return Err(DecodeError::UnknownDispatch { req_id });
    };
    Ok(Request {
        req_id,
        mode,
        dispatch,
        fuel,
        max_heap_pages,
        deadline_ms,
        tenant,
        src,
    })
}

/// Encodes a response into a frame payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(69 + resp.result.len() + resp.output.len());
    out.extend_from_slice(&resp.req_id.to_le_bytes());
    out.push(resp.status.to_byte());
    out.extend_from_slice(&resp.worker.to_le_bytes());
    out.extend_from_slice(&resp.retry_after_ms.to_le_bytes());
    out.extend_from_slice(&resp.queue_depth.to_le_bytes());
    out.extend_from_slice(&resp.instructions.to_le_bytes());
    out.extend_from_slice(&resp.gc_count.to_le_bytes());
    out.extend_from_slice(&resp.gc_copied_words.to_le_bytes());
    out.extend_from_slice(&resp.gc_time_ns.to_le_bytes());
    out.extend_from_slice(&resp.peak_bytes.to_le_bytes());
    put_str(&mut out, &resp.result);
    put_str(&mut out, &resp.output);
    out
}

/// Decodes a response frame payload.
pub fn decode_response(payload: &[u8]) -> io::Result<Response> {
    let mut c = Cur {
        buf: payload,
        pos: 0,
    };
    let req_id = c.u64()?;
    let status = Status::from_byte(c.u8()?)?;
    let worker = c.u32()?;
    let retry_after_ms = c.u32()?;
    let queue_depth = c.u32()?;
    let instructions = c.u64()?;
    let gc_count = c.u64()?;
    let gc_copied_words = c.u64()?;
    let gc_time_ns = c.u64()?;
    let peak_bytes = c.u64()?;
    let result = c.str()?;
    let output = c.str()?;
    c.done()?;
    Ok(Response {
        req_id,
        status,
        worker,
        retry_after_ms,
        queue_depth,
        instructions,
        gc_count,
        gc_copied_words,
        gc_time_ns,
        peak_bytes,
        result,
        output,
    })
}

/// Writes a request as one frame.
pub fn write_request(w: &mut impl Write, req: &Request) -> io::Result<()> {
    write_frame(w, &encode_request(req))
}

/// Reads a request frame.
pub fn read_request(r: &mut impl Read) -> io::Result<Request> {
    Ok(decode_request(&read_frame(r)?)?)
}

/// Writes a response as one frame.
pub fn write_response(w: &mut impl Write, resp: &Response) -> io::Result<()> {
    write_frame(w, &encode_response(resp))
}

/// Reads a response frame.
pub fn read_response(r: &mut impl Read) -> io::Result<Response> {
    decode_response(&read_frame(r)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let req = Request {
            req_id: 77,
            mode: Mode::Rgt,
            dispatch: DispatchMode::Threaded,
            fuel: Some(1_000_000),
            max_heap_pages: Some(64),
            deadline_ms: Some(250),
            tenant: "acme".to_string(),
            src: "val it = 1 + 2".to_string(),
        };
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        let back = read_request(&mut buf.as_slice()).unwrap();
        assert_eq!(req, back);
    }

    #[test]
    fn response_round_trips() {
        let resp = Response {
            req_id: 99,
            status: Status::QuotaExceeded,
            worker: 3,
            retry_after_ms: 40,
            queue_depth: 17,
            instructions: 123,
            gc_count: 4,
            gc_copied_words: 5,
            gc_time_ns: 6,
            peak_bytes: 7,
            result: "memory quota exceeded (9 pages > cap of 8)".to_string(),
            output: "partial\n".to_string(),
        };
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        let back = read_response(&mut buf.as_slice()).unwrap();
        assert_eq!(resp, back);
    }

    #[test]
    fn malformed_frames_are_invalid_data() {
        // Truncated payload.
        let req = encode_request(&Request {
            req_id: 1,
            mode: Mode::R,
            dispatch: DispatchMode::Threaded,
            fuel: None,
            max_heap_pages: None,
            deadline_ms: None,
            tenant: String::new(),
            src: "val it = 0".to_string(),
        });
        let e = io::Error::from(decode_request(&req[..req.len() - 1]).unwrap_err());
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        // Unknown mode byte.
        let mut payload = req.clone();
        payload[9] = 200;
        let e = io::Error::from(decode_request(&payload).unwrap_err());
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        // Unknown dispatch byte (0, 2 and 3 are retired values): typed,
        // with the request id, and only when the rest of the frame is sound.
        for b in [0, 2, 3, 255] {
            let mut payload = req.clone();
            payload[10] = b;
            match decode_request(&payload) {
                Err(DecodeError::UnknownDispatch { req_id: 1 }) => {}
                other => panic!("dispatch byte {b}: {other:?}"),
            }
            payload.push(0); // trailing garbage outranks the dispatch byte
            match decode_request(&payload) {
                Err(DecodeError::Malformed(_)) => {}
                other => panic!("dispatch byte {b} + trailing byte: {other:?}"),
            }
        }
        // Oversized frame length.
        let mut framed = Vec::new();
        framed.extend_from_slice(&u32::MAX.to_le_bytes());
        let e = read_frame(&mut framed.as_slice()).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
    }
}
