//! A minimal blocking client for the wire protocol — enough for tests,
//! the verify smoke leg, and one-off calls. The load generator drives
//! connections directly (it needs pipelining; see [`crate::load`]).

use crate::wire::{self, Request, Response};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

/// One connection, used call-by-call (no pipelining).
pub struct Client {
    stream: TcpStream,
    next_id: u64,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Call-by-call traffic: a frame must leave when it is written, not
        // when the previous one has been acknowledged.
        stream.set_nodelay(true)?;
        Ok(Client { stream, next_id: 1 })
    }

    /// Sends `req` and waits for its response.
    ///
    /// # Errors
    ///
    /// Propagates socket and protocol errors.
    pub fn send(&mut self, req: &Request) -> io::Result<Response> {
        wire::write_request(&mut self.stream, req)?;
        wire::read_response(&mut self.stream)
    }

    /// Sends a request built from parts, assigning the next request id.
    /// `dispatch` names the one engine and changes nothing.
    ///
    /// # Errors
    ///
    /// Propagates socket and protocol errors.
    pub fn call(
        &mut self,
        mode: kit::Mode,
        _dispatch: kit::DispatchMode,
        fuel: Option<u64>,
        max_heap_pages: Option<usize>,
        src: &str,
    ) -> io::Result<Response> {
        self.call_as("", None, mode, fuel, max_heap_pages, src)
    }

    /// Like [`call`], with an explicit tenant id and wall-clock budget
    /// (milliseconds from admission).
    ///
    /// [`call`]: Client::call
    ///
    /// # Errors
    ///
    /// Propagates socket and protocol errors.
    pub fn call_as(
        &mut self,
        tenant: &str,
        deadline_ms: Option<u64>,
        mode: kit::Mode,
        fuel: Option<u64>,
        max_heap_pages: Option<usize>,
        src: &str,
    ) -> io::Result<Response> {
        let req_id = self.next_id;
        self.next_id += 1;
        self.send(&Request {
            req_id,
            mode,
            dispatch: kit::DispatchMode::Threaded,
            fuel,
            max_heap_pages,
            deadline_ms: deadline_ms.filter(|&ms| ms > 0),
            tenant: tenant.to_string(),
            src: src.to_string(),
        })
    }
}
