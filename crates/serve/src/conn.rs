//! Per-connection state machine for the readiness loop.
//!
//! Each accepted socket gets a [`Conn`]: a read buffer whose unparsed
//! bytes carry over across requests (pipelining), an incremental
//! [`RequestParser`], a write queue, and activity timestamps the server
//! turns into idle/read/write deadlines. All parsing and routing happens
//! on the event-loop thread; only job execution leaves it (via the
//! bounded queue and the worker pool).

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use crate::http::{RequestParser, Response};
use crate::router;
use crate::server::ServeContext;

/// Why a connection was closed — the event loop maps this to metrics.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum CloseReason {
    /// Normal end of life: negotiated close, client EOF between
    /// requests, or drain.
    Done,
    /// The peer vanished or the socket failed mid-request, or a read
    /// deadline expired with a partial request buffered.
    MidRequest,
    /// An idle kept-alive connection outlived the keep-alive timeout.
    Idle,
}

/// What the connection wants from the poller next.
pub(crate) struct Interest {
    pub(crate) read: bool,
    pub(crate) write: bool,
}

/// One live connection.
pub(crate) struct Conn {
    stream: TcpStream,
    fd: i32,
    parser: RequestParser,
    /// Read-side carryover: bytes received but not yet parsed. Survives
    /// across requests so pipelined submissions are never dropped.
    buf: Vec<u8>,
    /// Write queue (already-serialized responses) and its send cursor.
    out: Vec<u8>,
    out_pos: usize,
    /// Once set, no further requests are parsed; the connection closes
    /// as soon as `out` flushes.
    close_after_flush: bool,
    /// Requests fully served on this connection (the per-connection
    /// histogram sample).
    pub(crate) requests_served: u64,
    /// Last moment bytes moved in either direction (or the accept
    /// instant); deadlines are measured from here.
    pub(crate) last_activity: Instant,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, fd: i32, now: Instant) -> Self {
        Conn {
            stream,
            fd,
            parser: RequestParser::new(),
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            close_after_flush: false,
            requests_served: 0,
            last_activity: now,
        }
    }

    pub(crate) fn fd(&self) -> i32 {
        self.fd
    }

    /// True while a request prefix sits in the buffer — the difference
    /// between an idle keep-alive connection and a stalled sender.
    pub(crate) fn mid_request(&self) -> bool {
        self.parser.mid_request(&self.buf)
    }

    /// Unflushed response bytes remain.
    pub(crate) fn has_pending_write(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// An idle kept-alive connection: nothing buffered either way.
    /// These are the ones drain closes outright.
    pub(crate) fn is_idle(&self) -> bool {
        !self.mid_request() && !self.has_pending_write() && !self.close_after_flush
    }

    /// Poll interest for the next wait: stop reading once the
    /// connection is closing (drain semantics: a closing or draining
    /// connection must not buffer further requests).
    pub(crate) fn interest(&self) -> Interest {
        Interest {
            read: !self.close_after_flush,
            write: self.has_pending_write(),
        }
    }

    /// Drains the socket's receive buffer and services every complete
    /// request in it. `Err(reason)` means the connection is dead and
    /// must be dropped without further writes.
    pub(crate) fn on_readable(&mut self, ctx: &Arc<ServeContext>) -> Result<(), CloseReason> {
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    // EOF. Mid-request it's a hangup; between requests
                    // it's the client's normal close. Either way no
                    // response can be delivered.
                    return Err(if self.mid_request() {
                        CloseReason::MidRequest
                    } else {
                        CloseReason::Done
                    });
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    self.last_activity = Instant::now();
                    if n < chunk.len() {
                        break; // socket drained
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    return Err(if self.mid_request() {
                        CloseReason::MidRequest
                    } else {
                        CloseReason::Done
                    })
                }
            }
        }
        self.service(ctx);
        self.flush()
    }

    /// Parses and routes every complete request currently buffered
    /// (pipelining: one readable event can finish several requests).
    fn service(&mut self, ctx: &Arc<ServeContext>) {
        while !self.close_after_flush {
            match self.parser.try_parse(&mut self.buf) {
                Ok(Some(request)) => {
                    // Drain forces closure: kept-alive connections must
                    // not park on a draining server.
                    let keep_alive = request.wants_keep_alive() && !ctx.is_draining();
                    let response = router::route(ctx, &request);
                    let close = !keep_alive || response.close;
                    response.write_connection(&mut self.out, !close);
                    self.requests_served += 1;
                    if close {
                        self.close_after_flush = true;
                    }
                }
                Ok(None) => break, // need more bytes
                Err(e) => {
                    // Parse errors are the client's fault: answer 400
                    // and hang up.
                    Response::error(400, &e.to_string()).write_connection(&mut self.out, false);
                    self.close_after_flush = true;
                }
            }
        }
    }

    /// Expires a deadline: answers `408 Request Timeout` if a partial
    /// request is buffered (the client started talking and stalled),
    /// then closes.
    pub(crate) fn expire(&mut self) -> CloseReason {
        if self.mid_request() && !self.close_after_flush {
            Response::error(408, "request timed out mid-transfer")
                .write_connection(&mut self.out, false);
            self.close_after_flush = true;
            // Best effort: push the 408 out now; the conn drops either way.
            let _ = self.flush();
            CloseReason::MidRequest
        } else {
            CloseReason::Idle
        }
    }

    /// Pushes queued response bytes to the socket until it would block.
    /// `Err(reason)` means the connection is finished — either flushed
    /// and marked for close, or the socket died.
    pub(crate) fn flush(&mut self) -> Result<(), CloseReason> {
        while self.has_pending_write() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(CloseReason::MidRequest),
                Ok(n) => {
                    self.out_pos += n;
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(CloseReason::MidRequest),
            }
        }
        if self.out_pos == self.out.len() && !self.out.is_empty() {
            // Fully flushed: reclaim the queue.
            self.out.clear();
            self.out_pos = 0;
        }
        if self.close_after_flush {
            return Err(CloseReason::Done);
        }
        Ok(())
    }
}
