//! The server proper: shared context, the `poll(2)` readiness loop, and
//! graceful drain.
//!
//! One thread owns every socket. The listener and all connections are
//! nonblocking and multiplexed through [`poll`](crate::poll); requests
//! are parsed and routed on the loop thread (admission is cheap), and
//! only job execution crosses to the worker pool via the bounded queue.
//! The connection table is bounded by `max_conns` — connections past the
//! cap are shed at accept time with `503` + `Connection: close`, so the
//! process never grows a thread (or an fd table) proportional to client
//! count.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use swip_bench::Session;

use crate::conn::{CloseReason, Conn};
use crate::http::Response;
use crate::job::{JobRegistry, JobState};
use crate::metrics::ConnMetrics;
use crate::poll::{self, PollFd};
use crate::queue::BoundedQueue;
use crate::shutdown;
use crate::worker::{spawn_workers, QueuedJob};

/// Upper bound on one poll wait, so the loop re-checks the shutdown
/// flag and worker liveness even with no socket activity.
const POLL_CAP: Duration = Duration::from_millis(100);
/// Tighter cap while draining: worker completion has no fd to wake on.
const DRAIN_POLL_CAP: Duration = Duration::from_millis(25);

/// Knobs for [`Server::bind`]; session knobs live on
/// [`SessionBuilder`](swip_bench::SessionBuilder) instead.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:8080` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads executing jobs (each job additionally fans out on
    /// the session's own thread pool).
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it get 429.
    pub queue_depth: usize,
    /// Connection-table bound; accepts past it are shed with `503` +
    /// `Connection: close`.
    pub max_conns: usize,
    /// How long an idle kept-alive connection may sit between requests
    /// before the server closes it.
    pub keep_alive_timeout: Duration,
    /// How long a connection may stall mid-request (or mid-response)
    /// before it gets `408 Request Timeout` (or is dropped).
    pub read_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8080".to_string(),
            workers: 2,
            queue_depth: 16,
            max_conns: 256,
            keep_alive_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(10),
        }
    }
}

/// State shared by the event loop, the router, and the workers.
///
/// Obtainable via [`Server::context`] and alive after
/// [`Server::run`] returns, so embedders (and the integration tests)
/// can inspect final job states post-drain.
pub struct ServeContext {
    pub(crate) session: Session,
    pub(crate) queue: BoundedQueue<QueuedJob>,
    pub(crate) registry: JobRegistry,
    pub(crate) started: Instant,
    pub(crate) workers: usize,
    pub(crate) conns: ConnMetrics,
    pub(crate) max_conns: usize,
    pub(crate) keep_alive_timeout: Duration,
    pub(crate) read_timeout: Duration,
    draining: AtomicBool,
    rejected: AtomicU64,
}

impl ServeContext {
    /// The warm session executing this server's jobs.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// True once the server stopped accepting jobs (drain in progress
    /// or finished).
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Total submissions rejected for backpressure (429) since start.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Connections shed at accept time (`503`) because the table was
    /// at `max_conns`.
    pub fn conns_shed(&self) -> u64 {
        self.conns.shed.load(Ordering::Relaxed)
    }

    /// Connections closed for stalling mid-request (read deadline,
    /// hangup, or socket error with a partial request buffered).
    pub fn conn_timeouts(&self) -> u64 {
        self.conns.timeouts.load(Ordering::Relaxed)
    }

    /// Jobs per state, in [`JobState::ALL`] order.
    pub fn job_counts(&self) -> [u64; 4] {
        self.registry.counts()
    }

    /// The state of job `id`, if it exists.
    pub fn job_state(&self, id: u64) -> Option<JobState> {
        self.registry.with(id, |j| j.state)
    }

    pub(crate) fn count_rejection(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Stops admission and closes the queue; queued jobs still drain.
    /// Idempotent.
    pub(crate) fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.queue.close();
    }
}

/// A bound, not-yet-running service instance.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    ctx: Arc<ServeContext>,
}

impl Server {
    /// Binds the listen socket and assembles the shared context around
    /// `session`. The server does not accept connections until
    /// [`run`](Self::run).
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures (address in use, permission).
    pub fn bind(config: &ServeConfig, session: Session) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let ctx = Arc::new(ServeContext {
            session,
            queue: BoundedQueue::new(config.queue_depth.max(1)),
            registry: JobRegistry::new(),
            started: Instant::now(),
            workers: config.workers.max(1),
            conns: ConnMetrics::default(),
            max_conns: config.max_conns.max(1),
            keep_alive_timeout: config.keep_alive_timeout,
            read_timeout: config.read_timeout,
            draining: AtomicBool::new(false),
            rejected: AtomicU64::new(0),
        });
        Ok(Server {
            listener,
            local_addr,
            ctx,
        })
    }

    /// The actual bound address (resolves `:0` to the picked port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle to the shared state; clone-cheap and valid after
    /// [`run`](Self::run) returns.
    pub fn context(&self) -> Arc<ServeContext> {
        Arc::clone(&self.ctx)
    }

    /// Serves until shutdown, then drains and returns.
    ///
    /// Shutdown triggers are SIGINT/SIGTERM (via [`shutdown`]) and
    /// `POST /v1/shutdown`. From that point new submissions get 503
    /// while status/metrics requests keep working, idle kept-alive
    /// connections are closed (and no longer read from), and once the
    /// workers finish every accepted job the loop exits and the workers
    /// are joined — the "graceful drain, exit 0" contract.
    ///
    /// # Errors
    ///
    /// Propagates fatal `poll`/`accept` I/O errors. Per-connection
    /// errors (malformed requests, hangups, stalls) are contained in
    /// the connection state machine.
    pub fn run(self) -> io::Result<()> {
        shutdown::install_handlers();
        self.listener.set_nonblocking(true)?;
        let listener_fd = fd_of_listener(&self.listener);
        let workers = spawn_workers(&self.ctx, self.ctx.workers);
        let mut conns: Vec<Conn> = Vec::new();
        let mut fds: Vec<PollFd> = Vec::new();

        loop {
            if shutdown::requested() {
                self.ctx.begin_drain();
            }
            let draining = self.ctx.is_draining();
            if draining {
                // Drain stops *reading*, not just admitting: idle
                // kept-alive connections are closed outright instead of
                // parking in the poll set. Fresh connections (no request
                // served yet) stay — status/metrics must keep answering
                // during drain — and cannot delay exit, which only waits
                // on pending writes.
                let mut i = 0;
                while i < conns.len() {
                    if conns[i].is_idle() && conns[i].requests_served > 0 {
                        let conn = conns.swap_remove(i);
                        self.ctx.conns.record_close(&conn, CloseReason::Done);
                    } else {
                        i += 1;
                    }
                }
            }
            let workers_done = draining && workers.iter().all(|w| w.is_finished());
            if workers_done && conns.iter().all(|c| !c.has_pending_write()) {
                break;
            }

            // Assemble the poll set: listener first, then every
            // connection with its current interest.
            fds.clear();
            fds.push(PollFd::new(listener_fd, true, false));
            for conn in &conns {
                let interest = conn.interest();
                fds.push(PollFd::new(conn.fd(), interest.read, interest.write));
            }
            let timeout = self.poll_timeout(&conns, draining);
            poll::wait(&mut fds, timeout)?;

            if fds[0].readable() {
                self.accept_burst(&mut conns)?;
            }

            // Service events. `fds[i + 1]` corresponds to `conns[i]`
            // (new accepts sit past the polled range and wait a turn).
            let mut closed: Vec<(usize, CloseReason)> = Vec::new();
            for (i, fd) in fds.iter().enumerate().skip(1) {
                let conn = &mut conns[i - 1];
                if fd.failed() {
                    closed.push((
                        i - 1,
                        if conn.mid_request() {
                            CloseReason::MidRequest
                        } else {
                            CloseReason::Done
                        },
                    ));
                    continue;
                }
                let outcome = if fd.readable() {
                    conn.on_readable(&self.ctx)
                } else if fd.writable() {
                    conn.flush()
                } else {
                    Ok(())
                };
                if let Err(reason) = outcome {
                    closed.push((i - 1, reason));
                }
            }

            // Deadlines: 408 a stalled sender, drop a stalled reader,
            // close an expired idle kept-alive connection.
            let now = Instant::now();
            for (i, conn) in conns.iter_mut().enumerate() {
                if closed.iter().any(|&(j, _)| j == i) {
                    continue;
                }
                if self.deadline_of(conn).is_some_and(|d| now >= d) {
                    let reason = if conn.has_pending_write() {
                        CloseReason::MidRequest // peer stopped reading
                    } else {
                        conn.expire()
                    };
                    closed.push((i, reason));
                }
            }

            // Remove closed connections, highest index first so
            // swap_remove cannot disturb a pending removal.
            closed.sort_by_key(|c| std::cmp::Reverse(c.0));
            for (i, reason) in closed {
                let conn = conns.swap_remove(i);
                self.ctx.conns.record_close(&conn, reason);
            }

            self.ctx.conns.store_gauges(&conns);
        }

        self.ctx.conns.store_gauges(&conns);
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }

    /// Accepts until the listener would block, shedding past the
    /// connection-table bound.
    fn accept_burst(&self, conns: &mut Vec<Conn>) -> io::Result<()> {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if conns.len() >= self.ctx.max_conns {
                        shed(stream, &self.ctx);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue; // socket died between accept and setup
                    }
                    let fd = fd_of_stream(&stream);
                    conns.push(Conn::new(stream, fd, Instant::now()));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// The instant at which `conn` times out under the current config;
    /// `None` when that instant cannot be represented (no deadline).
    fn deadline_of(&self, conn: &Conn) -> Option<Instant> {
        let grace = if conn.mid_request() || conn.has_pending_write() {
            self.ctx.read_timeout
        } else {
            self.ctx.keep_alive_timeout
        };
        conn.last_activity.checked_add(grace)
    }

    /// Sleep no longer than the nearest connection deadline (capped so
    /// the loop stays responsive to signals and worker completion).
    fn poll_timeout(&self, conns: &[Conn], draining: bool) -> Duration {
        let mut timeout = if draining { DRAIN_POLL_CAP } else { POLL_CAP };
        let now = Instant::now();
        for deadline in conns.iter().filter_map(|c| self.deadline_of(c)) {
            timeout = timeout.min(deadline.saturating_duration_since(now));
        }
        timeout
    }
}

/// Accept-time shedding: the table is full, so the connection gets an
/// immediate `503` + `Connection: close` and is dropped. Bounded
/// best-effort write — a shed connection is not worth waiting on.
fn shed(stream: TcpStream, ctx: &ServeContext) {
    ctx.conns.shed.fetch_add(1, Ordering::Relaxed);
    let mut stream = stream;
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = Response::error(503, "connection table is full; retry later")
        .with_header("Retry-After", "1")
        .write_to(&mut stream);
    let _ = stream.flush();
}

#[cfg(unix)]
fn fd_of_stream(stream: &TcpStream) -> i32 {
    use std::os::unix::io::AsRawFd;
    stream.as_raw_fd()
}

#[cfg(unix)]
fn fd_of_listener(listener: &TcpListener) -> i32 {
    use std::os::unix::io::AsRawFd;
    listener.as_raw_fd()
}

// Off Unix the poll shim reports every fd ready regardless, so the fd
// value is never dereferenced — any placeholder works.
#[cfg(not(unix))]
fn fd_of_stream(_stream: &TcpStream) -> i32 {
    -1
}

#[cfg(not(unix))]
fn fd_of_listener(_listener: &TcpListener) -> i32 {
    -1
}
