//! The nonblocking serving engine: one readiness-driven event loop
//! (`epoll`) owning every connection, plus a small pool of prediction
//! workers behind a bounded admission queue.
//!
//! ```text
//!             epoll_wait
//!   listener ───────────► accept (nonblocking)
//!   sockets  ───────────► read → RequestParser → dispatch
//!                             ├─ non-predict: handled inline, response
//!                             │  queued at its sequence number
//!                             └─ POST /predict:
//!                                  queue full → 429 + Retry-After
//!                                  else       → admission queue
//!   wake pipe ──────────► drain worker completions → flush per-conn
//!
//!   worker: pop job, wait ≤ batch_window for more (≤ max_batch),
//!           parse all, ONE coalesced forest pass, render responses,
//!           push completions, wake the loop
//! ```
//!
//! Correctness notes:
//!
//! * **Pipelining** — requests on one connection get ascending sequence
//!   numbers; completed responses park in a `BTreeMap` until every earlier
//!   sequence has been appended to the write buffer, so responses always
//!   leave in request order no matter how workers interleave.
//! * **Backpressure** — the admission bound counts in-flight `/predict`
//!   jobs (queued + executing). At the bound the loop answers `429` with
//!   `Retry-After` immediately instead of queueing without limit; rejected
//!   requests never touch a worker. Per connection, a peer that pipelines
//!   requests without reading the replies is paused: while it is owed more
//!   than [`MAX_OWED_BYTES`] of responses the loop neither reads from it
//!   nor dispatches its buffered requests, so the peer's own send buffer
//!   fills and blocks it instead of the server's memory growing. Dispatch
//!   resumes as the backlog drains.
//! * **Graceful shutdown** — on [`crate::ServerHandle::stop`] the loop
//!   deregisters the listener, stops reading, finishes queued and
//!   executing jobs, flushes every pending response, then joins the
//!   workers. A hard deadline bounds the drain against stuck peers.

#![cfg(target_os = "linux")]

use crate::http::{HttpError, Request, RequestParser, Response};
use crate::metrics::Route;
use crate::server::{
    elapsed_us, next_trace_id, predict_model_key, predict_responses, resolve_predict_target,
    traced_handle, ServeConfig, ServerState,
};
use crate::sys::{
    Epoll, EpollEvent, WakePipe, Waker, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use bf_registry::{RegistryReader, Resolved};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const LISTENER_TOKEN: u64 = u64::MAX;
const WAKE_TOKEN: u64 = u64::MAX - 1;
/// Hard bound on how long a graceful drain waits for stuck peers.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);
/// Response bytes one connection may be owed (unflushed plus parked)
/// before the loop stops reading and dispatching its requests.
const MAX_OWED_BYTES: usize = 1 << 20;

fn token_for(gen: u32, idx: usize) -> u64 {
    ((gen as u64) << 32) | idx as u64
}

/// One response finished out of order, parked until its turn on the wire.
struct Done {
    bytes: Vec<u8>,
    close: bool,
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    /// Bytes accepted by the kernel so far start at `out_pos`.
    out: Vec<u8>,
    out_pos: usize,
    /// Sequence number assigned to the next parsed request.
    next_seq: u64,
    /// Next sequence expected on the wire.
    flush_seq: u64,
    /// Completed responses waiting for earlier sequences to flush.
    ready: BTreeMap<u64, Done>,
    /// Total bytes of the responses in `ready`.
    ready_bytes: usize,
    /// Jobs dispatched to workers and not yet completed.
    inflight: usize,
    /// The peer closed its side; requests still in the parser are
    /// dispatched before reading stops.
    peer_eof: bool,
    /// No further reads: client EOF, `Connection: close`, a parse error,
    /// or a draining server.
    stop_reading: bool,
    /// Close once the backlog has flushed.
    close_when_flushed: bool,
    /// Unusable socket; close regardless of backlog.
    broken: bool,
    /// Currently registered epoll interest.
    interest: u32,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            parser: RequestParser::new(),
            out: Vec::new(),
            out_pos: 0,
            next_seq: 0,
            flush_seq: 0,
            ready: BTreeMap::new(),
            ready_bytes: 0,
            inflight: 0,
            peer_eof: false,
            stop_reading: false,
            close_when_flushed: false,
            broken: false,
            interest: EPOLLIN | EPOLLRDHUP,
        }
    }

    /// Parks a finished response at its sequence slot.
    fn park(&mut self, seq: u64, done: Done) {
        self.ready_bytes += done.bytes.len();
        self.ready.insert(seq, done);
    }

    /// Moves in-order completed responses into the write buffer.
    fn flush_ready(&mut self) {
        while let Some(done) = self.ready.remove(&self.flush_seq) {
            self.ready_bytes -= done.bytes.len();
            self.out.extend_from_slice(&done.bytes);
            if done.close {
                self.close_when_flushed = true;
            }
            self.flush_seq += 1;
        }
    }

    /// Writes what the socket will take. `false` means the peer is gone.
    fn try_write(&mut self) -> bool {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return false,
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        true
    }

    /// Over its owed-bytes cap: no reads, no dispatch until it drains.
    fn paused(&self) -> bool {
        self.out.len() - self.out_pos + self.ready_bytes > MAX_OWED_BYTES
    }

    /// Whether the loop takes new requests from this connection now.
    fn accepting(&self) -> bool {
        !self.stop_reading && !self.paused()
    }

    /// Anything still owed to the peer?
    fn has_backlog(&self) -> bool {
        !self.out.is_empty() || !self.ready.is_empty() || self.inflight > 0
    }

    fn should_close(&self) -> bool {
        self.broken || ((self.close_when_flushed || self.stop_reading) && !self.has_backlog())
    }

    /// Re-arms epoll interest to match what the connection can make
    /// progress on.
    fn sync_interest(&mut self, epoll: &Epoll, token: u64) {
        let mut want = 0u32;
        if self.accepting() && !self.peer_eof {
            want |= EPOLLIN | EPOLLRDHUP;
        }
        if !self.out.is_empty() {
            want |= EPOLLOUT;
        }
        if want != self.interest && epoll.modify(self.stream.as_raw_fd(), want, token).is_ok() {
            self.interest = want;
        }
    }
}

/// Queues a rendered response at its sequence slot.
fn respond_inline(conn: &mut Conn, seq: u64, response: Response, trace_id: String, close: bool) {
    let response = response.with_header("X-BF-Trace-Id", trace_id);
    let mut bytes = Vec::with_capacity(256 + response.body.len());
    let _ = response.write_to(&mut bytes, close);
    conn.park(seq, Done { bytes, close });
}

/// One queued `/predict` request with its delivery coordinates. The model
/// was resolved at dispatch time: swaps concurrent with the queue wait
/// cannot change (or mix) what this request predicts with.
struct QueuedJob {
    token: u64,
    seq: u64,
    close: bool,
    request: Request,
    started: Instant,
    trace_id: String,
    resolved: Resolved,
}

/// A worker's finished response, headed back to the event loop.
struct Completion {
    token: u64,
    seq: u64,
    bytes: Vec<u8>,
    close: bool,
}

/// The bounded admission queue feeding the prediction workers.
#[derive(Default)]
struct JobQueue {
    inner: Mutex<QueueInner>,
    cond: Condvar,
}

#[derive(Default)]
struct QueueInner {
    jobs: VecDeque<QueuedJob>,
    quit: bool,
}

impl JobQueue {
    fn push(&self, job: QueuedJob) {
        self.inner.lock().unwrap().jobs.push_back(job);
        self.cond.notify_one();
    }

    fn quit(&self) {
        self.inner.lock().unwrap().quit = true;
        self.cond.notify_all();
    }

    /// Blocks for the first job, then coalesces whatever else arrives
    /// within `window` (up to `max_batch`) into one micro-batch. A zero
    /// window takes only what is already queued — batches grow with
    /// backlog but a lone request is never delayed. Returns `None` when
    /// the queue is shut down and empty.
    fn pop_batch(&self, window: Duration, max_batch: usize) -> Option<Vec<QueuedJob>> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(first) = inner.jobs.pop_front() {
                let mut batch = vec![first];
                if window.is_zero() {
                    while batch.len() < max_batch {
                        match inner.jobs.pop_front() {
                            Some(j) => batch.push(j),
                            None => break,
                        }
                    }
                    return Some(batch);
                }
                let deadline = Instant::now() + window;
                loop {
                    while batch.len() < max_batch {
                        match inner.jobs.pop_front() {
                            Some(j) => batch.push(j),
                            None => break,
                        }
                    }
                    if batch.len() >= max_batch || inner.quit {
                        break;
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    if !inner.jobs.is_empty() {
                        continue;
                    }
                    let (guard, timeout) = self.cond.wait_timeout(inner, deadline - now).unwrap();
                    inner = guard;
                    if timeout.timed_out() && inner.jobs.is_empty() {
                        break;
                    }
                }
                return Some(batch);
            }
            if inner.quit {
                return None;
            }
            inner = self.cond.wait(inner).unwrap();
        }
    }
}

/// A prediction worker: pop a micro-batch, run one coalesced forest pass,
/// ship rendered responses back, wake the loop. Each request's route
/// metric and `request` span are recorded here, so the loop only ships
/// bytes.
fn worker_loop(
    state: Arc<ServerState>,
    queue: Arc<JobQueue>,
    completions: Arc<Mutex<Vec<Completion>>>,
    waker: Waker,
    window: Duration,
    max_batch: usize,
) {
    while let Some(batch) = queue.pop_batch(window, max_batch) {
        let requests: Vec<(&Request, &Resolved)> =
            batch.iter().map(|qj| (&qj.request, &qj.resolved)).collect();
        let responses = predict_responses(&state, &requests);
        let mut out = Vec::with_capacity(batch.len());
        for (qj, response) in batch.iter().zip(responses) {
            let mut span = bf_trace::span!(
                "request",
                method = qj.request.method.as_str(),
                path = qj.request.path.as_str(),
            );
            if span.is_active() {
                span.attr("trace_id", qj.trace_id.as_str());
                span.attr("status", response.status);
                span.attr("batched_with", batch.len() as u64);
            }
            drop(span);
            state
                .metrics
                .observe(Route::Predict, response.status, elapsed_us(qj.started));
            let response = response.with_header("X-BF-Trace-Id", qj.trace_id.clone());
            let mut bytes = Vec::with_capacity(256 + response.body.len());
            let _ = response.write_to(&mut bytes, qj.close);
            out.push(Completion {
                token: qj.token,
                seq: qj.seq,
                bytes,
                close: qj.close,
            });
        }
        completions.lock().unwrap().extend(out);
        waker.wake();
    }
}

struct Slot {
    gen: u32,
    conn: Option<Conn>,
}

/// Everything the loop needs to dispatch requests, besides their
/// connection.
struct Dispatcher<'a> {
    state: &'a ServerState,
    /// The loop's registry view: one atomic epoch check per resolve, a
    /// table re-read only after a publication.
    registry_reader: RegistryReader,
    queue: &'a JobQueue,
    max_queue: usize,
}

impl Dispatcher<'_> {
    /// Reads what the socket has, one chunk at a time, dispatching the
    /// complete requests after each chunk; stops early once the connection
    /// is paused.
    fn read(&mut self, conn: &mut Conn, token: u64) {
        let mut buf = [0u8; 16 * 1024];
        while conn.accepting() && !conn.peer_eof {
            match conn.stream.read(&mut buf) {
                Ok(0) => conn.peer_eof = true,
                Ok(n) => {
                    conn.parser.push(&buf[..n]);
                    self.dispatch_buffered(conn, token);
                    if n < buf.len() {
                        break; // level-triggered epoll re-reports any rest
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.broken = true;
                    return;
                }
            }
        }
        self.dispatch_buffered(conn, token);
    }

    /// Dispatches the complete requests in the parser while the connection
    /// accepts them. After peer EOF, once none is left, a trailing partial
    /// request is answered `400` and reading stops.
    fn dispatch_buffered(&mut self, conn: &mut Conn, token: u64) {
        while conn.accepting() {
            match conn.parser.next_request() {
                Ok(Some(request)) => self.dispatch(conn, token, request),
                Ok(None) => {
                    if conn.peer_eof {
                        if conn.parser.has_partial() {
                            let message = "connection closed mid-request";
                            self.reject(conn, 400, message);
                        }
                        conn.stop_reading = true;
                    }
                    break;
                }
                // Same accounting as the blocking engine: parse failures
                // land on Route::Other and close the connection.
                Err(HttpError { status, message }) => {
                    self.reject(conn, status, &message);
                    conn.stop_reading = true;
                }
            }
        }
    }

    /// Answers an unparseable stream with `status` and closes after it.
    fn reject(&self, conn: &mut Conn, status: u16, message: &str) {
        let started = Instant::now();
        let trace_id = next_trace_id();
        self.state
            .metrics
            .observe(Route::Other, status, elapsed_us(started));
        let seq = conn.next_seq;
        conn.next_seq += 1;
        respond_inline(conn, seq, Response::error(status, message), trace_id, true);
    }

    /// Routes one parsed request: `/predict` (and its per-model variants)
    /// is resolved to a model *here* — so a hot swap cannot change what the
    /// request predicts with while it waits — then goes through admission
    /// control to the workers; everything else is answered inline.
    fn dispatch(&mut self, conn: &mut Conn, token: u64, request: Request) {
        let state = self.state;
        let started = Instant::now();
        let trace_id = next_trace_id();
        let close = request.wants_close();
        let seq = conn.next_seq;
        conn.next_seq += 1;
        if close {
            // Honor `Connection: close`: this is the last request we parse.
            conn.stop_reading = true;
        }
        let predict_key = if request.method == "POST" {
            predict_model_key(&request.path)
        } else {
            None
        };
        let Some(key) = predict_key else {
            let (route, response) =
                traced_handle(&request, state, &mut self.registry_reader, &trace_id);
            state
                .metrics
                .observe(route, response.status, elapsed_us(started));
            respond_inline(conn, seq, response, trace_id, close);
            return;
        };
        let resolved = match resolve_predict_target(&request.path, key, &mut self.registry_reader) {
            Ok(r) => r,
            Err(response) => {
                state
                    .metrics
                    .observe(Route::Predict, response.status, elapsed_us(started));
                respond_inline(conn, seq, response, trace_id, close);
                return;
            }
        };
        if state.metrics.queue_depth() >= self.max_queue as u64 {
            state.metrics.queue_reject();
            bf_trace::counter!("serve.queue.rejections");
            let response = Response::error(429, "prediction queue is full; retry shortly")
                .with_header("Retry-After", "1".to_string());
            state
                .metrics
                .observe(Route::Predict, 429, elapsed_us(started));
            respond_inline(conn, seq, response, trace_id, close);
        } else {
            state.metrics.queue_enter();
            conn.inflight += 1;
            self.queue.push(QueuedJob {
                token,
                seq,
                close,
                request,
                started,
                trace_id,
                resolved,
            });
        }
    }
}

fn close_conn(slots: &mut [Slot], free: &mut Vec<usize>, epoll: &Epoll, idx: usize) {
    if let Some(conn) = slots[idx].conn.take() {
        let _ = epoll.delete(conn.stream.as_raw_fd());
        slots[idx].gen = slots[idx].gen.wrapping_add(1);
        free.push(idx);
    }
}

/// Flush + write + (close | re-arm) one connection after any activity.
/// A paused connection whose backlog drained dispatches the requests
/// already in its parser here: no `EPOLLIN` will announce bytes that left
/// the socket while it was paused.
fn service_conn(
    slots: &mut [Slot],
    free: &mut Vec<usize>,
    epoll: &Epoll,
    idx: usize,
    dispatcher: &mut Dispatcher,
) {
    let gen = slots[idx].gen;
    let token = token_for(gen, idx);
    let Some(conn) = slots[idx].conn.as_mut() else {
        return;
    };
    conn.flush_ready();
    let mut alive = conn.try_write();
    if alive && conn.accepting() && (conn.peer_eof || conn.parser.has_partial()) {
        dispatcher.dispatch_buffered(conn, token);
        conn.flush_ready();
        alive = conn.try_write();
    }
    if !alive || conn.should_close() {
        close_conn(slots, free, epoll, idx);
        return;
    }
    conn.sync_interest(epoll, token);
}

/// Runs the event loop until shutdown. Consumes the listener; returns once
/// in-flight work has drained and the workers have joined.
pub(crate) fn run(listener: TcpListener, state: Arc<ServerState>, config: &ServeConfig) {
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");
    let epoll = Epoll::new().expect("epoll_create1");
    let wake = WakePipe::new().expect("wake pipe");
    epoll
        .add(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)
        .expect("register listener");
    epoll
        .add(wake.read_fd(), EPOLLIN, WAKE_TOKEN)
        .expect("register wake pipe");

    let queue = Arc::new(JobQueue::default());
    let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));
    let workers: Vec<_> = (0..config.threads.max(1))
        .map(|i| {
            let state = Arc::clone(&state);
            let queue = Arc::clone(&queue);
            let completions = Arc::clone(&completions);
            let waker = wake.waker();
            let window = config.batch_window;
            let max_batch = config.max_batch.max(1);
            std::thread::Builder::new()
                .name(format!("bf-serve-worker-{i}"))
                .spawn(move || worker_loop(state, queue, completions, waker, window, max_batch))
                .expect("spawn prediction worker")
        })
        .collect();

    let mut slots: Vec<Slot> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut dispatcher = Dispatcher {
        state: &state,
        registry_reader: state.registry.reader(),
        queue: &queue,
        max_queue: config.max_queue.max(1),
    };
    let mut events = vec![
        EpollEvent {
            events: 0,
            token: 0
        };
        256
    ];
    let mut draining = false;
    let mut drain_started = Instant::now();

    loop {
        if !draining && state.shutdown.load(Ordering::SeqCst) {
            draining = true;
            drain_started = Instant::now();
            let _ = epoll.delete(listener.as_raw_fd());
            // Stop reading everywhere; idle connections close right away,
            // the rest flush their backlog first.
            for idx in 0..slots.len() {
                if let Some(conn) = slots[idx].conn.as_mut() {
                    conn.stop_reading = true;
                }
                service_conn(&mut slots, &mut free, &epoll, idx, &mut dispatcher);
            }
        }
        if draining {
            let quiet = state.metrics.queue_depth() == 0 && slots.iter().all(|s| s.conn.is_none());
            if quiet || drain_started.elapsed() > DRAIN_DEADLINE {
                break;
            }
        }
        let timeout_ms = if draining { 20 } else { 500 };
        let ready = match epoll.wait(&mut events, timeout_ms) {
            Ok(r) => r,
            Err(_) => break,
        };
        let mut accept_pending = false;
        let mut woken = false;
        let mut touched: Vec<(usize, u32)> = Vec::new();
        for ev in ready {
            match ev.token {
                LISTENER_TOKEN => accept_pending = true,
                WAKE_TOKEN => woken = true,
                token => touched.push(((token & 0xffff_ffff) as usize, ev.events)),
            }
        }

        if accept_pending && !draining {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let _ = stream.set_nonblocking(true);
                        let _ = stream.set_nodelay(true);
                        let idx = free.pop().unwrap_or_else(|| {
                            slots.push(Slot { gen: 0, conn: None });
                            slots.len() - 1
                        });
                        let token = token_for(slots[idx].gen, idx);
                        if epoll
                            .add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, token)
                            .is_ok()
                        {
                            slots[idx].conn = Some(Conn::new(stream));
                        } else {
                            free.push(idx);
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
        }

        for (idx, ev_mask) in touched {
            if idx >= slots.len() || slots[idx].conn.is_none() {
                continue; // closed earlier in this batch; gen'd token is stale
            }
            let token = token_for(slots[idx].gen, idx);
            if ev_mask & (EPOLLERR | EPOLLHUP) != 0 {
                close_conn(&mut slots, &mut free, &epoll, idx);
                continue;
            }
            if ev_mask & (EPOLLIN | EPOLLRDHUP) != 0 {
                let conn = slots[idx].conn.as_mut().expect("live conn");
                dispatcher.read(conn, token);
            }
            service_conn(&mut slots, &mut free, &epoll, idx, &mut dispatcher);
        }

        if woken {
            wake.drain();
        }
        // Always sweep completions: a wake byte can coalesce with other
        // events or races, so delivery must not depend on seeing it.
        let done: Vec<Completion> = std::mem::take(&mut *completions.lock().unwrap());
        for completion in done {
            state.metrics.queue_exit();
            let idx = (completion.token & 0xffff_ffff) as usize;
            let gen = (completion.token >> 32) as u32;
            if idx >= slots.len() || slots[idx].gen != gen {
                continue; // connection died while the job was in flight
            }
            let Some(conn) = slots[idx].conn.as_mut() else {
                continue;
            };
            conn.inflight -= 1;
            conn.park(
                completion.seq,
                Done {
                    bytes: completion.bytes,
                    close: completion.close,
                },
            );
            service_conn(&mut slots, &mut free, &epoll, idx, &mut dispatcher);
        }
    }

    // Workers finish whatever is still queued, then exit.
    queue.quit();
    for w in workers {
        let _ = w.join();
    }
}
