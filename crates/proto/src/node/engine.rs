//! The sharded connection engine: a fixed set of epoll shard threads owns
//! every accepted socket, and a bounded worker pool services `Get`
//! requests (which may touch the network).
//!
//! Division of labor:
//!
//! * the **accept thread** blocks in `accept()` and deals new connections
//!   round-robin to the shards through an injection channel + waker;
//! * each **shard thread** runs a level-triggered epoll loop over its
//!   connections, assembling frames incrementally and answering every
//!   local-state frame (`PeerGet`, `HintBatch`, `Push`, `FindNearest`,
//!   `MetaRequest`) inline — a shard never performs outbound I/O, which
//!   is what makes peer-to-peer probing deadlock-free on a bounded
//!   thread count;
//! * `Get` frames that hit the local data cache are also answered on the
//!   shard (pure in-memory work); the rest are handed to the **worker
//!   pool**, which writes the reply straight to the client socket through
//!   the connection's shared write state — the owning shard is only poked
//!   (rare on loopback) when a short write leaves bytes pending and
//!   `EPOLLOUT` interest must be armed.
//!
//! Per-connection ordering: a connection may have many `Get`s at the
//! worker pool at once, and its replies still leave in request order. A
//! missing `Get` takes the next *reply slot* (the connection's queue of
//! unreleased replies, in request order) and travels to the pool with the
//! slot's sequence number. While any slot is open, every later frame,
//! a local hit or a `FindNearest` alike, is answered at once into a slot
//! of its own. Whichever worker fills the head slot moves the ready
//! prefix onto the out-queue and flushes it, so a run of replies leaves
//! in one `writev`. Replies are a frame head plus the refcounted body,
//! written as separate iovecs: no reply body is copied on its way out.
//! The admission mark bounds a node's `Get`s in flight, and with them
//! the slots waiting on a worker.
//!
//! Lock order: a connection's state lock may be taken before the node's
//! store lock (frame handling under the connection lock), never the other
//! way around — nothing touches connection state while holding the store.

use super::{handle_get, local_hit, local_response, trace_event, Inner};
use crate::wire::{FrameAssembler, Message, ServedBy, Status};
use bh_netpoll::{waker_pair, Event, Interest, Poller, WakeReceiver, Waker};
use bh_obs::{span, Counter};
use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{self, Receiver, Sender};

/// Token reserved for each shard's wake-up descriptor.
const WAKER_TOKEN: u64 = 0;

/// How long a shard sleeps in `epoll_wait` with nothing to do. Wake-ups
/// normally arrive via the waker; the timeout is a shutdown backstop.
const IDLE_WAIT: Duration = Duration::from_millis(500);

/// Work injected into a shard from outside its epoll loop.
enum Injected {
    /// A freshly accepted connection to adopt.
    Conn(TcpStream),
    /// A writer left connection `token` with queued bytes; arm `EPOLLOUT`.
    WantWrite { token: u64 },
}

/// A `Get` checked out to the worker pool, bound for reply slot `seq`.
struct WorkerJob {
    shard: usize,
    token: u64,
    seq: u64,
    url: String,
    conn: Arc<SharedConn>,
}

/// Admission control for the worker pool: a count of `Get`s in flight
/// (handed to the pool and not yet answered).
///
/// Past the high-water mark new `Get`s are turned away with a
/// redirect-to-origin reply instead of queueing unboundedly behind a slow
/// origin — the client is closer to the origin than to a saturated cache
/// (the paper's "the cache must stay cheaper than going direct" argument,
/// applied as backpressure).
struct Admission {
    in_flight: AtomicUsize,
    saturated: AtomicBool,
    high_water: usize,
}

impl Admission {
    /// Admission check: `Ok` when a `Get` may go to the pool, `Err(depth)`
    /// when it must be rejected. Counts one `queue_saturation_events`
    /// per episode (the rising edge of the mark, not every reject); the
    /// episode ends once the count drains back to half the mark.
    fn admit(&self, inner: &Inner) -> Result<(), usize> {
        let depth = self.in_flight.load(Ordering::Relaxed);
        if depth >= self.high_water {
            if !self.saturated.swap(true, Ordering::Relaxed) {
                inner.metrics.queue_saturation_events.inc();
                trace_event(
                    inner,
                    span::QUEUE_SATURATION,
                    depth as u64,
                    self.high_water as u64,
                );
            }
            Err(depth)
        } else {
            if self.saturated.load(Ordering::Relaxed) && depth <= self.high_water / 2 {
                self.saturated.store(false, Ordering::Relaxed);
            }
            Ok(())
        }
    }

    /// A worker answered one `Get`.
    fn done(&self) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The shards' handle to the worker pool. Only shards hold the sender, so
/// the channel disconnects, and the workers exit, once every shard has.
struct JobQueue {
    tx: Sender<WorkerJob>,
    admission: Arc<Admission>,
}

impl JobQueue {
    fn send(&self, job: WorkerJob) -> Result<(), channel::SendError<WorkerJob>> {
        self.admission.in_flight.fetch_add(1, Ordering::Relaxed);
        let sent = self.tx.send(job);
        if sent.is_err() {
            self.admission.done();
        }
        sent
    }
}

/// The admission-control rejection: a `Redirect` reply telling the client
/// to fetch from the origin directly.
fn reject_get(inner: &Inner, url: &str, depth: usize) -> Message {
    inner.metrics.admission_rejects.inc();
    trace_event(
        inner,
        span::ADMISSION_REJECT,
        bh_md5::url_key(url),
        depth as u64,
    );
    Message::GetReply {
        status: Status::Redirect,
        version: 0,
        served_by: ServedBy::Origin,
        body: Bytes::new(),
    }
}

/// Everything `CacheNode::spawn` needs to own the running engine.
pub(super) struct Engine {
    pub(super) threads: Vec<std::thread::JoinHandle<()>>,
    pub(super) wakers: Vec<Waker>,
}

/// Spawns the accept thread, shard threads, and worker pool.
pub(super) fn spawn(listener: TcpListener, inner: Arc<Inner>) -> io::Result<Engine> {
    let shards = inner.config.shards.max(1);
    let workers = inner.config.workers.max(1);
    let addr = listener.local_addr()?;

    let mut handles: Vec<(Sender<Injected>, Waker)> = Vec::with_capacity(shards);
    let mut loops = Vec::with_capacity(shards);
    for _ in 0..shards {
        let poller = Poller::new()?;
        let (waker, wake_rx) = waker_pair()?;
        poller.register(&wake_rx, WAKER_TOKEN, Interest::READABLE)?;
        let (tx, rx) = channel::unbounded();
        handles.push((tx, waker));
        loops.push((poller, wake_rx, rx));
    }

    let (job_tx, job_rx) = channel::unbounded::<WorkerJob>();
    let admission = Arc::new(Admission {
        in_flight: AtomicUsize::new(0),
        saturated: AtomicBool::new(false),
        // Default high-water mark: enough `Get`s in flight to keep every
        // worker busy through a burst, small enough that a stalled origin
        // turns into redirects instead of unbounded memory.
        high_water: inner
            .config
            .admission_high_water
            .unwrap_or_else(|| (workers * 64).max(256)),
    });
    let mut threads = Vec::with_capacity(workers + shards + 1);

    for w in 0..workers {
        let job_rx = job_rx.clone();
        let admission = Arc::clone(&admission);
        let handles = clone_handles(&handles)?;
        let inner = Arc::clone(&inner);
        threads.push(
            std::thread::Builder::new()
                .name(format!("cache-worker-{addr}-{w}"))
                .spawn(move || worker_loop(job_rx, admission, handles, inner))?,
        );
    }

    for (i, (poller, wake_rx, rx)) in loops.into_iter().enumerate() {
        let inner = Arc::clone(&inner);
        let jobs = JobQueue {
            tx: job_tx.clone(),
            admission: Arc::clone(&admission),
        };
        threads.push(
            std::thread::Builder::new()
                .name(format!("cache-shard-{addr}-{i}"))
                .spawn(move || {
                    Shard::new(i, poller, wake_rx, rx, jobs, inner).run();
                })?,
        );
    }
    drop(job_tx);

    let wakers = handles
        .iter()
        .map(|(_, w)| w.try_clone())
        .collect::<io::Result<Vec<_>>>()?;
    {
        let inner = Arc::clone(&inner);
        threads.push(
            std::thread::Builder::new()
                .name(format!("cache-accept-{addr}"))
                .spawn(move || accept_loop(listener, handles, inner))?,
        );
    }

    Ok(Engine { threads, wakers })
}

fn clone_handles(
    handles: &[(Sender<Injected>, Waker)],
) -> io::Result<Vec<(Sender<Injected>, Waker)>> {
    handles
        .iter()
        .map(|(tx, w)| Ok((tx.clone(), w.try_clone()?)))
        .collect()
}

/// Deals accepted connections round-robin across the shards. Holding the
/// shard senders here (and dropping them on exit) is what lets the shard
/// loops observe engine teardown.
fn accept_loop(listener: TcpListener, handles: Vec<(Sender<Injected>, Waker)>, inner: Arc<Inner>) {
    let mut next = 0usize;
    for stream in listener.incoming() {
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let (tx, waker) = &handles[next % handles.len()];
        next = next.wrapping_add(1);
        if tx.send(Injected::Conn(stream)).is_ok() && !waker.wake() {
            inner.metrics.wakeups_coalesced.inc();
        }
    }
}

/// Services `Get` jobs; each may probe a peer and fall back to the origin
/// through the pooled transport, then fills its reply slot on the
/// connection, writing whatever that releases, and pokes the owning shard
/// only if queued bytes remain.
fn worker_loop(
    job_rx: Receiver<WorkerJob>,
    admission: Arc<Admission>,
    handles: Vec<(Sender<Injected>, Waker)>,
    inner: Arc<Inner>,
) {
    // Reply heads are encoded into this reusable scratch buffer; bodies
    // stay refcounted, so the steady state is zero allocations per reply.
    let mut scratch = BytesMut::with_capacity(64);
    for job in job_rx.iter() {
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let reply = handle_get(&inner, &job.url);
        admission.done();
        let frame = Frame::new(&reply, &mut scratch);
        let wants_write = {
            // bh-lint: allow(lock-order, reason = "the per-connection state lock IS the frame-write serializer; the socket is nonblocking, so writes under it only fill the kernel buffer and queue the rest")
            let mut state = job.conn.state.lock();
            state.fill(job.seq, frame);
            if state.closed {
                false
            } else if write_some(&job.conn.stream, &mut state, &inner.metrics.writev_batches)
                .is_err()
            {
                // The reply could not be delivered (socket died mid-write);
                // account it instead of wedging or panicking the worker.
                state.closed = true;
                inner.metrics.service_errors.inc();
                false
            } else {
                state.wants_write()
            }
        };
        if wants_write {
            let (tx, waker) = &handles[job.shard];
            if tx.send(Injected::WantWrite { token: job.token }).is_ok() && !waker.wake() {
                inner.metrics.wakeups_coalesced.inc();
            }
        }
    }
}

/// Longest frame head a [`Frame`] keeps inline. A `GetReply` head is at
/// most 23 bytes, a `FindNearestReply` 14 and an `Ack` 5.
const HEAD_CAP: usize = 24;

/// One encoded reply: the frame head inline and the refcounted body as a
/// buffer of its own, so the write path hands both to `writev` without
/// copying the body.
struct Frame {
    head: [u8; HEAD_CAP],
    head_len: usize,
    body: Option<Bytes>,
}

impl Frame {
    fn new(reply: &Message, scratch: &mut BytesMut) -> Frame {
        let body = reply.encode_head(scratch).cloned();
        let mut head = [0u8; HEAD_CAP];
        if let Some(dst) = head.get_mut(..scratch.len()) {
            dst.copy_from_slice(scratch);
            return Frame {
                head,
                head_len: scratch.len(),
                body,
            };
        }
        // Only operator replies (meta listings) outgrow the inline head;
        // they carry no separate body, so the whole frame becomes one.
        Frame {
            head,
            head_len: 0,
            // bh-lint: allow(no-hot-alloc, reason = "only operator replies (mesh-namespace listings) outgrow the inline head; data-path replies never reach this copy")
            body: Some(Bytes::from(scratch.to_vec())),
        }
    }

    /// The frame's bytes as the two buffers `writev` sends.
    fn parts(&self) -> [&[u8]; 2] {
        [
            &self.head[..self.head_len],
            self.body.as_deref().unwrap_or_default(),
        ]
    }

    fn len(&self) -> usize {
        self.head_len + self.body.as_ref().map_or(0, Bytes::len)
    }
}

/// Write-side state of a connection, shared between the owning shard and
/// any worker finishing a `Get` for it.
struct ConnState {
    /// Released reply frames, oldest first; `front_pos` marks how much of
    /// the front frame already left. Keeping whole frames instead of one
    /// flat byte buffer is what lets the flush path hand the entire queue
    /// to `writev` in one syscall.
    out: VecDeque<Frame>,
    front_pos: usize,
    /// Replies not yet released, in request order: `slots[i]` answers
    /// request `head_seq + i`. `None` is a `Get` still at the worker
    /// pool. The head slot is always `None`: a filled head is released at
    /// once.
    slots: VecDeque<Option<Frame>>,
    head_seq: u64,
    /// Set once the shard abandons the connection (or the engine is
    /// tearing down); writers stop touching the socket.
    closed: bool,
}

impl ConnState {
    fn wants_write(&self) -> bool {
        !self.out.is_empty()
    }

    /// Queues the reply to the request just read: released at once when
    /// no earlier reply is pending, otherwise parked in a slot of its own.
    fn reply(&mut self, frame: Frame) {
        if self.slots.is_empty() {
            self.out.push_back(frame);
        } else {
            self.slots.push_back(Some(frame));
        }
    }

    /// Opens the slot for a `Get` going to the worker pool and returns its
    /// sequence number.
    fn open_slot(&mut self) -> u64 {
        let seq = self.head_seq + self.slots.len() as u64;
        self.slots.push_back(None);
        seq
    }

    /// Fills slot `seq`; if that completes the head, moves the ready
    /// prefix onto the out-queue.
    fn fill(&mut self, seq: u64, frame: Frame) {
        let index = seq.wrapping_sub(self.head_seq) as usize;
        if let Some(slot) = self.slots.get_mut(index) {
            *slot = Some(frame);
        }
        while let Some(Some(_)) = self.slots.front() {
            self.out.extend(self.slots.pop_front().flatten());
            self.head_seq += 1;
        }
    }
}

/// A connection as seen by both the shard (reads, epoll) and the workers
/// (direct reply writes). The stream itself is never cloned: both sides
/// write through `&TcpStream`, serialized by the state lock.
struct SharedConn {
    stream: TcpStream,
    state: Mutex<ConnState>,
}

/// Shard-private bookkeeping for one connection.
struct ShardConn {
    shared: Arc<SharedConn>,
    /// Frame reassembly is shard-only — only the shard reads the socket.
    assembler: FrameAssembler,
    /// Interest currently registered with the poller (avoids redundant
    /// `epoll_ctl` calls).
    interest: Interest,
}

struct Shard {
    id: usize,
    poller: Poller,
    wake_rx: WakeReceiver,
    inject_rx: Receiver<Injected>,
    jobs: JobQueue,
    inner: Arc<Inner>,
    conns: HashMap<u64, ShardConn>,
    next_token: u64,
    /// Reusable encode buffer for replies answered on the shard itself.
    scratch: BytesMut,
}

impl Shard {
    fn new(
        id: usize,
        poller: Poller,
        wake_rx: WakeReceiver,
        inject_rx: Receiver<Injected>,
        jobs: JobQueue,
        inner: Arc<Inner>,
    ) -> Self {
        Shard {
            id,
            poller,
            wake_rx,
            inject_rx,
            jobs,
            inner,
            conns: HashMap::new(),
            next_token: WAKER_TOKEN + 1,
            scratch: BytesMut::with_capacity(4096),
        }
    }

    fn run(mut self) {
        let mut events: Vec<Event> = Vec::with_capacity(128);
        while !self.inner.shutdown.load(Ordering::SeqCst) {
            events.clear();
            if self.poller.wait(&mut events, Some(IDLE_WAIT)).is_err() {
                break;
            }
            self.wake_rx.drain();
            self.drain_injections();
            for &event in &events {
                if event.token == WAKER_TOKEN {
                    continue;
                }
                self.service(event);
            }
        }
        // Mark every connection closed so in-flight workers stop writing.
        for conn in self.conns.values() {
            conn.shared.state.lock().closed = true;
        }
    }

    fn drain_injections(&mut self) {
        while let Ok(injected) = self.inject_rx.try_recv() {
            match injected {
                Injected::Conn(stream) => self.adopt(stream),
                Injected::WantWrite { token } => self.flush_and_rearm(token),
            }
        }
    }

    fn adopt(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            return;
        }
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poller
            .register(&stream, token, Interest::READABLE)
            .is_ok()
        {
            let shared = Arc::new(SharedConn {
                stream,
                state: Mutex::new(ConnState {
                    out: VecDeque::new(),
                    front_pos: 0,
                    slots: VecDeque::new(),
                    head_seq: 0,
                    closed: false,
                }),
            });
            self.conns.insert(
                token,
                ShardConn {
                    shared,
                    assembler: FrameAssembler::new(),
                    interest: Interest::READABLE,
                },
            );
        }
    }

    /// Handles readiness for one connection.
    fn service(&mut self, event: Event) {
        let token = event.token;
        // Chaos hook: injected inbound service delay, applied before the
        // shard touches the socket. One relaxed load when disarmed.
        if let Some(delay) = self.inner.pool.fault_switch().rx_latency() {
            std::thread::sleep(delay);
        }
        if event.needs_read() && !self.read_ready(token) {
            self.close(token);
            return;
        }
        self.flush_and_rearm(token);
    }

    /// Pulls bytes, assembles frames, dispatches them. Returns false when
    /// the connection is finished (EOF, error, or unframeable input).
    fn read_ready(&mut self, token: u64) -> bool {
        let mut buf = [0u8; 16 * 1024];
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return false;
            };
            match (&conn.shared.stream).read(&mut buf) {
                Ok(0) => return false,
                Ok(n) => {
                    conn.assembler.extend(&buf[..n]);
                    loop {
                        let Some(conn) = self.conns.get_mut(&token) else {
                            return false;
                        };
                        match conn.assembler.next_message() {
                            Ok(Some(msg)) => {
                                if !self.deliver(token, msg) {
                                    return false;
                                }
                            }
                            Ok(None) => break,
                            Err(_) => return false,
                        }
                    }
                    // Every reply this chunk released leaves in one writev.
                    self.flush_and_rearm(token);
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Routes one frame under the connection lock: a missing `Get` to the
    /// worker pool with a fresh reply slot, everything else (including
    /// locally-hit `Get`s) answered at once, in request order behind any
    /// open slot. The caller flushes. Returns false when the connection
    /// should be torn down.
    fn deliver(&mut self, token: u64, msg: Message) -> bool {
        let Some(conn) = self.conns.get(&token) else {
            return false;
        };
        let shared = Arc::clone(&conn.shared);
        let mut state = shared.state.lock();
        if state.closed {
            return false;
        }
        let reply = match msg {
            Message::Get { url } => {
                // Drain (mesh API) outranks the local-hit fast path: a
                // drained node turns every client `Get` away.
                if self.inner.drained() {
                    reject_get(&self.inner, &url, 0)
                } else if let Some(reply) = local_hit(&self.inner, &url) {
                    reply
                } else if let Err(depth) = self.jobs.admission.admit(&self.inner) {
                    reject_get(&self.inner, &url, depth)
                } else {
                    let job = WorkerJob {
                        shard: self.id,
                        token,
                        seq: state.open_slot(),
                        url,
                        conn: Arc::clone(&shared),
                    };
                    if self.jobs.send(job).is_err() {
                        // Engine tearing down; the connection dies with it.
                        self.inner.metrics.service_errors.inc();
                        return false;
                    }
                    return true;
                }
            }
            other => local_response(&self.inner, other),
        };
        state.reply(Frame::new(&reply, &mut self.scratch));
        true
    }

    /// Pushes queued bytes and keeps the poller's interest set in sync
    /// with whether a write is still pending.
    fn flush_and_rearm(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let want = {
            // bh-lint: allow(lock-order, reason = "draining queued bytes to the nonblocking socket is exactly what this lock serializes; write_some returns WouldBlock instead of waiting")
            let mut state = conn.shared.state.lock();
            if write_some(
                &conn.shared.stream,
                &mut state,
                &self.inner.metrics.writev_batches,
            )
            .is_err()
            {
                drop(state);
                self.close(token);
                return;
            }
            if state.wants_write() {
                Interest::BOTH
            } else {
                Interest::READABLE
            }
        };
        if conn.interest != want {
            if self
                .poller
                .modify(&conn.shared.stream, token, want)
                .is_err()
            {
                self.close(token);
                return;
            }
            conn.interest = want;
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            conn.shared.state.lock().closed = true;
            let _ = self.poller.deregister(&conn.shared.stream);
        }
    }
}

/// Writes as much of the out-queue as the socket accepts right now, whole
/// frames gathered into one `writev` per syscall (a frame's head and body
/// are separate iovecs), counting in `batches` each syscall that carries
/// more than one reply. Callers hold the connection lock.
fn write_some(stream: &TcpStream, state: &mut ConnState, batches: &Counter) -> io::Result<()> {
    while state.wants_write() {
        let empty: &[u8] = &[];
        let mut bufs = [IoSlice::new(empty); bh_netpoll::MAX_IOV];
        let mut cnt = 0usize;
        let mut frames = 0usize;
        let mut skip = state.front_pos;
        for frame in &state.out {
            if cnt + 2 > bh_netpoll::MAX_IOV {
                break;
            }
            for part in frame.parts() {
                if skip >= part.len() {
                    skip -= part.len();
                    continue;
                }
                bufs[cnt] = IoSlice::new(&part[skip..]);
                skip = 0;
                cnt += 1;
            }
            frames += 1;
        }
        let wrote = match bh_netpoll::write_vectored(stream, &bufs[..cnt]) {
            Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero)),
            Ok(n) => n,
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) => return Err(e),
        };
        if frames > 1 {
            batches.inc();
        }
        let mut remaining = wrote;
        while let Some(front) = state.out.front() {
            let front_left = front.len() - state.front_pos;
            if remaining < front_left {
                state.front_pos += remaining;
                break;
            }
            remaining -= front_left;
            state.out.pop_front();
            state.front_pos = 0;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_obs::{Determinism, Registry, Unit};

    fn conn_state() -> ConnState {
        ConnState {
            out: VecDeque::new(),
            front_pos: 0,
            slots: VecDeque::new(),
            head_seq: 0,
            closed: false,
        }
    }

    fn body_reply(fill: u8, len: usize) -> Message {
        Message::GetReply {
            status: Status::Ok,
            version: 1,
            served_by: ServedBy::Local,
            body: Bytes::from(vec![fill; len]),
        }
    }

    fn released(state: &ConnState) -> Vec<u8> {
        state.out.iter().flat_map(|f| f.parts().concat()).collect()
    }

    /// Slots filled out of order release only a ready prefix, in request
    /// order, and a reply behind an open slot waits for it.
    #[test]
    fn slots_release_ready_prefix_in_request_order() {
        let mut scratch = BytesMut::with_capacity(64);
        let mut state = conn_state();
        let requests = [
            body_reply(1, 10),
            Message::Ack,
            body_reply(3, 30),
            body_reply(4, 40),
        ];
        let first = state.open_slot();
        state.reply(Frame::new(&requests[1], &mut scratch));
        let third = state.open_slot();
        let fourth = state.open_slot();
        state.fill(fourth, Frame::new(&requests[3], &mut scratch));
        state.fill(third, Frame::new(&requests[2], &mut scratch));
        assert!(state.out.is_empty(), "nothing passes the open head slot");
        state.fill(first, Frame::new(&requests[0], &mut scratch));
        assert!(state.slots.is_empty());
        assert_eq!(state.head_seq, 4);
        let want: Vec<u8> = requests.iter().flat_map(|m| m.encoded().to_vec()).collect();
        assert_eq!(released(&state), want);
        // With no slot open, a reply is released at once.
        state.reply(Frame::new(&Message::Ack, &mut scratch));
        assert_eq!(state.out.len(), 5);
    }

    /// Short writes resume mid-frame, across the head/body iovec split:
    /// the peer receives exactly the encoded frames, in order.
    #[test]
    fn write_some_resumes_short_writes_byte_exact() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");
        let batches = Registry::new().counter("b", Unit::Count, "b", Determinism::Measured);

        // Far more than loopback socket buffers hold, so writes come up short.
        let mut scratch = BytesMut::with_capacity(64);
        let mut state = conn_state();
        let mut want = Vec::new();
        for i in 0..256u32 {
            let reply = if i % 3 == 0 {
                Message::Ack
            } else {
                body_reply(i as u8, 65_536 + i as usize)
            };
            want.extend_from_slice(&reply.encoded());
            state.reply(Frame::new(&reply, &mut scratch));
        }

        let mut got = Vec::with_capacity(want.len());
        let mut buf = vec![0u8; 1 << 16];
        while got.len() < want.len() {
            write_some(&server, &mut state, &batches).expect("write");
            // Either everything is written or the socket is full: there
            // is always something to read until all bytes arrived.
            let n = client.read(&mut buf).expect("read");
            assert!(n > 0, "peer closed early");
            got.extend_from_slice(&buf[..n]);
        }
        assert!(state.out.is_empty());
        assert!(got == want, "byte stream differs from the encoded frames");
        assert!(batches.get() > 0);
    }
}
