//! The open-loop load generator.
//!
//! Requests follow a precomputed schedule of due times (Poisson arrivals
//! at a fixed offered rate). One sender thread writes every request when
//! it falls due, pipelined: it never waits for a reply before its next
//! send. The calling thread is the receiver: it polls every connection,
//! assembles reply frames and matches them to requests in order (a cache
//! node answers the frames of one connection in request order). Each
//! request is timed from when it was *due*, not when it was sent, so a
//! stalled system or a late generator shows up in the latency instead of
//! silently lowering the offered load. How late the sender ran is
//! recorded per request.
//!
//! Two threads and one connection per entry node, whatever the rate.

use bh_netpoll::{Interest, Poller};
use bh_proto::wire::{FrameAssembler, Message, ServedBy, Status};
use bh_simcore::rng::Xoshiro256;
use bytes::BytesMut;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// One scheduled request: which connection, when, and which URL (an index
/// into the caller's URL table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planned {
    /// Connection (entry node) index.
    pub conn: usize,
    /// Due time, nanoseconds after the step starts.
    pub due_ns: u64,
    /// URL index.
    pub url: u32,
}

/// Poisson arrivals at `rate` requests/second for `duration`; `pick`
/// chooses the connection and URL of each arrival.
pub fn poisson(
    rng: &mut Xoshiro256,
    rate: f64,
    duration: Duration,
    mut pick: impl FnMut(&mut Xoshiro256) -> (usize, u32),
) -> Vec<Planned> {
    let end = duration.as_secs_f64();
    let mut t = 0.0;
    let mut plan = Vec::with_capacity((rate * end * 1.1) as usize + 16);
    loop {
        t += rng.exponential(1.0 / rate);
        if t >= end {
            return plan;
        }
        let (conn, url) = pick(rng);
        plan.push(Planned {
            conn,
            due_ns: (t * 1e9) as u64,
            url,
        });
    }
}

/// Why a request did not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// `Status::Error` or `Status::NotFound`.
    Error,
    /// `Status::Redirect` (admission control or a drained node).
    Redirect,
    /// An `Ok` reply whose body is not the origin's body for the URL.
    WrongBody,
    /// No reply before the drain deadline (or the connection broke).
    TimedOut,
    /// A reply frame that is not a `GetReply`, or an undecodable frame.
    Protocol,
}

/// Who answered a request, as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// The entry node's data cache.
    Local,
    /// A peer, after a hint lookup.
    Peer,
    /// The origin server.
    Origin,
    /// Not answered correctly.
    Failed(Failure),
}

impl Served {
    /// Stable lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Served::Local => "local",
            Served::Peer => "peer",
            Served::Origin => "origin",
            Served::Failed(Failure::Error) => "error",
            Served::Failed(Failure::Redirect) => "redirect",
            Served::Failed(Failure::WrongBody) => "wrong_body",
            Served::Failed(Failure::TimedOut) => "timed_out",
            Served::Failed(Failure::Protocol) => "protocol",
        }
    }

    /// True for every answered-correctly outcome.
    pub fn ok(self) -> bool {
        !matches!(self, Served::Failed(_))
    }
}

/// The measured life of one request. Times are nanoseconds after the
/// step started.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Connection (entry node) index.
    pub conn: usize,
    /// URL index.
    pub url: u32,
    /// When it was due.
    pub due_ns: u64,
    /// When the sender wrote it (0 if never sent).
    pub sent_ns: u64,
    /// When its reply was decoded (0 if none).
    pub done_ns: u64,
    /// Who answered.
    pub served: Served,
    /// Client `Message::encode` time (traced runs only, else 0).
    pub encode_ns: u32,
    /// Client `FrameAssembler::next_message` time (traced runs only).
    pub decode_ns: u32,
    /// Reply body length in bytes.
    pub reply_bytes: u32,
}

impl Outcome {
    /// Due-to-decoded latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    /// How late the sender wrote it, in microseconds.
    pub fn late_us(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e3
    }
}

/// Per-step knobs.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Time encode/decode per request (the traced run).
    pub trace: bool,
    /// How long after the last send to wait for outstanding replies.
    pub drain: Duration,
}

/// What one step produced.
#[derive(Debug, Clone)]
pub struct StepResult {
    /// When the step started; outcome times count from here.
    pub started: Instant,
    /// One outcome per planned request, in plan order.
    pub outcomes: Vec<Outcome>,
    /// Nanoseconds from the step start to the last decoded reply.
    pub wall_ns: u64,
}

impl StepResult {
    /// Achieved over offered rate: correct completions per second over
    /// the span from the first due time to the last reply, divided by
    /// planned arrivals per second over the span of due times. Near 1
    /// when the system keeps up (the gap is the last request's latency),
    /// well below 1 when a backlog grows. Comparing with the plan rather
    /// than the nominal rate keeps Poisson count noise out of it.
    pub fn achieved_ratio(&self) -> f64 {
        let o = &self.outcomes;
        let (Some(first), Some(last)) = (o.first(), o.last()) else {
            return 0.0;
        };
        let ok = o.iter().filter(|x| x.served.ok()).count() as f64;
        let due_span = (last.due_ns - first.due_ns).max(1) as f64;
        let done_span = self.wall_ns.saturating_sub(first.due_ns).max(1) as f64;
        (ok / o.len() as f64) * (due_span / done_span)
    }

    /// Requests that did not complete correctly.
    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.served.ok()).count()
    }
}

/// Body check: does `body` equal the origin's body for URL `url`?
pub type BodyCheck<'a> = &'a (dyn Fn(u32, &[u8]) -> bool + Sync);

/// One pipelined connection per entry node.
pub struct Generator {
    addrs: Vec<SocketAddr>,
    conns: Vec<TcpStream>,
}

impl Generator {
    /// Connects once to every entry node.
    ///
    /// # Errors
    ///
    /// Propagates connect errors.
    pub fn connect(addrs: &[SocketAddr]) -> io::Result<Generator> {
        let mut g = Generator {
            addrs: addrs.to_vec(),
            conns: Vec::new(),
        };
        g.reconnect()?;
        Ok(g)
    }

    fn reconnect(&mut self) -> io::Result<()> {
        for c in &self.conns {
            let _ = c.shutdown(Shutdown::Both);
        }
        self.conns = self
            .addrs
            .iter()
            .map(|a| {
                let s = TcpStream::connect(a)?;
                s.set_nodelay(true)?;
                Ok(s)
            })
            .collect::<io::Result<_>>()?;
        Ok(())
    }

    /// Runs one step of the open loop: sends `plan` on schedule, collects
    /// every reply, and classifies it with `check`. Requests still
    /// unanswered `opts.drain` after the last send count as timed out;
    /// the connections are then replaced so late replies cannot be
    /// mistaken for the next step's.
    ///
    /// # Errors
    ///
    /// Fails on poller setup errors or when reconnecting fails.
    pub fn run(
        &mut self,
        urls: &[String],
        plan: &[Planned],
        check: BodyCheck<'_>,
        opts: RunOptions,
    ) -> io::Result<StepResult> {
        let n = self.conns.len();
        let mut outcomes: Vec<Outcome> = plan
            .iter()
            .map(|p| Outcome {
                conn: p.conn,
                url: p.url,
                due_ns: p.due_ns,
                sent_ns: 0,
                done_ns: 0,
                served: Served::Failed(Failure::TimedOut),
                encode_ns: 0,
                decode_ns: 0,
                reply_bytes: 0,
            })
            .collect();
        let poller = Poller::new()?;
        for (i, c) in self.conns.iter().enumerate() {
            poller.register(c, i as u64, Interest::READABLE)?;
        }
        let writers = self
            .conns
            .iter()
            .map(TcpStream::try_clone)
            .collect::<io::Result<Vec<_>>>()?;
        let mut txs = Vec::with_capacity(n);
        let mut rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = mpsc::channel::<(u32, u64, u32)>();
            txs.push(tx);
            rxs.push(rx);
        }
        let stop = AtomicBool::new(false);
        // Nanoseconds after t0 when the sender finished (0 = still sending).
        let sender_done = AtomicU64::new(0);
        // The schedule starts a little in the future, so the sender thread
        // is running before the first request falls due.
        let t0 = Instant::now() + Duration::from_millis(2);
        let mut broken = false;
        let mut last_done = 0u64;

        std::thread::scope(|scope| {
            let stop = &stop;
            let sender_done = &sender_done;
            scope.spawn(move || {
                send_loop(t0, urls, plan, writers, txs, opts.trace, stop);
                let at = t0.elapsed().as_nanos() as u64;
                sender_done.store(at.max(1), Ordering::Release);
            });

            let mut assemblers: Vec<FrameAssembler> =
                (0..n).map(|_| FrameAssembler::new()).collect();
            let mut events = Vec::new();
            let mut buf = vec![0u8; 256 * 1024];
            let mut remaining = plan.len();
            while remaining > 0 && !broken {
                events.clear();
                if poller
                    .wait(&mut events, Some(Duration::from_millis(5)))
                    .is_err()
                {
                    broken = true;
                    break;
                }
                for ev in &events {
                    let c = ev.token as usize;
                    if !ev.needs_read() {
                        continue;
                    }
                    let got = match (&self.conns[c]).read(&mut buf) {
                        Ok(0) | Err(_) => {
                            broken = true;
                            break;
                        }
                        Ok(got) => got,
                    };
                    assemblers[c].extend(&buf[..got]);
                    loop {
                        let d0 = opts.trace.then(Instant::now);
                        let msg = match assemblers[c].next_message() {
                            Ok(Some(msg)) => msg,
                            Ok(None) => break,
                            Err(_) => {
                                broken = true;
                                break;
                            }
                        };
                        let done = Instant::now();
                        let Ok((idx, sent_ns, encode_ns)) = rxs[c].recv() else {
                            // A reply nobody asked for.
                            broken = true;
                            break;
                        };
                        let o = &mut outcomes[idx as usize];
                        o.sent_ns = sent_ns;
                        o.done_ns = done.duration_since(t0).as_nanos() as u64;
                        o.encode_ns = encode_ns;
                        o.decode_ns = d0.map_or(0, |d| done.duration_since(d).as_nanos() as u32);
                        let url = plan[idx as usize].url;
                        let (served, bytes) = classify(&msg, url, check);
                        o.served = served;
                        o.reply_bytes = bytes;
                        last_done = last_done.max(o.done_ns);
                        remaining -= 1;
                    }
                    if broken {
                        break;
                    }
                }
                let done_at = sender_done.load(Ordering::Acquire);
                if done_at > 0
                    && t0.elapsed().as_nanos() as u64 > done_at + opts.drain.as_nanos() as u64
                {
                    break;
                }
            }
            if remaining > 0 || broken {
                // Unblock a sender stuck in write() and abandon these
                // connections; late replies must not leak into the next step.
                stop.store(true, Ordering::Release);
                for c in &self.conns {
                    let _ = c.shutdown(Shutdown::Both);
                }
            }
        });
        // Sent-but-unanswered requests keep their TimedOut outcome; record
        // when they were sent.
        for rx in &rxs {
            while let Ok((idx, sent_ns, _)) = rx.try_recv() {
                outcomes[idx as usize].sent_ns = sent_ns;
            }
        }
        if outcomes
            .iter()
            .any(|o| o.served == Served::Failed(Failure::TimedOut))
            || broken
        {
            self.reconnect()?;
        }
        Ok(StepResult {
            started: t0,
            outcomes,
            wall_ns: last_done,
        })
    }
}

fn classify(msg: &Message, url: u32, check: BodyCheck<'_>) -> (Served, u32) {
    match msg {
        Message::GetReply {
            status: Status::Ok,
            served_by,
            body,
            ..
        } => {
            let served = if !check(url, body) {
                Served::Failed(Failure::WrongBody)
            } else {
                match served_by {
                    ServedBy::Local => Served::Local,
                    ServedBy::Peer(_) => Served::Peer,
                    ServedBy::Origin => Served::Origin,
                }
            };
            (served, body.len() as u32)
        }
        Message::GetReply {
            status: Status::Redirect,
            ..
        } => (Served::Failed(Failure::Redirect), 0),
        Message::GetReply { .. } => (Served::Failed(Failure::Error), 0),
        _ => (Served::Failed(Failure::Protocol), 0),
    }
}

/// Sleeps until each request is due, then writes every due request,
/// batching those that fall due together into one write per connection.
fn send_loop(
    t0: Instant,
    urls: &[String],
    plan: &[Planned],
    mut writers: Vec<TcpStream>,
    txs: Vec<mpsc::Sender<(u32, u64, u32)>>,
    trace: bool,
    stop: &AtomicBool,
) {
    let mut scratch = BytesMut::with_capacity(512);
    let mut out: Vec<Vec<u8>> = writers
        .iter()
        .map(|_| Vec::with_capacity(64 * 1024))
        .collect();
    let mut i = 0;
    while i < plan.len() {
        if stop.load(Ordering::Acquire) {
            return;
        }
        let now = t0.elapsed().as_nanos() as u64;
        let due = plan[i].due_ns;
        if due > now {
            std::thread::sleep(Duration::from_nanos(due - now));
            continue;
        }
        while i < plan.len() && plan[i].due_ns <= now {
            let p = plan[i];
            let msg = Message::Get {
                url: urls[p.url as usize].clone(),
            };
            let e0 = trace.then(Instant::now);
            msg.encode(&mut scratch);
            let encode_ns = e0.map_or(0, |e| e.elapsed().as_nanos() as u32);
            out[p.conn].extend_from_slice(&scratch);
            // Queued before the write, so the receiver always finds it.
            let sent = t0.elapsed().as_nanos() as u64;
            if txs[p.conn].send((i as u32, sent, encode_ns)).is_err() {
                return;
            }
            i += 1;
        }
        for (c, buf) in out.iter_mut().enumerate() {
            if !buf.is_empty() {
                if writers[c].write_all(buf).is_err() {
                    return;
                }
                buf.clear();
            }
        }
    }
}
