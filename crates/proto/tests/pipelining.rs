//! Pipelined requests on one client connection: the node runs the
//! connection's misses concurrently at its worker pool and still answers
//! in request order.
//!
//! Every test here is deterministic. A gate origin holds each `Get` until
//! the test's condition is met, so the interleavings that matter happen by
//! construction; waits are bounded by deadlines and read timeouts that only
//! fire when the engine is broken.

use bh_proto::origin::synthetic_body;
use bh_proto::wire::{read_message, write_message, Message, ServedBy, Status};
use bh_proto::{CacheNode, NodeConfig, OriginServer};
use bytes::Bytes;
use std::collections::BTreeSet;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long the gate holds a `Get` before giving up and answering
/// `Status::Error`. Shorter than the node's origin I/O timeout, so a held
/// fetch fails visibly instead of being retried into the gate.
const GATE_TIMEOUT: Duration = Duration::from_secs(3);

/// Upper bound on any wait in these tests; reached only on failure.
const DEADLINE: Duration = Duration::from_secs(10);

#[derive(Default)]
struct GateState {
    /// URLs of the `Get`s received, in arrival order.
    seen: Vec<String>,
    released: bool,
    /// Set on drop: the accept loop stops and closes every connection.
    stopped: bool,
}

type Gate = Arc<(Mutex<GateState>, Condvar)>;

/// A test origin that holds every `Get` until the gate opens, then answers
/// each with `synthetic_body(url)`. The gate opens once `Get`s for
/// `open_at` distinct URLs have arrived, or when the test calls
/// [`GateOrigin::release`]. Dropping it stops and joins its threads.
struct GateOrigin {
    addr: SocketAddr,
    shared: Gate,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl GateOrigin {
    fn spawn(open_at: usize) -> GateOrigin {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind gate origin");
        let addr = listener.local_addr().expect("gate addr");
        let shared: Gate = Arc::default();
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || {
            let mut conns = Vec::new();
            for stream in listener.incoming() {
                if accept_shared.0.lock().expect("gate lock").stopped {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let Ok(handle) = stream.try_clone() else {
                    continue;
                };
                let shared = Arc::clone(&accept_shared);
                let thread = std::thread::spawn(move || {
                    let _ = serve_gated(stream, &shared, open_at);
                });
                conns.push((handle, thread));
            }
            for (stream, thread) in conns {
                let _ = stream.shutdown(std::net::Shutdown::Both);
                thread.join().expect("gate connection thread");
            }
        });
        GateOrigin {
            addr,
            shared,
            accept: Some(accept),
        }
    }

    fn release(&self) {
        let (state, cv) = &*self.shared;
        state.lock().expect("gate lock").released = true;
        cv.notify_all();
    }

    /// The URLs of the `Get`s received so far, in arrival order.
    fn seen(&self) -> Vec<String> {
        self.shared.0.lock().expect("gate lock").seen.clone()
    }

    /// Blocks until the gate has received `n` `Get`s; returns their URLs.
    fn wait_for_gets(&self, n: usize) -> Vec<String> {
        let (state, cv) = &*self.shared;
        let guard = state.lock().expect("gate lock");
        let (st, _) = cv
            .wait_timeout_while(guard, DEADLINE, |st| st.seen.len() < n)
            .expect("gate lock");
        assert!(
            st.seen.len() >= n,
            "gate saw only {} of {n} Gets",
            st.seen.len()
        );
        st.seen.clone()
    }
}

impl Drop for GateOrigin {
    fn drop(&mut self) {
        if let Ok(mut st) = self.shared.0.lock() {
            st.stopped = true;
            st.released = true;
        }
        self.shared.1.notify_all();
        // Wake the blocking accept so it sees the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

fn serve_gated(
    mut stream: TcpStream,
    shared: &(Mutex<GateState>, Condvar),
    open_at: usize,
) -> io::Result<()> {
    let mut reader = io::BufReader::new(stream.try_clone()?);
    loop {
        let Message::Get { url } = read_message(&mut reader)? else {
            return Ok(());
        };
        let (state, cv) = shared;
        let is_open = |st: &GateState| {
            st.released || st.seen.iter().collect::<BTreeSet<_>>().len() >= open_at
        };
        let opened = {
            let mut st = state.lock().expect("gate lock");
            st.seen.push(url.clone());
            cv.notify_all();
            let (st, _) = cv
                .wait_timeout_while(st, GATE_TIMEOUT, |st| !is_open(st))
                .expect("gate lock");
            is_open(&st)
        };
        let (status, body) = if opened {
            (Status::Ok, synthetic_body(&url))
        } else {
            (Status::Error, Bytes::new())
        };
        write_message(
            &mut stream,
            &Message::GetReply {
                status,
                version: 0,
                served_by: ServedBy::Origin,
                body,
            },
        )?;
    }
}

/// A raw client connection that writes a whole request batch at once.
struct Pipeline {
    stream: TcpStream,
}

impl Pipeline {
    fn connect(node: &CacheNode) -> Pipeline {
        let stream = TcpStream::connect(node.addr()).expect("connect to node");
        stream
            .set_read_timeout(Some(DEADLINE))
            .expect("read timeout");
        Pipeline { stream }
    }

    /// Sends every request in one `write`, so they reach the node
    /// back to back.
    fn send(&mut self, requests: &[Message]) {
        let mut batch = Vec::new();
        for msg in requests {
            batch.extend_from_slice(&msg.encoded());
        }
        self.stream.write_all(&batch).expect("send pipeline");
    }

    fn recv(&mut self) -> Message {
        read_message(&mut self.stream).expect("reply before the deadline")
    }
}

fn get(url: &str) -> Message {
    Message::Get {
        url: url.to_string(),
    }
}

/// Asserts `reply` is an `Ok` `GetReply` from `served_by` carrying `body`.
fn assert_served(reply: &Message, served_by: ServedBy, body: &Bytes) {
    let Message::GetReply {
        status,
        served_by: got,
        body: got_body,
        ..
    } = reply
    else {
        panic!("expected a GetReply, got {reply:?}");
    };
    assert_eq!(*status, Status::Ok);
    assert_eq!(*got, served_by);
    assert_eq!(got_body, body);
}

fn node_for(origin: SocketAddr) -> CacheNode {
    CacheNode::spawn(NodeConfig::new("127.0.0.1:0", origin)).expect("spawn node")
}

/// Replies leave in request order even when the requests complete out of
/// order: the first miss is held at the origin while a local hit, a
/// `FindNearest` and a second miss arrive behind it, and only the second
/// miss opens the gate.
#[test]
fn replies_keep_request_order_around_a_held_miss() {
    let gate = GateOrigin::spawn(2);
    let node = node_for(gate.addr);
    let hit_body = Bytes::from_static(b"pushed, so a local hit");
    let mut conn = Pipeline::connect(&node);
    conn.send(&[Message::Push {
        url: "http://order.test/hit".into(),
        version: 1,
        body: hit_body.clone(),
    }]);
    assert_eq!(conn.recv(), Message::Ack);

    conn.send(&[
        get("http://order.test/miss-1"),
        get("http://order.test/hit"),
        Message::FindNearest {
            key: bh_md5::url_key("http://order.test/elsewhere"),
        },
        get("http://order.test/miss-2"),
    ]);
    assert_served(
        &conn.recv(),
        ServedBy::Origin,
        &synthetic_body("http://order.test/miss-1"),
    );
    assert_served(&conn.recv(), ServedBy::Local, &hit_body);
    assert_eq!(conn.recv(), Message::FindNearestReply { location: None });
    assert_served(
        &conn.recv(),
        ServedBy::Origin,
        &synthetic_body("http://order.test/miss-2"),
    );
    // Both misses reached the origin, in whichever order the workers ran.
    let mut fetched = gate.wait_for_gets(2);
    fetched.sort();
    assert_eq!(
        fetched,
        ["http://order.test/miss-1", "http://order.test/miss-2"]
    );
}

/// The origin answers the first `Get` only once a second `Get` has
/// arrived, so the pipeline completes only if one connection's misses run
/// concurrently. An engine that serializes a connection's `Get`s never
/// sends the second one, and the first fails at the gate's timeout.
#[test]
fn pipelined_misses_run_concurrently() {
    let gate = GateOrigin::spawn(2);
    let node = node_for(gate.addr);
    let mut conn = Pipeline::connect(&node);
    conn.send(&[get("http://gate.test/a"), get("http://gate.test/b")]);
    assert_served(
        &conn.recv(),
        ServedBy::Origin,
        &synthetic_body("http://gate.test/a"),
    );
    assert_served(
        &conn.recv(),
        ServedBy::Origin,
        &synthetic_body("http://gate.test/b"),
    );
    assert_eq!(node.stats().origin_fetches, 2);
    assert_eq!(node.stats().service_errors, 0);
}

/// Two pipelined `Get`s for the same uncached URL both return the origin's
/// body, and the store keeps one copy.
#[test]
fn duplicate_pipelined_misses_store_the_body_once() {
    let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
    let node = node_for(origin.addr());
    let url = "http://dup.test/object";
    let mut conn = Pipeline::connect(&node);
    conn.send(&[get(url), get(url)]);
    let body = synthetic_body(url);
    for _ in 0..2 {
        let reply = conn.recv();
        let Message::GetReply {
            status,
            body: got,
            served_by,
            ..
        } = &reply
        else {
            panic!("expected a GetReply, got {reply:?}");
        };
        assert_eq!(*status, Status::Ok);
        // The second request is a local hit if the first miss completed
        // before the node read it; either way the body is the origin's.
        assert!(matches!(served_by, ServedBy::Origin | ServedBy::Local));
        assert_eq!(got, &body);
    }
    assert_eq!(node.cached_objects(), 1);
    let stats = node.stats();
    assert_eq!(stats.origin_fetches + stats.local_hits, 2);
}

/// More pipelined misses than the admission mark: the node holds at most
/// `mark` `Get`s at its worker pool (the gate sees exactly that many), the
/// overflow is redirected, and every reply, redirect or not, comes back in
/// request order once the gate opens. No reply overtakes the held head.
#[test]
fn overflow_beyond_the_admission_mark_is_redirected_in_order() {
    const MARK: usize = 4;
    const OVERFLOW: usize = 6;
    let gate = GateOrigin::spawn(usize::MAX);
    let node =
        CacheNode::spawn(NodeConfig::new("127.0.0.1:0", gate.addr).with_admission_high_water(MARK))
            .expect("spawn node");
    let urls: Vec<String> = (0..MARK + OVERFLOW)
        .map(|i| format!("http://burst.test/{i}"))
        .collect();
    let mut conn = Pipeline::connect(&node);
    conn.send(&urls.iter().map(|u| get(u)).collect::<Vec<_>>());

    // All frames handled: the overflow is rejected while the admitted
    // misses sit at the gate.
    let deadline = Instant::now() + DEADLINE;
    while node.stats().admission_rejects < OVERFLOW as u64 {
        assert!(Instant::now() < deadline, "overflow was never rejected");
        std::thread::sleep(Duration::from_millis(1));
    }
    let admitted: BTreeSet<String> = gate.wait_for_gets(MARK).into_iter().collect();
    assert_eq!(admitted, urls[..MARK].iter().cloned().collect());
    assert_eq!(node.stats().admission_rejects, OVERFLOW as u64);
    // The redirects are ready but wait behind the held head.
    conn.stream.set_nonblocking(true).expect("nonblocking");
    let mut probe = [0u8; 1];
    let early = io::Read::read(&mut conn.stream, &mut probe);
    assert_eq!(
        early.map_err(|e| e.kind()),
        Err(io::ErrorKind::WouldBlock),
        "a reply overtook the held head"
    );
    conn.stream.set_nonblocking(false).expect("blocking");

    gate.release();
    for url in &urls[..MARK] {
        assert_served(&conn.recv(), ServedBy::Origin, &synthetic_body(url));
    }
    for _ in 0..OVERFLOW {
        let reply = conn.recv();
        assert!(
            matches!(
                reply,
                Message::GetReply {
                    status: Status::Redirect,
                    ..
                }
            ),
            "expected a redirect, got {reply:?}"
        );
    }
    assert_eq!(gate.seen().len(), MARK);
    assert_eq!(node.stats().origin_fetches, MARK as u64);
}
