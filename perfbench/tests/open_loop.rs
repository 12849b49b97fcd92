//! Self-checks of the open-loop generator against a live mesh: a stall
//! injected over the mesh namespace must show up in the latencies of the
//! requests due during it (the generator keeps sending on schedule
//! instead of waiting the stall out), and a reply body that differs from
//! the origin's must be flagged.

use bh_perfbench::live::body_digest;
use bh_perfbench::loadgen::{poisson, Failure, Generator, Planned, RunOptions, Served};
use bh_perfbench::mesh::{Mesh, Overrides};
use bh_perfbench::stats::{median, quantile};
use bh_proto::client::Connection;
use bh_simcore::rng::Xoshiro256;
use std::time::{Duration, Instant};

const OBJECTS: usize = 64;

fn url(i: usize) -> String {
    format!("http://selfcheck.example/obj/{i}")
}

fn body(i: usize, version: u8) -> Vec<u8> {
    (0..300).map(|j| (i * 31 + j * 7) as u8 ^ version).collect()
}

/// One node, `OBJECTS` small objects installed at the origin and warmed
/// into the node's data cache.
fn warm_mesh() -> (Mesh, Vec<String>, Vec<(u32, u64)>) {
    let mesh = Mesh::spawn(1, Overrides::default()).expect("spawn mesh");
    let urls: Vec<String> = (0..OBJECTS).map(url).collect();
    let mut expected = Vec::new();
    for (i, u) in urls.iter().enumerate() {
        let b = body(i, 0);
        expected.push((b.len() as u32, body_digest(&b)));
        mesh.origin.put(u, 1, b);
    }
    let mut conn = Connection::open(mesh.addrs()[0]).expect("connect");
    for u in &urls {
        conn.fetch(u).expect("warm fetch");
    }
    (mesh, urls, expected)
}

#[test]
fn stall_shows_in_latency_of_requests_due_during_it() {
    let (mesh, urls, expected) = warm_mesh();
    let addr = mesh.addrs()[0];
    let mut gen = Generator::connect(&[addr]).expect("generator");
    let mut rng = Xoshiro256::seed_from_u64(7);
    let plan = poisson(&mut rng, 2_000.0, Duration::from_millis(1_500), |r| {
        (0, r.below(OBJECTS as u64) as u32)
    });
    let check = |u: u32, b: &[u8]| {
        let (len, digest) = expected[u as usize];
        b.len() == len as usize && body_digest(b) == digest
    };

    // Stall the node's shard threads: every readiness event sleeps 20 ms
    // before it is served, from 0.5 s to 0.8 s into the step.
    const STALL_US: u64 = 20_000;
    let (stall_from, stall_to) = (Duration::from_millis(500), Duration::from_millis(800));
    let path = "mesh/nodes/self/pool/fault/rx_latency_micros";
    let start = Instant::now();
    let injector = std::thread::spawn(move || {
        std::thread::sleep(stall_from);
        Connection::open(addr)
            .and_then(|mut c| c.meta_set(path, &STALL_US.to_string()))
            .expect("arm stall");
        std::thread::sleep(stall_to.saturating_sub(start.elapsed()));
        Connection::open(addr)
            .and_then(|mut c| c.meta_set(path, "0"))
            .expect("clear stall");
    });
    let res = gen
        .run(
            &urls,
            &plan,
            &check,
            RunOptions {
                trace: false,
                drain: Duration::from_secs(5),
            },
        )
        .expect("run");
    injector.join().expect("injector");

    assert_eq!(res.failed(), 0, "every request answered correctly");
    let ms = |from: Duration, to: Duration| -> Vec<f64> {
        res.outcomes
            .iter()
            .filter(|o| o.due_ns >= from.as_nanos() as u64 && o.due_ns < to.as_nanos() as u64)
            .map(|o| o.latency_ms())
            .collect()
    };
    // Margins keep the windows clear of the injector's own timing slop.
    let during = ms(Duration::from_millis(560), Duration::from_millis(760));
    let before = ms(Duration::ZERO, Duration::from_millis(450));
    let after = ms(Duration::from_millis(1_000), Duration::from_millis(1_500));
    assert!(during.len() > 100 && before.len() > 100 && after.len() > 100);
    let stall_ms = STALL_US as f64 / 1e3;
    assert!(
        median(&during) >= stall_ms / 4.0,
        "requests due during the stall must include the wait: median {:.3} ms",
        median(&during)
    );
    assert!(
        quantile(&during, 0.9) >= stall_ms / 2.0,
        "the tail of the stall window reaches the stall: p90 {:.3} ms",
        quantile(&during, 0.9)
    );
    assert!(
        median(&before) < stall_ms / 4.0 && median(&after) < stall_ms / 4.0,
        "outside the stall latency is small: {:.3} / {:.3} ms",
        median(&before),
        median(&after)
    );
    // The generator itself stayed on schedule through the stall: it did
    // not wait for replies, so the wait is the system's, not the
    // generator's. (A closed loop would send these up to a stall late.)
    let late_during: Vec<f64> = res
        .outcomes
        .iter()
        .filter(|o| (560_000_000..760_000_000).contains(&o.due_ns))
        .map(|o| o.late_us())
        .collect();
    assert!(
        median(&late_during) < stall_ms * 1e3 / 4.0,
        "generator lateness during the stall: median {:.0} µs",
        median(&late_during)
    );
    mesh.shutdown();
}

#[test]
fn a_body_that_differs_from_the_origin_is_flagged() {
    let (mesh, urls, expected) = warm_mesh();
    // The origin moves object 0 to a new body; the node still serves the
    // old one from its data cache, so the check must reject it.
    let fresh = body(0, 0x5a);
    let mut expected = expected;
    expected[0] = (fresh.len() as u32, body_digest(&fresh));
    mesh.origin.put(&urls[0], 2, fresh);
    let check = |u: u32, b: &[u8]| {
        let (len, digest) = expected[u as usize];
        b.len() == len as usize && body_digest(b) == digest
    };
    let plan: Vec<Planned> = (0..4)
        .map(|i| Planned {
            conn: 0,
            due_ns: i * 1_000_000,
            url: (i % 2) as u32,
        })
        .collect();
    let mut gen = Generator::connect(&mesh.addrs()).expect("generator");
    let res = gen
        .run(
            &urls,
            &plan,
            &check,
            RunOptions {
                trace: true,
                drain: Duration::from_secs(5),
            },
        )
        .expect("run");
    let served: Vec<Served> = res.outcomes.iter().map(|o| o.served).collect();
    assert_eq!(
        served,
        vec![
            Served::Failed(Failure::WrongBody),
            Served::Local,
            Served::Failed(Failure::WrongBody),
            Served::Local
        ]
    );
    assert!(
        res.outcomes
            .iter()
            .all(|o| o.encode_ns > 0 && o.decode_ns > 0),
        "traced step times encode and decode"
    );
    mesh.shutdown();
}

#[test]
fn poisson_schedule_is_seeded_and_at_rate() {
    let pick = |r: &mut Xoshiro256| (0, r.below(10) as u32);
    let a = poisson(
        &mut Xoshiro256::seed_from_u64(3),
        10_000.0,
        Duration::from_secs(2),
        pick,
    );
    let b = poisson(
        &mut Xoshiro256::seed_from_u64(3),
        10_000.0,
        Duration::from_secs(2),
        pick,
    );
    assert_eq!(a, b, "same seed, same schedule");
    assert!(
        (a.len() as f64 - 20_000.0).abs() < 600.0,
        "{} arrivals",
        a.len()
    );
    assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
}
