//! The socket transport end to end: TCP and Unix-domain loopback through
//! the real kernel, the per-connection blast radius of a poisoned byte
//! stream, determinism of socket-backed load reports, and the
//! cross-client misrouting regression (a reordering fault plane carrying
//! one client's frames over another client's stream).

use sbu_service::loadgen::{self, LoadgenConfig};
use sbu_service::{
    FaultProfile, Frame, FrameDecoder, RetryPolicy, Service, TransportConfig, KIND_REJECT,
    KIND_REQUEST, KIND_RESPONSE,
};
use sbu_spec::specs::{CounterOp, CounterSpec};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};

/// A scratch Unix-socket path unique across the test binary's threads.
fn scratch_socket(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "sbu-socket-{tag}-{}-{}.sock",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

#[test]
fn tcp_loopback_end_to_end() {
    let mut svc = Service::builder(4)
        .workers(2)
        .clients(3)
        .transport(TransportConfig::Tcp("127.0.0.1:0".into()))
        .build(CounterSpec::new());
    let endpoint = svc.endpoint().expect("socket transport").to_string();
    assert!(endpoint.starts_with("tcp://127.0.0.1:"), "{endpoint}");
    std::thread::scope(|scope| {
        for client in 0..3 {
            let svc = &svc;
            scope.spawn(move || {
                for i in 0..50u64 {
                    svc.client(client)
                        .call(i % 8, &CounterOp::Inc)
                        .unwrap_or_else(|e| panic!("client {client} op {i}: {e}"));
                }
            });
        }
    });
    let total: u64 = (0..8)
        .map(|key| svc.client(0).call(key, &CounterOp::Read).expect("read"))
        .sum();
    assert_eq!(total, 150, "every increment over TCP applied exactly once");
    let snap = svc.obs_snapshot();
    svc.shutdown();
    if cfg!(feature = "obs") {
        assert_eq!(snap.counter("service.accept"), 3, "one accept per client");
        assert!(snap.counter("service.read_syscall") > 0);
        assert_eq!(snap.counter("service.conn_drop"), 0);
    }
}

#[test]
fn garbage_bytes_kill_only_their_connection() {
    let path = scratch_socket("garbage");
    let mut svc = Service::builder(4)
        .workers(2)
        .clients(2)
        .transport(TransportConfig::Unix(path.clone()))
        .build(CounterSpec::new());
    // Warm a healthy connection first so its reader is live while the
    // hostile stream dies next to it.
    assert_eq!(svc.client(0).call(3, &CounterOp::Inc).expect("inc"), 1);

    // A hostile peer: an impossible length prefix (far beyond
    // MAX_FRAME_LEN) poisons the rest of the stream — the typed close must
    // take down this connection only, never a worker.
    let mut hostile = std::os::unix::net::UnixStream::connect(&path).expect("dial");
    hostile
        .write_all(&[0xFF, 0xFF, 0xFF, 0xFF, 0xAA, 0xBB, 0xCC])
        .expect("write garbage");
    // The server closes the connection; observe it as EOF on our end.
    hostile
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("timeout");
    let mut buf = [0u8; 64];
    let got = std::io::Read::read(&mut hostile, &mut buf).expect("peer shutdown, not hang");
    assert_eq!(got, 0, "poisoned connection must be closed, not answered");

    // Both real clients still get service: the workers never saw the
    // garbage and the healthy connections keep their writer slots.
    assert_eq!(svc.client(0).call(3, &CounterOp::Inc).expect("inc"), 2);
    assert_eq!(svc.client(1).call(9, &CounterOp::Inc).expect("inc"), 1);
    let snap = svc.obs_snapshot();
    svc.shutdown();
    let _ = std::fs::remove_file(&path);
    if cfg!(feature = "obs") {
        assert_eq!(
            snap.counter("service.conn_drop"),
            1,
            "exactly the hostile connection dropped"
        );
    }
}

#[test]
fn undecodable_and_misdirected_frames_never_kill_a_worker() {
    // Regression: a CRC-valid frame whose payload is not an op, or whose
    // kind is not a request, used to panic the owning worker; the
    // supervisor re-raised the panic and `shutdown` panicked with it.
    let path = scratch_socket("bad-payload");
    let mut svc = Service::builder(2)
        .workers(1) // one worker: the honest client shares it with the peer
        .transport(TransportConfig::Unix(path.clone()))
        .build(CounterSpec::new());
    assert_eq!(svc.client(0).call(3, &CounterOp::Inc).expect("inc"), 1);

    let mut peer = std::os::unix::net::UnixStream::connect(&path).expect("dial");
    peer.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("timeout");
    let frame = |kind, seq| Frame {
        kind,
        client: 7,
        seq,
        key: 3,
        payload: vec![0xEE; 5],
    };
    // Same connection, same key: the reader queues both frames on one
    // worker in order, so the reject proves the response frame was
    // processed (and dropped) first.
    peer.write_all(&frame(KIND_RESPONSE, 1).to_bytes())
        .expect("write response-kind frame");
    peer.write_all(&frame(KIND_REQUEST, 2).to_bytes())
        .expect("write undecodable request");
    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 256];
    let reply = loop {
        if let Some(frame) = dec.next_frame().expect("well-formed reply") {
            break frame;
        }
        let n = peer.read(&mut buf).expect("a reply, not a hang");
        assert!(n > 0, "the server closed the peer instead of answering");
        dec.push(&buf[..n]);
    };
    assert_eq!(
        (reply.kind, reply.client, reply.seq),
        (KIND_REJECT, 7, 2),
        "the undecodable request is rejected, and only it is answered"
    );
    assert!(reply.payload.is_empty());

    // The worker is alive and honest: the same shard keeps counting.
    for expect in 2..=5 {
        assert_eq!(svc.client(0).call(3, &CounterOp::Inc).expect("inc"), expect);
    }
    let snap = svc.obs_snapshot();
    let stats = svc.shutdown();
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        stats.iter().map(|s| s.ops).sum::<u64>(),
        5,
        "only honest ops applied"
    );
    if cfg!(feature = "obs") {
        assert_eq!(snap.counter("service.bad_payload"), 2);
        assert_eq!(snap.counter("service.route"), 5);
        assert_eq!(snap.counter("service.conn_drop"), 0);
    }
}

#[test]
fn loopback_reports_are_deterministic() {
    // Two same-seed runs over real kernel sockets: wall-clock and syscall
    // counts differ run to run, but every data-derived report field is a
    // pure function of the seed.
    let run = |tag: &str| {
        let path = scratch_socket(tag);
        let config = LoadgenConfig {
            clients: 3,
            shards: 4,
            workers: 2,
            ops_per_client: 120,
            keys: 64,
            transport: TransportConfig::Unix(path.clone()),
            seed: 11,
            timing: false,
            ..Default::default()
        };
        let report = loadgen::run(&config, CounterSpec::new(), |rng| {
            use rand::Rng;
            if rng.gen_bool(0.25) {
                CounterOp::Read
            } else {
                CounterOp::Inc
            }
        });
        let _ = std::fs::remove_file(&path);
        report
    };
    let (a, b) = (run("det-a"), run("det-b"));
    assert_eq!(a.ops, b.ops);
    assert_eq!(a.acked, b.acked);
    assert_eq!((a.failures, a.busy_failures), (b.failures, b.busy_failures));
    assert_eq!(a.shards, b.shards, "per-shard op/key splits must match");
    assert_eq!(a.imbalance, b.imbalance);
    assert_eq!(a.elapsed_secs, 0.0, "timing off reports no wall-clock");
}

#[test]
fn reordering_across_clients_keeps_replies_exact() {
    // Regression: the fault plane's shared per-worker request lanes can
    // release a frame held from client A into client B's stream. The
    // server must let A's retransmits reclaim A's writer slot (not cache
    // the claim per connection), and B must never ack its own op with A's
    // same-seq reply. Before those fixes this config wedged, then
    // miscounted.
    let profile = FaultProfile {
        drop: 0.10,
        duplicate: 0.10,
        reorder: 0.20,
        corrupt: 0.10,
        delay: 0.05,
        disconnect: 0.0,
        lie: 0.0,
    };
    let path = scratch_socket("reorder");
    let mut svc = Service::builder(4)
        .workers(2)
        .clients(3)
        .transport(TransportConfig::Unix(path.clone()))
        .fault(profile)
        .retry(RetryPolicy::lossy().with_deadline(std::time::Duration::from_secs(60)))
        .seed(3602)
        .build(CounterSpec::new());
    std::thread::scope(|scope| {
        for client in 0..3 {
            let svc = &svc;
            scope.spawn(move || {
                for i in 0..80u64 {
                    svc.client(client)
                        .call(i % 16, &CounterOp::Inc)
                        .unwrap_or_else(|e| panic!("client {client} op {i}: {e}"));
                }
            });
        }
    });
    let total: u64 = (0..16)
        .map(|key| svc.client(0).call(key, &CounterOp::Read).expect("read"))
        .sum();
    svc.shutdown();
    let _ = std::fs::remove_file(&path);
    assert_eq!(total, 240, "cross-client reordering must stay exactly-once");
}
