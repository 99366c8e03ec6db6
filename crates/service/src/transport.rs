//! The transport seam: how encoded frames move between clients and
//! workers.
//!
//! Everything above this module — routing, dedup, retry, supervision,
//! group commit — deals in *frames*; everything below deals in *bytes in
//! motion*. The [`Transport`] trait is the cut between the two:
//!
//! ```text
//!   ServiceClient ──▶ ClientConn::send ──▶ (wire) ──▶ worker inbox
//!        ▲                                               │
//!        └── ClientConn::recv_until ◀── (wire) ◀── Transport::send_reply
//! ```
//!
//! Three implementations exist:
//!
//! * [`InProcess`] (here) — the mailbox plane: byte-blob queues standing
//!   exactly where a socket would stand, the baseline for experiment E15.
//!   A worker parks on its inbox's condvar until a request arrives; a
//!   client waiting for its reply first spins on the reply box's
//!   published length for an adaptive budget (at most 20 µs, yielding the
//!   core every few dozen polls) and parks only if the reply is slower —
//!   so a warm round trip costs no futex sleep or wake-up on the reply
//!   side (see `Mailbox`).
//! * [`crate::socket::Socket`] — a real blocking TCP or Unix-domain-socket
//!   listener: an acceptor thread plus per-connection readers feeding the
//!   same per-worker inboxes through [`crate::FrameDecoder`].
//! * [`crate::fault::Faulty`] — the seeded fault injector, now a *wrapper*
//!   over any inner transport: it drops/duplicates/reorders/corrupts/
//!   delays/truncates frames on their way into the inner transport, so the
//!   same fault battery runs over mailboxes and over real sockets.
//!
//! A transport is picked with [`TransportConfig`] on
//! [`crate::Service::builder`].

use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::wire::Frame;

/// Which transport a [`crate::Service`] is built on.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TransportConfig {
    /// In-process mailboxes (the default): no sockets, no syscalls.
    #[default]
    InProcess,
    /// A TCP listener bound to `addr` (e.g. `"127.0.0.1:0"` for an
    /// ephemeral loopback port; read the bound address back with
    /// [`crate::Service::endpoint`]).
    Tcp(String),
    /// A Unix-domain-socket listener bound to the given path (a stale
    /// socket file at that path is removed first).
    Unix(PathBuf),
}

impl TransportConfig {
    /// Parse a `tcp://HOST:PORT` or `unix://PATH` endpoint string (the
    /// `--remote` syntax of `service_loadgen`).
    pub fn parse(endpoint: &str) -> Result<Self, String> {
        if let Some(addr) = endpoint.strip_prefix("tcp://") {
            if addr.is_empty() {
                return Err("tcp:// endpoint needs HOST:PORT".into());
            }
            Ok(TransportConfig::Tcp(addr.to_string()))
        } else if let Some(path) = endpoint.strip_prefix("unix://") {
            if path.is_empty() {
                return Err("unix:// endpoint needs a path".into());
            }
            Ok(TransportConfig::Unix(PathBuf::from(path)))
        } else {
            Err(format!(
                "unknown endpoint {endpoint:?}; use tcp://HOST:PORT or unix://PATH"
            ))
        }
    }
}

/// One encoded frame on its way through a transport.
///
/// `Truncated` is how a fault injector expresses a connection that died
/// mid-frame: a socket transport writes the prefix and tears the
/// connection down (the peer sees a partial frame and then EOF); the
/// in-process transport simply loses the bytes (there is no stream to
/// tear).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delivery {
    /// The whole frame, intact.
    Intact(Vec<u8>),
    /// A prefix of a frame whose connection dropped mid-write.
    Truncated(Vec<u8>),
}

/// What happened to a sent request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Handed to the transport (which may still lose it — loss surfaces as
    /// a missing reply, recovered by retransmission).
    Sent,
    /// Rejected locally at the inbox high watermark; the caller owns the
    /// `Busy` outcome. Socket transports never shed locally — their
    /// server-side readers answer with a `Busy` control frame instead.
    Shed,
}

/// One worker's drain of its request stream.
#[derive(Debug)]
pub enum RecvOutcome {
    /// Encoded request blobs, plus the queue depth left behind after the
    /// drain (feeds `service.queue_depth`).
    Batch {
        /// The drained blobs, in arrival order.
        blobs: Vec<Vec<u8>>,
        /// Frames still queued after this drain.
        depth: u64,
    },
    /// The transport was shut down; the worker loop should return.
    Stopped,
}

/// One event on a client's reply stream.
#[derive(Debug)]
pub enum ConnEvent {
    /// A complete, checksum-valid frame addressed to this client.
    Frame(Frame),
    /// A frame arrived but failed wire decoding (corrupted in flight);
    /// detected, skipped, and the stream continues.
    Garbled,
    /// Nothing arrived before the deadline.
    Timeout,
    /// The connection is gone (EOF, a poisoned stream, or a fault-injected
    /// drop). Call [`ClientConn::reconnect`] and retransmit — the server's
    /// `(client, seq)` dedup window makes the retransmission safe.
    Disconnected,
}

/// The server side of a transport: what the worker loop and the reply path
/// see. Implementations must be safe to share across worker threads.
pub trait Transport: Send + Sync {
    /// Block until up to `max` request blobs are available for `worker`
    /// (or the transport shuts down).
    fn recv_requests(&self, worker: usize, max: usize) -> RecvOutcome;

    /// Deliver an encoded reply frame toward `client`. Reply paths are
    /// never shed — clients drain what they asked for.
    fn send_reply(&self, client: u32, delivery: Delivery);

    /// Put raw bytes back at the *front* of `worker`'s request queue,
    /// bypassing any fault injection — the durable kill path restores the
    /// in-flight frame exactly where it was.
    fn requeue_front(&self, worker: usize, bytes: Vec<u8>);

    /// Open a client connection. For socket transports the dial is lazy
    /// (established on first send), so building clients is cheap.
    fn connect(self: Arc<Self>, client: u32) -> Box<dyn ClientConn>;

    /// Stop the transport: wake every blocked `recv_requests`, join any
    /// internal threads, release OS resources. Idempotent.
    fn shutdown(&self);

    /// The canonical endpoint string (`tcp://…` / `unix://…`) clients
    /// outside this process can dial, if the transport has one.
    fn endpoint(&self) -> Option<String> {
        None
    }
}

/// The client side of a transport: one connection's worth of send/receive.
/// A connection belongs to exactly one [`crate::ServiceClient`] and is
/// used from one thread at a time (the client serializes access).
pub trait ClientConn: Send {
    /// Send an encoded request toward the worker that owns its key. Socket
    /// transports ignore the `worker` hint — the server routes inbound
    /// frames itself.
    fn send(&mut self, worker: usize, delivery: Delivery) -> SendOutcome;

    /// Wait for the next reply-stream event, at most until `until`.
    fn recv_until(&mut self, until: Instant) -> ConnEvent;

    /// Re-establish the connection after [`ConnEvent::Disconnected`].
    /// Returns whether a fresh connection is live; the caller retransmits
    /// either way (a dead server just means more `Disconnected`s).
    fn reconnect(&mut self) -> bool;
}

/// A byte-blob queue with a wake-up signal and an optional high watermark —
/// the shared inbox core of both the in-process and the socket transport,
/// and the in-process transport's reply box.
///
/// Every mutation stores the new queue length in `len` under the lock and
/// notifies after it. A reply waiter ([`pop_until`](Self::pop_until)) that
/// finds the queue empty polls `len` for up to the mailbox's adaptive
/// [`SpinBudget`], yielding the core every [`POLLS_PER_YIELD`] polls, and
/// only then takes the lock and parks on the condvar — the same
/// lock-and-condvar protocol as before, so a spin can only shorten a wait,
/// never lose a wake-up. A worker ([`drain`](Self::drain)) parks at once.
pub(crate) struct Mailbox {
    queue: Mutex<VecDeque<Vec<u8>>>,
    /// `queue.len()`, stored under the queue lock; spinning waiters poll it.
    len: AtomicUsize,
    ready: Condvar,
    /// Request-push high watermark; `0` = unbounded.
    capacity: usize,
    spin: SpinBudget,
}

/// Spin polls between two `thread::yield_now` calls. With more runnable
/// threads than cores (two clients and two workers on two cores), a
/// spinner that never yields holds the core its producer needs.
const POLLS_PER_YIELD: u32 = 32;

/// A spin budget never grows past this, and a wait longer than this
/// shrinks it: a handoff that takes longer is not worth a core.
const SPIN_CAP_NS: u32 = 20_000;

/// The first non-zero budget; a shrink below it snaps to zero.
const SPIN_FLOOR_NS: u32 = 2_000;

/// How long a mailbox's waiter spins before parking, adapted from the
/// waits it has seen, like KVM halt-polling. It starts at zero. A wait the
/// spin did not cover but that ended within [`SPIN_CAP_NS`] doubles it
/// (from [`SPIN_FLOOR_NS`], up to the cap); a longer wait — a failed spin
/// followed by a long park, or a timeout — halves it, down to zero.
#[derive(Debug, Default)]
struct SpinBudget {
    ns: AtomicU32,
}

impl SpinBudget {
    /// The current budget.
    fn get(&self) -> Duration {
        Duration::from_nanos(u64::from(self.ns.load(Ordering::Relaxed)))
    }

    /// Adapt to a finished wait of `waited` (spin plus park).
    fn record(&self, waited: Duration) {
        let budget = self.ns.load(Ordering::Relaxed);
        let waited = u32::try_from(waited.as_nanos()).unwrap_or(u32::MAX);
        let next = if waited <= budget {
            budget // the spin caught it
        } else if waited <= SPIN_CAP_NS {
            (budget * 2).clamp(SPIN_FLOOR_NS, SPIN_CAP_NS)
        } else if budget / 2 >= SPIN_FLOOR_NS {
            budget / 2
        } else {
            0
        };
        self.ns.store(next, Ordering::Relaxed);
    }
}

impl Mailbox {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            queue: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
            ready: Condvar::new(),
            capacity,
            spin: SpinBudget::default(),
        }
    }

    /// Publish the queue's new length, unlock, and wake a waiter.
    fn publish(&self, q: MutexGuard<'_, VecDeque<Vec<u8>>>) {
        self.len.store(q.len(), Ordering::Release);
        drop(q);
        self.ready.notify_one();
    }

    /// Push unconditionally (reply boxes, fault-bypassing paths).
    pub(crate) fn push(&self, bytes: Vec<u8>) {
        let mut q = self.queue.lock();
        q.push_back(bytes);
        self.publish(q);
    }

    /// Push a request, shedding at the high watermark: `false` means the
    /// frame was *not* queued and the caller owns the `Busy` outcome.
    pub(crate) fn try_push(&self, bytes: Vec<u8>) -> bool {
        let mut q = self.queue.lock();
        if self.capacity > 0 && q.len() >= self.capacity {
            return false;
        }
        q.push_back(bytes);
        self.publish(q);
        true
    }

    /// Requeue bytes at the front (the durable kill path).
    pub(crate) fn push_front(&self, bytes: Vec<u8>) {
        let mut q = self.queue.lock();
        q.push_front(bytes);
        self.publish(q);
    }

    /// Block until at least one blob is queued (drain up to `max`) or
    /// `stop` is set with the queue empty. Parks at once: a worker that
    /// spun here would take the core from the socket readers feeding it.
    pub(crate) fn drain(&self, max: usize, stop: &AtomicBool) -> RecvOutcome {
        let mut q = self.queue.lock();
        while q.is_empty() {
            if stop.load(Ordering::SeqCst) {
                return RecvOutcome::Stopped;
            }
            self.ready.wait(&mut q);
        }
        let n = q.len().min(max);
        let blobs: Vec<Vec<u8>> = q.drain(..n).collect();
        let depth = q.len();
        self.len.store(depth, Ordering::Release);
        RecvOutcome::Batch {
            blobs,
            depth: depth as u64,
        }
    }

    /// Pop one blob before `until`; `None` on timeout. A waiter that finds
    /// the queue empty spins for up to the mailbox's [`SpinBudget`] before
    /// it parks.
    pub(crate) fn pop_until(&self, until: Instant) -> Option<Vec<u8>> {
        let mut q = if self.len.load(Ordering::Acquire) > 0 {
            self.queue.lock()
        } else {
            let start = Instant::now();
            self.spin((start + self.spin.get()).min(until));
            let mut q = self.queue.lock();
            while q.is_empty() {
                // A timeout can race a notify: the pop below rechecks.
                if self.ready.wait_until(&mut q, until).timed_out() {
                    break;
                }
            }
            self.spin.record(start.elapsed());
            q
        };
        let bytes = q.pop_front();
        self.len.store(q.len(), Ordering::Release);
        bytes
    }

    /// Poll `len` until it is non-zero or `end` passes, yielding the core
    /// every [`POLLS_PER_YIELD`] polls.
    fn spin(&self, end: Instant) {
        while Instant::now() < end {
            for _ in 0..POLLS_PER_YIELD {
                if self.len.load(Ordering::Acquire) > 0 {
                    return;
                }
                std::hint::spin_loop();
            }
            std::thread::yield_now();
        }
    }

    /// Wake every waiter (shutdown path). Taking the lock first orders the
    /// notify after any waiter's stop check, so none parks past it.
    pub(crate) fn notify_all(&self) {
        drop(self.queue.lock());
        self.ready.notify_all();
    }
}

/// The in-process transport: per-worker request inboxes and per-client
/// reply boxes, all plain bounded/unbounded queues. This is byte-for-byte
/// the mailbox plane the service always had, now behind the seam.
pub struct InProcess {
    inboxes: Vec<Mailbox>,
    replies: Vec<Mailbox>,
    stop: AtomicBool,
}

impl InProcess {
    /// Build the mailbox plane for `workers` × `clients` with the given
    /// request-inbox high watermark (`0` = unbounded).
    pub(crate) fn new(workers: usize, clients: usize, capacity: usize) -> Self {
        Self {
            inboxes: (0..workers).map(|_| Mailbox::new(capacity)).collect(),
            replies: (0..clients).map(|_| Mailbox::new(0)).collect(),
            stop: AtomicBool::new(false),
        }
    }
}

impl Transport for InProcess {
    fn recv_requests(&self, worker: usize, max: usize) -> RecvOutcome {
        self.inboxes[worker].drain(max, &self.stop)
    }

    fn send_reply(&self, client: u32, delivery: Delivery) {
        match delivery {
            Delivery::Intact(bytes) => self.replies[client as usize].push(bytes),
            // No stream to truncate: the bytes are simply gone, exactly
            // like a drop (the retry layer recovers either way).
            Delivery::Truncated(_) => {}
        }
    }

    fn requeue_front(&self, worker: usize, bytes: Vec<u8>) {
        self.inboxes[worker].push_front(bytes);
    }

    fn connect(self: Arc<Self>, client: u32) -> Box<dyn ClientConn> {
        Box::new(InProcessConn {
            transport: self,
            client,
        })
    }

    fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for inbox in &self.inboxes {
            inbox.notify_all();
        }
        for replies in &self.replies {
            replies.notify_all();
        }
    }
}

/// One client's view of the in-process transport.
struct InProcessConn {
    transport: Arc<InProcess>,
    client: u32,
}

impl ClientConn for InProcessConn {
    fn send(&mut self, worker: usize, delivery: Delivery) -> SendOutcome {
        match delivery {
            Delivery::Intact(bytes) => {
                if self.transport.inboxes[worker].try_push(bytes) {
                    SendOutcome::Sent
                } else {
                    SendOutcome::Shed
                }
            }
            // A truncated request never reaches the worker's decoder (a
            // partial blob would poison the shared stream); it is a loss.
            Delivery::Truncated(_) => SendOutcome::Sent,
        }
    }

    fn recv_until(&mut self, until: Instant) -> ConnEvent {
        let Some(bytes) = self.transport.replies[self.client as usize].pop_until(until) else {
            return ConnEvent::Timeout;
        };
        // Each mailbox blob is one encoded frame; decode it one-shot.
        match Frame::decode(&bytes) {
            Ok(Some(frame)) => ConnEvent::Frame(frame),
            // Incomplete or corrupted blob: detected, counted upstream.
            Ok(None) | Err(_) => ConnEvent::Garbled,
        }
    }

    fn reconnect(&mut self) -> bool {
        true // mailboxes cannot drop; nothing to re-establish
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn parse_understands_both_schemes_and_rejects_junk() {
        assert_eq!(
            TransportConfig::parse("tcp://127.0.0.1:9000").unwrap(),
            TransportConfig::Tcp("127.0.0.1:9000".into())
        );
        assert_eq!(
            TransportConfig::parse("unix:///tmp/x.sock").unwrap(),
            TransportConfig::Unix(PathBuf::from("/tmp/x.sock"))
        );
        for bad in ["tcp://", "unix://", "http://x", "127.0.0.1:9000"] {
            assert!(TransportConfig::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn bounded_mailbox_sheds_and_unbounded_does_not() {
        let bounded = Mailbox::new(2);
        assert!(bounded.try_push(vec![1]));
        assert!(bounded.try_push(vec![2]));
        assert!(!bounded.try_push(vec![3]), "watermark at 2");
        let unbounded = Mailbox::new(0);
        for i in 0..100u8 {
            assert!(unbounded.try_push(vec![i]));
        }
    }

    #[test]
    fn drain_takes_at_most_max_and_reports_depth() {
        let mbox = Mailbox::new(0);
        for i in 0..5u8 {
            mbox.push(vec![i]);
        }
        let stop = AtomicBool::new(false);
        match mbox.drain(3, &stop) {
            RecvOutcome::Batch { blobs, depth } => {
                assert_eq!(blobs, vec![vec![0], vec![1], vec![2]]);
                assert_eq!(depth, 2);
            }
            RecvOutcome::Stopped => panic!("queued frames must drain"),
        }
    }

    #[test]
    fn drain_returns_stopped_once_empty_and_stopped() {
        let mbox = Mailbox::new(0);
        let stop = AtomicBool::new(true);
        assert!(matches!(mbox.drain(8, &stop), RecvOutcome::Stopped));
    }

    #[test]
    fn pop_until_times_out_cleanly() {
        let mbox = Mailbox::new(0);
        let t0 = Instant::now();
        assert!(mbox
            .pop_until(Instant::now() + Duration::from_millis(20))
            .is_none());
        assert!(t0.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn spin_budget_starts_at_zero_grows_on_short_waits_and_decays_on_long_ones() {
        let us = Duration::from_micros;
        let budget = SpinBudget::default();
        assert_eq!(budget.get(), Duration::ZERO);
        // Short parks double it from the floor up to the cap.
        for want in [2, 4, 8, 16, 20, 20] {
            budget.record(us(19));
            assert_eq!(budget.get(), us(want));
        }
        // A wait the spin covered leaves it alone.
        budget.record(us(3));
        assert_eq!(budget.get(), us(20));
        // Long waits halve it, and below the floor it snaps to zero.
        for want in [10_000, 5_000, 2_500, 0, 0] {
            budget.record(Duration::from_millis(1));
            assert_eq!(budget.get(), Duration::from_nanos(want));
        }
    }

    #[test]
    fn pop_until_honours_its_deadline_after_the_budget_has_grown() {
        let mbox = Mailbox::new(0);
        for _ in 0..8 {
            mbox.spin.record(Duration::from_micros(19));
        }
        assert_eq!(
            mbox.spin.get(),
            Duration::from_nanos(u64::from(SPIN_CAP_NS))
        );
        for wait in [
            Duration::ZERO,
            Duration::from_micros(5),
            Duration::from_millis(5),
        ] {
            let t0 = Instant::now();
            assert!(mbox.pop_until(t0 + wait).is_none());
            let took = t0.elapsed();
            assert!(
                took >= wait,
                "returned before its deadline: {took:?} < {wait:?}"
            );
            assert!(took < wait + Duration::from_secs(1), "overslept: {took:?}");
        }
    }

    #[test]
    fn drain_returns_stopped_promptly_when_stopped_while_waiting() {
        let mbox = Arc::new(Mailbox::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let (done_tx, done) = std::sync::mpsc::channel();
        let waiter = {
            let (mbox, stop) = (Arc::clone(&mbox), Arc::clone(&stop));
            std::thread::spawn(move || {
                let stopped = matches!(mbox.drain(8, &stop), RecvOutcome::Stopped);
                done_tx.send(stopped).unwrap();
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        stop.store(true, Ordering::SeqCst);
        mbox.notify_all();
        assert_eq!(done.recv_timeout(Duration::from_secs(5)), Ok(true));
        waiter.join().unwrap();
    }

    /// A client/worker ping-pong over a request and a reply mailbox, with
    /// random short sleeps on both sides so waits hit every phase: the
    /// spin, the park, and the gap between them. A lost wake-up shows up as
    /// a reply wait running into the hard deadline.
    #[test]
    fn mailbox_ping_pong_never_loses_a_wakeup() {
        const ROUND_TRIPS: u32 = 100_000;
        let deadline = Instant::now() + Duration::from_secs(60);
        let requests = Arc::new(Mailbox::new(0));
        let replies = Arc::new(Mailbox::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        // Sleep a few microseconds on about one step in 64.
        let nap = |rng: &mut u64| {
            *rng ^= *rng << 13;
            *rng ^= *rng >> 7;
            *rng ^= *rng << 17;
            if rng.is_multiple_of(64) {
                std::thread::sleep(Duration::from_micros(*rng >> 60));
            }
        };
        let worker = {
            let (requests, replies, stop) = (
                Arc::clone(&requests),
                Arc::clone(&replies),
                Arc::clone(&stop),
            );
            std::thread::spawn(move || {
                let mut rng = 0x9e37_79b9_7f4a_7c15u64;
                while let RecvOutcome::Batch { blobs, .. } = requests.drain(1, &stop) {
                    nap(&mut rng);
                    replies.push(blobs.into_iter().next().unwrap());
                }
            })
        };
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        for i in 0..ROUND_TRIPS {
            requests.push(i.to_le_bytes().to_vec());
            nap(&mut rng);
            let reply = replies.pop_until(deadline);
            if reply.is_none() {
                stop.store(true, Ordering::SeqCst);
                requests.notify_all();
                panic!("round trip {i} lost its wake-up");
            }
            assert_eq!(reply.unwrap(), i.to_le_bytes());
        }
        stop.store(true, Ordering::SeqCst);
        requests.notify_all();
        worker.join().unwrap();
    }

    #[test]
    fn requeue_front_goes_ahead_of_queued_frames() {
        let mbox = Mailbox::new(0);
        mbox.push(vec![2]);
        mbox.push_front(vec![1]);
        let stop = AtomicBool::new(false);
        match mbox.drain(8, &stop) {
            RecvOutcome::Batch { blobs, .. } => assert_eq!(blobs, vec![vec![1], vec![2]]),
            RecvOutcome::Stopped => panic!(),
        }
    }
}
