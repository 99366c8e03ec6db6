//! Seeded, deterministic transport-fault injection at the transport seam.
//!
//! [`Faulty`] is a *wrapper transport*: it sits between the client/server
//! handles and any inner [`Transport`] (in-process mailboxes or a real
//! socket) and, frame by frame, decides whether the frame is delivered
//! intact, **dropped**, **duplicated**, **reordered** past a frame staged
//! just before it, **corrupted** (a byte flipped in flight — caught
//! downstream by the frame checksum), **delayed** (held back until the
//! next frame passes it), or **disconnected** (the stream dies mid-frame:
//! a truncated prefix goes out and the connection is torn down, forcing
//! the client through reconnect-and-retransmit). Decisions come from a
//! per-channel seeded [`SmallRng`], so a given `(seed, traffic)` pair
//! replays the same fault pattern — the injection battery in
//! `crates/scenario` and the `exp e13` sweep both lean on that.
//!
//! Because the wrapper forwards frames to the inner transport as soon as
//! they are admitted, the reorder fault only overtakes frames staged in
//! the same admission (duplicates, releases of a delayed frame). It is
//! still *counted* on every decision — over TCP, which is order-preserving
//! by contract, a standalone reorder could not happen anyway.
//!
//! Honest corruption flips a byte *without* fixing the checksum: the
//! receiver detects it, counts it, and the retry layer resends — end to
//! end it behaves like a drop. The **lying** corruptor
//! ([`FaultProfile::lie`]) is the adversarial cell: it rewrites a response
//! payload *and recomputes the checksum*, so the wire layer cannot object
//! and only a semantic check (the linearizability monitor above the
//! service) can catch the damage. Scenario cells running the liar must
//! report CAUGHT.
//!
//! Every injected fault increments a `service.inject.*` counter on the
//! mailbox's own obs lane (writes are serialized by the mailbox lock, so
//! the single-writer lane discipline holds).

use crate::transport::{ClientConn, ConnEvent, Delivery, RecvOutcome, SendOutcome, Transport};
use crate::wire::{checksum, KIND_RESPONSE};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Per-frame fault probabilities for a lossy transport. All rates are
/// independent coin weights in `[0, 1]` evaluated in a fixed order (drop,
/// duplicate, reorder, corrupt, delay, disconnect, lie) with at most one
/// fault applied per frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Probability a frame is silently discarded.
    pub drop: f64,
    /// Probability a frame is delivered twice.
    pub duplicate: f64,
    /// Probability a frame is enqueued *before* the frame ahead of it.
    pub reorder: f64,
    /// Probability one byte of the frame is flipped in flight (checksum
    /// intact, so the receiver detects and discards it).
    pub corrupt: f64,
    /// Probability a frame is held back until the next frame overtakes it.
    pub delay: f64,
    /// Probability the connection dies mid-frame: a truncated prefix is
    /// delivered and the stream is torn down, so a socket client must
    /// reconnect and retransmit (safe under the `(client, seq)` dedup
    /// window). On the in-process transport the prefix is simply lost.
    pub disconnect: f64,
    /// Probability a *response* payload is rewritten with the checksum
    /// recomputed — undetectable on the wire, a true semantic lie. Keep at
    /// `0` except in adversarial monitor-validation cells.
    pub lie: f64,
}

impl FaultProfile {
    /// A perfect transport (all rates zero).
    pub const fn none() -> Self {
        Self {
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            corrupt: 0.0,
            delay: 0.0,
            disconnect: 0.0,
            lie: 0.0,
        }
    }

    /// The honest-lossy preset used by tests and the `lossy-transport`
    /// scenario: 10% drop, 10% duplicate, 10% reorder, 10% corrupt,
    /// 5% delay, no disconnects, no lying.
    pub const fn lossy() -> Self {
        Self {
            drop: 0.10,
            duplicate: 0.10,
            reorder: 0.10,
            corrupt: 0.10,
            delay: 0.05,
            disconnect: 0.0,
            lie: 0.0,
        }
    }

    /// `lossy()` with the lying corruptor switched on at `rate` — the
    /// adversarial preset for monitor-validation cells.
    pub const fn lying(rate: f64) -> Self {
        let mut p = Self::lossy();
        p.lie = rate;
        p
    }

    /// This profile with the disconnect fault at `rate` — the socket
    /// torture knob (mid-frame truncation + forced reconnect).
    pub const fn with_disconnect(mut self, rate: f64) -> Self {
        self.disconnect = rate;
        self
    }

    /// Whether every rate is zero (no injector needed).
    pub fn is_none(&self) -> bool {
        *self == Self::none()
    }
}

impl Default for FaultProfile {
    fn default() -> Self {
        Self::none()
    }
}

/// Injection counters (`service.inject.*`), one handle set shared by every
/// channel; each channel records on its own lane.
#[derive(Clone)]
pub struct InjectObs {
    /// `service.inject.drop` — frames discarded.
    pub drop: sbu_obs::Counter,
    /// `service.inject.dup` — frames delivered twice.
    pub dup: sbu_obs::Counter,
    /// `service.inject.reorder` — reorder faults injected (a frame overtakes
    /// its predecessor when one is queued; a no-op on an empty queue).
    pub reorder: sbu_obs::Counter,
    /// `service.inject.corrupt` — frames with a byte flipped (detectable).
    pub corrupt: sbu_obs::Counter,
    /// `service.inject.delay` — frames held back.
    pub delay: sbu_obs::Counter,
    /// `service.inject.disconnect` — streams killed mid-frame.
    pub disconnect: sbu_obs::Counter,
    /// `service.inject.lie` — responses rewritten checksum-intact.
    pub lies: sbu_obs::Counter,
}

impl InjectObs {
    /// Register the `service.inject.*` instruments on `registry`.
    pub fn register(registry: &sbu_obs::Registry) -> Self {
        Self {
            drop: registry.counter("service.inject.drop"),
            dup: registry.counter("service.inject.dup"),
            reorder: registry.counter("service.inject.reorder"),
            corrupt: registry.counter("service.inject.corrupt"),
            delay: registry.counter("service.inject.delay"),
            disconnect: registry.counter("service.inject.disconnect"),
            lies: registry.counter("service.inject.lie"),
        }
    }
}

/// The fault decided for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    Deliver,
    Drop,
    Duplicate,
    Reorder,
    Corrupt,
    Delay,
    Disconnect,
    Lie,
}

/// What [`FaultyChannel::admit`] did with the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// The stream survives (the frame itself may still have been dropped,
    /// duplicated, corrupted, delayed, …).
    Delivered,
    /// The stream died mid-frame: the carried prefix is the partial write
    /// the peer observes before EOF. Transport wrappers turn this into
    /// [`Delivery::Truncated`].
    Disconnected(Vec<u8>),
}

/// The per-mailbox injector: owns the channel's RNG and any held-back
/// (delayed) frames. Lives *inside* the mailbox mutex, so decisions are
/// serialized with the queue they mutate.
#[derive(Debug)]
pub struct FaultyChannel {
    profile: FaultProfile,
    rng: SmallRng,
    /// The obs lane this channel records on.
    lane: usize,
    /// Frames held back by a `delay` fault, released behind the next frame.
    held: Vec<Vec<u8>>,
}

impl FaultyChannel {
    /// A channel injecting per `profile`, seeded so distinct channels of the
    /// same service draw independent streams.
    pub fn new(profile: FaultProfile, seed: u64, lane: usize) -> Self {
        Self {
            profile,
            rng: SmallRng::seed_from_u64(
                seed ^ (lane as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            lane,
            held: Vec::new(),
        }
    }

    fn decide(&mut self, is_response: bool) -> Fault {
        let p = self.profile;
        if self.rng.gen_bool(p.drop) {
            return Fault::Drop;
        }
        if self.rng.gen_bool(p.duplicate) {
            return Fault::Duplicate;
        }
        if self.rng.gen_bool(p.reorder) {
            return Fault::Reorder;
        }
        if self.rng.gen_bool(p.corrupt) {
            return Fault::Corrupt;
        }
        if self.rng.gen_bool(p.delay) {
            return Fault::Delay;
        }
        if self.rng.gen_bool(p.disconnect) {
            return Fault::Disconnect;
        }
        if is_response && self.rng.gen_bool(p.lie) {
            return Fault::Lie;
        }
        Fault::Deliver
    }

    /// Pass `bytes` (one encoded frame) through the faulty channel into
    /// `queue`, applying at most one fault and counting it on this
    /// channel's lane. Any frame previously held by a `delay` fault is
    /// released *after* the new frame (that is what "delayed" means here).
    ///
    /// The return value reports stream-level damage: on
    /// [`Admission::Disconnected`] nothing was queued, any held frame is
    /// gone with the stream, and the carried prefix is what the peer saw
    /// before the cut.
    pub fn admit(
        &mut self,
        bytes: Vec<u8>,
        queue: &mut VecDeque<Vec<u8>>,
        obs: &InjectObs,
    ) -> Admission {
        let is_response = frame_kind(&bytes) == Some(KIND_RESPONSE);
        let fault = self.decide(is_response);
        let lane = self.lane;
        match fault {
            Fault::Deliver => queue.push_back(bytes),
            Fault::Drop => obs.drop.incr(lane),
            Fault::Duplicate => {
                obs.dup.incr(lane);
                queue.push_back(bytes.clone());
                queue.push_back(bytes);
            }
            Fault::Reorder => {
                // Counted on the *decision*, like every other fault: queue
                // occupancy depends on how fast the receiver drains, so a
                // fired-only counter would not replay for a fixed seed.
                obs.reorder.incr(lane);
                if queue.is_empty() {
                    // Nothing ahead to pass — the injected reorder is a no-op.
                    queue.push_back(bytes);
                } else {
                    let at = queue.len() - 1;
                    queue.insert(at, bytes);
                }
            }
            Fault::Corrupt => {
                obs.corrupt.incr(lane);
                queue.push_back(flip_byte(bytes, &mut self.rng));
            }
            Fault::Delay => {
                obs.delay.incr(lane);
                // The newly held frame still flushes anything held before
                // it (so `held` never exceeds one frame and a pure-delay
                // profile cannot stall the channel forever).
                let prior = std::mem::take(&mut self.held);
                queue.extend(prior);
                self.held.push(bytes);
                return Admission::Delivered; // released behind a future frame
            }
            Fault::Disconnect => {
                obs.disconnect.incr(lane);
                // The stream dies mid-write: anything held back by a delay
                // dies with it, and the peer sees a prefix of this frame
                // followed by EOF.
                self.held.clear();
                let cut = if bytes.len() > 1 {
                    self.rng.gen_range(1..bytes.len())
                } else {
                    0
                };
                return Admission::Disconnected(bytes[..cut].to_vec());
            }
            Fault::Lie => {
                obs.lies.incr(lane);
                queue.push_back(rewrite_response(bytes, &mut self.rng));
            }
        }
        // A frame went past: release anything we were holding behind it.
        for held in self.held.drain(..) {
            queue.push_back(held);
        }
        Admission::Delivered
    }
}

/// One direction of one lane through the injector: the seeded channel plus
/// a staging queue frames are admitted into before being forwarded to the
/// inner transport.
struct FaultLane {
    chan: FaultyChannel,
    staging: VecDeque<Vec<u8>>,
}

impl FaultLane {
    fn new(profile: FaultProfile, seed: u64, lane: usize) -> Self {
        Self {
            chan: FaultyChannel::new(profile, seed, lane),
            staging: VecDeque::new(),
        }
    }
}

/// Admit one frame through a lane and drain whatever the injector decided
/// to forward (zero frames for a drop, two for a duplicate, a previously
/// delayed frame released behind this one, …). The second return is the
/// truncated prefix of a disconnect, if one fired.
fn admit_through(
    lane: &Mutex<FaultLane>,
    bytes: Vec<u8>,
    obs: &InjectObs,
) -> (Vec<Vec<u8>>, Option<Vec<u8>>) {
    let mut guard = lane.lock();
    let FaultLane { chan, staging } = &mut *guard;
    let admission = chan.admit(bytes, staging, obs);
    let blobs: Vec<Vec<u8>> = staging.drain(..).collect();
    let cut = match admission {
        Admission::Delivered => None,
        Admission::Disconnected(prefix) => Some(prefix),
    };
    (blobs, cut)
}

/// The fault injector as a wrapper [`Transport`]: every request passes a
/// per-worker lane on its way into the inner transport, every reply a
/// per-client lane on its way out. Lane seeding matches the historic
/// mailbox injector exactly (requests on lane `w`, replies on lane
/// `workers + c`), so a fixed `(seed, traffic)` pair replays the same
/// fault pattern it always did.
///
/// The durable-recovery requeue path bypasses injection: those bytes never
/// left the worker, so there is no wire for them to be damaged on.
pub(crate) struct Faulty {
    inner: Arc<dyn Transport>,
    /// Request lanes, one per worker (obs lane `w`).
    req: Vec<Mutex<FaultLane>>,
    /// Reply lanes, one per client (obs lane `workers + c`).
    resp: Vec<Mutex<FaultLane>>,
    inject: InjectObs,
}

impl Faulty {
    pub(crate) fn new(
        inner: Arc<dyn Transport>,
        profile: FaultProfile,
        seed: u64,
        workers: usize,
        clients: usize,
        inject: InjectObs,
    ) -> Self {
        Self {
            inner,
            req: (0..workers)
                .map(|w| Mutex::new(FaultLane::new(profile, seed, w)))
                .collect(),
            resp: (0..clients)
                .map(|c| Mutex::new(FaultLane::new(profile, seed, workers + c)))
                .collect(),
            inject,
        }
    }
}

impl Transport for Faulty {
    fn recv_requests(&self, worker: usize, max: usize) -> RecvOutcome {
        self.inner.recv_requests(worker, max)
    }

    fn send_reply(&self, client: u32, delivery: Delivery) {
        match delivery {
            Delivery::Intact(bytes) => {
                let (blobs, cut) = admit_through(&self.resp[client as usize], bytes, &self.inject);
                for blob in blobs {
                    self.inner.send_reply(client, Delivery::Intact(blob));
                }
                if let Some(prefix) = cut {
                    self.inner.send_reply(client, Delivery::Truncated(prefix));
                }
            }
            truncated => self.inner.send_reply(client, truncated),
        }
    }

    fn requeue_front(&self, worker: usize, bytes: Vec<u8>) {
        self.inner.requeue_front(worker, bytes);
    }

    fn connect(self: Arc<Self>, client: u32) -> Box<dyn ClientConn> {
        let inner = Arc::clone(&self.inner).connect(client);
        Box::new(FaultyConn {
            shared: self,
            inner,
        })
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }

    fn endpoint(&self) -> Option<String> {
        self.inner.endpoint()
    }
}

/// A client connection whose outbound requests pass the injector before
/// reaching the inner connection. Replies were already damaged (or not) on
/// the server side, so the receive path is a clean pass-through.
struct FaultyConn {
    shared: Arc<Faulty>,
    inner: Box<dyn ClientConn>,
}

impl ClientConn for FaultyConn {
    fn send(&mut self, worker: usize, delivery: Delivery) -> SendOutcome {
        match delivery {
            Delivery::Intact(bytes) => {
                let (blobs, cut) =
                    admit_through(&self.shared.req[worker], bytes, &self.shared.inject);
                let mut outcome = SendOutcome::Sent;
                for blob in blobs {
                    if self.inner.send(worker, Delivery::Intact(blob)) == SendOutcome::Shed {
                        outcome = SendOutcome::Shed;
                    }
                }
                if let Some(prefix) = cut {
                    self.inner.send(worker, Delivery::Truncated(prefix));
                }
                outcome
            }
            truncated => self.inner.send(worker, truncated),
        }
    }

    fn recv_until(&mut self, until: Instant) -> ConnEvent {
        self.inner.recv_until(until)
    }

    fn reconnect(&mut self) -> bool {
        self.inner.reconnect()
    }
}

/// Peek the `kind` byte of an encoded frame
/// (`[len:4][crc:4][kind:1]…` — index 8).
fn frame_kind(bytes: &[u8]) -> Option<u8> {
    bytes.get(8).copied()
}

/// Honest corruption: flip one bit somewhere past the length prefix (so
/// framing survives and the checksum — not resynchronization — catches it).
fn flip_byte(mut bytes: Vec<u8>, rng: &mut SmallRng) -> Vec<u8> {
    if bytes.len() > 4 {
        let at = rng.gen_range(4..bytes.len());
        let bit = rng.gen_range(0..8u8);
        bytes[at] ^= 1u8 << bit;
    }
    bytes
}

/// The lying corruptor: rewrite the last payload byte of a response and
/// *recompute the checksum*, producing a frame the wire layer must accept.
/// Header-only frames (controls, empty payloads) are left alone — there is
/// nothing semantic to lie about.
fn rewrite_response(mut bytes: Vec<u8>, rng: &mut SmallRng) -> Vec<u8> {
    // Layout: [len:4][crc:4][kind:1][client:4][seq:8][key:8][payload…].
    const PAYLOAD_AT: usize = 4 + 4 + 1 + 4 + 8 + 8;
    if bytes.len() <= PAYLOAD_AT {
        return bytes;
    }
    let last = bytes.len() - 1;
    // Flip a low bit of the trailing payload byte: for counter/jam-word
    // (LE u64 values) this perturbs the high-order value byte, yielding
    // answers no honest execution produces; for enum-tag payloads it lands
    // on a tag or value byte. Either way the response decodes differently
    // (or not at all) while the checksum vouches for it.
    bytes[last] ^= 1u8 << rng.gen_range(0..2u8);
    let crc = checksum(&bytes[8..]);
    bytes[4..8].copy_from_slice(&crc.to_le_bytes());
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{request_frame, response_frame, FrameDecoder, WireCodec, WireError};
    use sbu_spec::specs::{CounterOp, CounterSpec};

    fn obs() -> (sbu_obs::Registry, InjectObs) {
        let registry = sbu_obs::Registry::new(1);
        let inject = InjectObs::register(&registry);
        (registry, inject)
    }

    fn a_frame(seq: u64) -> Vec<u8> {
        request_frame::<CounterSpec>(0, seq, 7, &CounterOp::Inc).to_bytes()
    }

    #[test]
    fn perfect_profile_is_a_plain_queue() {
        let (_reg, obs) = obs();
        let mut chan = FaultyChannel::new(FaultProfile::none(), 1, 0);
        let mut q = VecDeque::new();
        for seq in 0..100 {
            chan.admit(a_frame(seq), &mut q, &obs);
        }
        assert_eq!(q.len(), 100);
        assert!(FaultProfile::default().is_none());
    }

    #[test]
    fn lossy_profile_injects_every_fault_kind_deterministically() {
        let run = |seed: u64| {
            let (reg, obs) = obs();
            let mut chan = FaultyChannel::new(FaultProfile::lossy(), seed, 0);
            let mut q = VecDeque::new();
            for seq in 0..400 {
                chan.admit(a_frame(seq), &mut q, &obs);
            }
            let delivered: Vec<Vec<u8>> = q.into_iter().collect();
            (reg.snapshot(), delivered)
        };
        let (snap, delivered) = run(42);
        if cfg!(feature = "obs") {
            for name in [
                "service.inject.drop",
                "service.inject.dup",
                "service.inject.reorder",
                "service.inject.corrupt",
                "service.inject.delay",
            ] {
                assert!(snap.counter(name) > 0, "{name} never fired over 400 frames");
            }
            assert_eq!(snap.counter("service.inject.lie"), 0, "lying is off");
        }
        // Same seed, same traffic ⇒ byte-identical delivery.
        let (_, again) = run(42);
        assert_eq!(delivered, again);
        // A different seed draws a different pattern.
        let (_, other) = run(43);
        assert_ne!(delivered, other);
    }

    #[test]
    fn corrupted_frames_fail_the_checksum() {
        let (_reg, obs) = obs();
        let profile = FaultProfile {
            corrupt: 1.0,
            ..FaultProfile::none()
        };
        let mut chan = FaultyChannel::new(profile, 9, 0);
        let mut q = VecDeque::new();
        chan.admit(a_frame(1), &mut q, &obs);
        let bytes = q.pop_front().expect("delivered, corrupted");
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        // Either the checksum catches it, or (if the flip hit the length
        // prefix's spare high bits… it can't: flips start at index 4) —
        // always a Corrupt error, never a clean frame.
        match dec.next_frame() {
            Err(WireError::Corrupt { .. }) => {}
            other => panic!("corruption went undetected: {other:?}"),
        }
    }

    #[test]
    fn lying_rewrite_passes_the_checksum_with_a_changed_payload() {
        let (_reg, obs) = obs();
        let profile = FaultProfile {
            lie: 1.0,
            ..FaultProfile::none()
        };
        let mut chan = FaultyChannel::new(profile, 5, 0);
        let req = request_frame::<CounterSpec>(0, 3, 7, &CounterOp::Read);
        let honest = response_frame::<CounterSpec>(&req, &41);
        let mut q = VecDeque::new();
        chan.admit(honest.to_bytes(), &mut q, &obs);
        let bytes = q.pop_front().expect("lies are delivered");
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        let frame = dec
            .next_frame()
            .expect("the lie is wire-valid")
            .expect("complete");
        assert_eq!(frame.seq, 3);
        let value = CounterSpec::decode_resp(&frame.payload).expect("decodes");
        assert_ne!(value, 41, "the payload was rewritten");
        // Requests are never lied about (only responses carry answers).
        chan.admit(req.to_bytes(), &mut q, &obs);
        let req_bytes = q.pop_front().unwrap();
        assert_eq!(req_bytes, req.to_bytes());
    }

    #[test]
    fn delayed_frames_are_released_behind_the_next_frame() {
        let (reg, obs) = obs();
        let profile = FaultProfile {
            delay: 1.0,
            ..FaultProfile::none()
        };
        let mut chan = FaultyChannel::new(profile, 2, 0);
        let mut q = VecDeque::new();
        let (first, second) = (a_frame(1), a_frame(2));
        chan.admit(first.clone(), &mut q, &obs);
        assert!(q.is_empty(), "frame 1 is held");
        chan.admit(second.clone(), &mut q, &obs);
        // Frame 2 was *also* delayed (rate 1.0), but it flushes frame 1.
        assert_eq!(q.pop_front(), Some(first));
        if cfg!(feature = "obs") {
            assert_eq!(reg.snapshot().counter("service.inject.delay"), 2);
        }
    }

    #[test]
    fn disconnect_truncates_the_frame_and_reports_the_cut() {
        let (reg, obs) = obs();
        let profile = FaultProfile::none().with_disconnect(1.0);
        let mut chan = FaultyChannel::new(profile, 4, 0);
        let mut q = VecDeque::new();
        let frame = a_frame(1);
        match chan.admit(frame.clone(), &mut q, &obs) {
            Admission::Disconnected(prefix) => {
                assert!(prefix.len() < frame.len(), "a strict prefix");
                assert!(!prefix.is_empty(), "at least one byte went out");
                assert_eq!(&frame[..prefix.len()], &prefix[..]);
            }
            Admission::Delivered => panic!("disconnect at rate 1.0 must fire"),
        }
        assert!(q.is_empty(), "nothing was queued past the cut");
        if cfg!(feature = "obs") {
            assert_eq!(reg.snapshot().counter("service.inject.disconnect"), 1);
        }
    }

    #[test]
    fn reorder_swaps_with_the_frame_ahead() {
        let (_reg, obs) = obs();
        let mut chan = FaultyChannel::new(
            FaultProfile {
                reorder: 1.0,
                ..FaultProfile::none()
            },
            3,
            0,
        );
        let mut q = VecDeque::new();
        let (first, second) = (a_frame(1), a_frame(2));
        chan.admit(first.clone(), &mut q, &obs); // empty queue: plain delivery
        chan.admit(second.clone(), &mut q, &obs); // overtakes frame 1
        assert_eq!(q.pop_front(), Some(second));
        assert_eq!(q.pop_front(), Some(first));
    }
}
