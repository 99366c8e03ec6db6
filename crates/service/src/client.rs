//! The client half of the `Service` API: typed per-client handles.
//!
//! A [`ServiceClient`] owns one transport connection and one sequence
//! counter. [`ServiceClient::call`] is the closed-loop path: submit, then
//! block until the reply or the deadline, retransmitting through faults.
//! [`ServiceClient::submit`] is the open-loop path: it returns a typed
//! [`Pending`] handle whose [`wait`](Pending::wait) runs the same retry
//! loop later — several requests can be in flight on one client, with
//! out-of-order replies parked in a bounded stash until their `wait`
//! claims them.
//!
//! Reliability invariants:
//!
//! * every retransmission reuses the original `(client, seq)` pair, so the
//!   server's dedup window answers duplicates from cache — exactly-once
//!   end to end;
//! * a [`ConnEvent::Disconnected`] is handled by reconnect-and-retransmit,
//!   which the same dedup window makes safe over a real socket;
//! * `Busy`/`Unavailable` control frames back the client off and
//!   retransmit, and surface as their typed errors only at the deadline;
//!   a `Reject` control frame (the server could not decode the request)
//!   is final and surfaces at once as `ServiceError::Wire`.
//!
//! A handle's connection and reply stash sit behind an internal lock, so
//! concurrent callers should each use their own client id.

use crate::retry::{deadline_error, RetryPolicy, ServiceError};
use crate::route::ShardMap;
use crate::server::ServiceObs;
use crate::transport::{ClientConn, ConnEvent, Delivery, SendOutcome};
use crate::wire::{
    request_frame, Frame, WireCodec, WireError, KIND_BUSY, KIND_REJECT, KIND_UNAVAILABLE,
};
use parking_lot::Mutex;
use sbu_mem::contention::Backoff;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How many out-of-order reply frames a client parks before evicting the
/// oldest (each eviction counts as `service.stale_reply`). Bounds memory
/// against stale duplicates on long lossy runs; must comfortably exceed
/// the open-loop outstanding window (≤ 32 in the load generator).
const STASH_CAP: usize = 256;

/// The connection-side state a client serializes behind its lock.
struct ClientInner {
    conn: Box<dyn ClientConn>,
    /// Replies that arrived while waiting for a different sequence number.
    stash: VecDeque<Frame>,
}

/// A typed per-client handle to a running [`Service`](crate::Service).
///
/// Obtained from [`Service::client`](crate::Service::client); see the
/// module docs for the call/submit split.
pub struct ServiceClient<S: WireCodec> {
    id: u32,
    map: ShardMap,
    workers: usize,
    retry: RetryPolicy,
    seed: u64,
    /// This client's obs lane (`workers + id`).
    lane: usize,
    seq: AtomicU64,
    obs: Arc<ServiceObs>,
    inner: Mutex<ClientInner>,
    _spec: std::marker::PhantomData<fn() -> S>,
}

impl<S: WireCodec> ServiceClient<S> {
    pub(crate) fn new(
        id: u32,
        map: ShardMap,
        workers: usize,
        retry: RetryPolicy,
        seed: u64,
        obs: Arc<ServiceObs>,
        conn: Box<dyn ClientConn>,
    ) -> Self {
        Self {
            id,
            map,
            workers,
            retry,
            seed,
            lane: workers + id as usize,
            seq: AtomicU64::new(0),
            obs,
            inner: Mutex::new(ClientInner {
                conn,
                stash: VecDeque::new(),
            }),
            _spec: std::marker::PhantomData,
        }
    }

    /// This client's id (its wire identity and dedup key).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The retry policy this client runs under.
    pub fn retry(&self) -> RetryPolicy {
        self.retry
    }

    /// Execute `op` against the object at `key` and block for the reply:
    /// [`submit`](Self::submit) + [`wait`](Pending::wait) with the retry
    /// policy's full deadline.
    pub fn call(&self, key: u64, op: &S::Op) -> Result<S::Resp, ServiceError> {
        let deadline = Instant::now() + self.retry.deadline;
        self.submit(key, op).wait(deadline)
    }

    /// Send `op` toward the object at `key` without waiting, returning a
    /// typed handle for the eventual reply. The request goes out once here
    /// (best-effort — a local shed is absorbed and resent by `wait`);
    /// retransmission, backoff, and reconnect all live in
    /// [`Pending::wait`].
    pub fn submit(&self, key: u64, op: &S::Op) -> Pending<'_, S> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let bytes = request_frame::<S>(self.id, seq, key, op).to_bytes();
        let worker = self.map.shard_of(key) % self.workers;
        let sent = {
            let mut inner = self.inner.lock();
            match inner.conn.send(worker, Delivery::Intact(bytes.clone())) {
                SendOutcome::Sent => true,
                SendOutcome::Shed => {
                    self.obs.shed.incr(self.lane);
                    false
                }
            }
        };
        Pending {
            client: self,
            seq,
            worker,
            bytes,
            sent,
        }
    }
}

/// A submitted request whose reply has not been claimed yet. Consume it
/// with [`wait`](Self::wait); dropping it abandons the reply (a later
/// frame for its sequence number ages out of the stash).
#[must_use = "a Pending does nothing until you wait() on it"]
pub struct Pending<'a, S: WireCodec> {
    client: &'a ServiceClient<S>,
    seq: u64,
    worker: usize,
    bytes: Vec<u8>,
    sent: bool,
}

impl<'a, S: WireCodec> Pending<'a, S> {
    /// The sequence number the reply will echo.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Block until the reply arrives or `deadline` passes, retransmitting
    /// through shed rejections, attempt timeouts, `Busy`/`Unavailable`
    /// controls, garbled replies, and connection drops (reconnect, then
    /// retransmit — safe under the server's `(client, seq)` dedup window).
    pub fn wait(self, deadline: Instant) -> Result<S::Resp, ServiceError> {
        let c = self.client;
        let mut inner = c.inner.lock();
        let ClientInner { conn, stash } = &mut *inner;
        let mut attempts: u32 = u32::from(self.sent);
        let mut last_control: Option<u8> = None;
        let mut backoff = Backoff::with_limit(c.retry.backoff_limit);
        let mut pending_send = !self.sent;
        let expired =
            |attempts: u32, last| Err(deadline_error(c.id, self.seq, attempts.max(1), last));

        'attempt: loop {
            if pending_send {
                // Send, shedding-aware: a watermark rejection is a local
                // Busy — spin down and retry until the deadline intervenes.
                loop {
                    if Instant::now() >= deadline {
                        return expired(attempts, last_control);
                    }
                    match conn.send(self.worker, Delivery::Intact(self.bytes.clone())) {
                        SendOutcome::Sent => break,
                        SendOutcome::Shed => {
                            c.obs.shed.incr(c.lane);
                            last_control = Some(KIND_BUSY);
                            backoff.spin();
                        }
                    }
                }
                attempts += 1;
                if attempts > 1 {
                    c.obs.retry.incr(c.lane);
                }
            }
            // Any later re-entry of 'attempt means the current transmission
            // is spent (timeout, control frame, drop): retransmit.
            pending_send = true;

            let wait_until = match c
                .retry
                .attempt_timeout(attempts.max(1), c.seed, c.id, self.seq)
            {
                Some(t) => (Instant::now() + t).min(deadline),
                None => deadline,
            };
            // Drain reply events until ours, the attempt timeout, or a
            // control frame that asks for a retransmit.
            loop {
                let frame = if let Some(at) = stash.iter().position(|f| f.seq == self.seq) {
                    stash.remove(at).expect("position is in range")
                } else {
                    match conn.recv_until(wait_until) {
                        ConnEvent::Frame(frame) => frame,
                        ConnEvent::Garbled => {
                            // A corrupted reply: detected, dropped, counted.
                            // Keep waiting — a duplicate may follow.
                            c.obs.garbled.incr(c.lane);
                            continue;
                        }
                        ConnEvent::Timeout => {
                            if Instant::now() >= deadline {
                                return expired(attempts, last_control);
                            }
                            continue 'attempt; // attempt timed out: retransmit
                        }
                        ConnEvent::Disconnected => {
                            if Instant::now() >= deadline {
                                return expired(attempts, last_control);
                            }
                            conn.reconnect();
                            backoff.spin();
                            continue 'attempt; // retransmit on the new stream
                        }
                    }
                };
                if frame.client != c.id {
                    // Another client's reply, misdelivered onto this stream
                    // by a reordering fault plane. Its seq numbering is a
                    // different sequence space — matching on seq alone
                    // would ack an op with someone else's response. Drop
                    // it; the owner's retransmit will fetch its own copy.
                    c.obs.stale.incr(c.lane);
                    continue;
                }
                if frame.seq != self.seq {
                    // Another in-flight request's reply — or a stale
                    // duplicate of a completed one. Park it; its own wait
                    // will claim it, or it ages out.
                    stash.push_back(frame);
                    if stash.len() > STASH_CAP {
                        stash.pop_front();
                        c.obs.stale.incr(c.lane);
                    }
                    continue;
                }
                match frame.kind {
                    KIND_BUSY => {
                        last_control = Some(KIND_BUSY);
                        backoff.spin();
                        continue 'attempt;
                    }
                    KIND_UNAVAILABLE => {
                        last_control = Some(KIND_UNAVAILABLE);
                        backoff.spin();
                        continue 'attempt;
                    }
                    KIND_REJECT => {
                        // The server could not decode the request: a
                        // retransmit would be refused the same way.
                        return Err(ServiceError::Wire(WireError::payload(format!(
                            "request {}/{} rejected: undecodable payload",
                            c.id, self.seq
                        ))));
                    }
                    _ => match S::decode_resp(&frame.payload) {
                        Ok(resp) => return Ok(resp),
                        Err(_) => {
                            // Wire-valid but semantically garbled (payload
                            // rewritten): retransmit for a clean copy.
                            c.obs.garbled.incr(c.lane);
                            continue 'attempt;
                        }
                    },
                }
            }
        }
    }
}
