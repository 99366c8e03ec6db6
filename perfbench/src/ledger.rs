//! The traced run's per-layer numbers.
//!
//! Each layer is measured from outside, by timing calls into its public
//! functions: the workload's own seeded request stream is replayed through
//! the client encoder, the server's frame decoder, a pre-warmed and a
//! fresh [`Shard`], the response encoder and decoder, and a solo
//! [`Universal`]. The service's own instruments come from
//! [`sbu_service::Service::obs_snapshot`] taken around the timed window.
//! The cost ledger puts the stages next to the root span (a request from
//! `ServiceClient::submit` to the return of `Pending::wait`); what the
//! stages do not cover is the residual: transport, queue wait, thread
//! handoffs and the dedup window.

use crate::report::Outcome;
use crate::stats::{median, quantile};
use crate::stream::{Skew, Stream};
use sbu_core::bounded::UniversalConfig;
use sbu_core::{CellPayload, Universal};
use sbu_mem::{NativeMem, Pid};
use sbu_obs::Snapshot;
use sbu_service::{request_frame, response_frame, Frame, FrameDecoder, Shard, ShardMap, WireCodec};
use sbu_spec::specs::{CounterOp, CounterSpec};
use std::hint::black_box;
use std::time::Instant;

/// Requests replayed through each layer.
const REPLAY_OPS: usize = 100_000;
/// Timed passes over the replay for the nanosecond-scale wire stages; the
/// median pass is kept.
const PASSES: usize = 5;
/// Keys first touched on a fresh shard.
const FRESH_KEYS: u64 = 2048;
/// Frames one worker drain takes at most under group commit.
const DRAIN: usize = 64;

/// Per-layer metrics that only a service workload has.
pub const SERVICE_ONLY: &[&str] = &[
    "client.call_us_p50",
    "client.call_us_p99",
    "service.residual_us",
    "service.queue_depth_mean",
    "service.batch_size_mean",
    "service.dedup_hit_per_op",
    "service.shed_per_op",
    "service.read_syscall_per_op",
    "service.partial_frame_per_op",
    "service.conn_drop",
    "service.retry_per_op",
    "service.goodput_ratio",
    "service.stale_reply_per_op",
    "service.garbled_per_op",
    "service.inject_per_op",
];

const OBS_OFF: &str = "obs off";

fn per_op(count: u64, ops: u64) -> f64 {
    count as f64 / ops.max(1) as f64
}

fn hist_mean(
    outcome: &mut Outcome,
    name: &'static str,
    snap: &Snapshot,
    instrument: &str,
    empty: &str,
) {
    match snap.histogram(instrument).filter(|h| h.count > 0) {
        Some(h) => outcome.set(name, h.mean()),
        None => outcome.na(name, empty),
    }
}

/// `core.*` and `mem.cas_retry` per acked op from a registry the measured
/// object was built with.
pub fn record_core_counters(outcome: &mut Outcome, snap: &Snapshot, ops: u64) {
    let counters = [
        ("core.frontier_hit_per_op", "core.frontier_hit"),
        ("core.frontier_fallback_per_op", "core.frontier_fallback"),
        ("core.grab_retry_per_op", "core.grab_retry"),
        ("core.backoff_spins_per_op", "core.backoff_spins"),
        ("mem.cas_retry_per_op", "mem.cas_retry"),
    ];
    if !sbu_obs::enabled() {
        for (name, _) in counters {
            outcome.na(name, OBS_OFF);
        }
        outcome.na("core.combine_batch_mean", OBS_OFF);
        outcome.na("core.batch_size_mean", OBS_OFF);
        return;
    }
    for (name, instrument) in counters {
        outcome.set(name, per_op(snap.counter(instrument), ops));
    }
    hist_mean(
        outcome,
        "core.combine_batch_mean",
        snap,
        "core.combine_batch",
        "no combining pass ran",
    );
    hist_mean(
        outcome,
        "core.batch_size_mean",
        snap,
        "core.batch_size",
        "no group-commit cell: group commit off",
    );
}

fn counter_delta(before: &Snapshot, after: &Snapshot, name: &str) -> u64 {
    after.counter(name).saturating_sub(before.counter(name))
}

fn hist_delta_mean(before: &Snapshot, after: &Snapshot, name: &str) -> Option<f64> {
    let a = after.histogram(name)?;
    let (count, sum) = match before.histogram(name) {
        Some(b) => (a.count - b.count, a.sum - b.sum),
        None => (a.count, a.sum),
    };
    (count > 0).then(|| sum as f64 / count as f64)
}

/// Service counters reported per acked op.
const SERVICE_PER_OP: &[(&str, &str)] = &[
    ("service.dedup_hit_per_op", "service.dedup_hit"),
    ("service.shed_per_op", "service.shed"),
    ("service.read_syscall_per_op", "service.read_syscall"),
    ("service.partial_frame_per_op", "service.partial_frame"),
    ("service.retry_per_op", "service.retry"),
    ("service.stale_reply_per_op", "service.stale_reply"),
    ("service.garbled_per_op", "service.garbled"),
];

/// The service instruments over the timed window, per acked op.
pub fn record_service_counters(
    outcome: &mut Outcome,
    before: &Snapshot,
    after: &Snapshot,
    acked: u64,
    attempted: u64,
) {
    if !sbu_obs::enabled() {
        let derived = [
            "service.conn_drop",
            "service.inject_per_op",
            "service.goodput_ratio",
            "service.queue_depth_mean",
            "service.batch_size_mean",
        ];
        for name in SERVICE_PER_OP.iter().map(|(n, _)| *n).chain(derived) {
            outcome.na(name, OBS_OFF);
        }
        return;
    }
    let d = |name: &str| counter_delta(before, after, name);
    for (name, instrument) in SERVICE_PER_OP {
        outcome.set(name, per_op(d(instrument), acked));
    }
    outcome.set("service.conn_drop", d("service.conn_drop") as f64);
    let injected: u64 = after
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with("service.inject."))
        .map(|(n, _)| d(n))
        .sum();
    outcome.set("service.inject_per_op", per_op(injected, acked));
    let transmissions = attempted + d("service.retry");
    outcome.set(
        "service.goodput_ratio",
        acked as f64 / transmissions.max(1) as f64,
    );
    match hist_delta_mean(before, after, "service.queue_depth") {
        Some(m) => outcome.set("service.queue_depth_mean", m),
        None => outcome.na("service.queue_depth_mean", "no drain recorded"),
    }
    match hist_delta_mean(before, after, "service.batch_size") {
        Some(m) => outcome.set("service.batch_size_mean", m),
        None => outcome.na(
            "service.batch_size_mean",
            "no batched drain: group commit off",
        ),
    }
}

/// Mean cost of each replayed stage, ns per op.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    pub request_encode: f64,
    pub request_decode: f64,
    pub shard_apply: f64,
    pub universal_apply: Option<f64>,
    pub response_encode: f64,
    pub response_decode: f64,
}

impl Stages {
    fn layer_sum(&self) -> f64 {
        self.request_encode
            + self.request_decode
            + self.shard_apply
            + self.response_encode
            + self.response_decode
    }
}

/// Median over [`PASSES`] of the mean ns per op of `pass`.
fn timed<T>(ops: usize, mut pass: impl FnMut() -> T) -> (f64, T) {
    let mut means = Vec::new();
    let mut last = None;
    for _ in 0..PASSES {
        let t0 = Instant::now();
        let out = black_box(pass());
        means.push(t0.elapsed().as_nanos() as f64 / ops as f64);
        last = Some(out);
    }
    (median(&means), last.expect("at least one pass"))
}

/// Replay the seeded stream through every layer and record the per-layer
/// metrics. `solo_core` times a solo `Universal` for the `core.*` metrics
/// (the service's per-key objects are solo); the core workload measures
/// those on its contended object instead.
pub fn replay(
    seed: u64,
    keys: usize,
    skew: Skew,
    group_commit: bool,
    solo_core: bool,
    outcome: &mut Outcome,
) -> Stages {
    let mut stages = Stages::default();
    first_touch(group_commit, outcome);

    let mut stream = Stream::new(seed, 0, keys, skew);
    let ops: Vec<(u64, CounterOp)> = (0..REPLAY_OPS).map(|_| stream.next()).collect();

    let (ns, requests) = timed(ops.len(), || {
        ops.iter()
            .enumerate()
            .map(|(i, (key, op))| request_frame::<CounterSpec>(0, i as u64, *key, op).to_bytes())
            .collect::<Vec<_>>()
    });
    stages.request_encode = ns;

    let (ns, frames) = timed(ops.len(), || {
        let mut dec = FrameDecoder::new();
        requests
            .iter()
            .map(|bytes| {
                dec.push(bytes);
                let frame = dec
                    .next_frame()
                    .expect("intact frame")
                    .expect("whole frame");
                black_box(CounterSpec::decode_op(&frame.payload).expect("valid op"));
                frame
            })
            .collect::<Vec<Frame>>()
    });
    stages.request_decode = ns;

    stages.shard_apply = warm_shard(&ops, keys, group_commit, outcome);

    // A solo object (n = 1, as the service builds per key) answers the
    // whole stream; its replies feed the response stages.
    let registry = sbu_obs::Registry::new(1);
    let mut mem: NativeMem<CellPayload<CounterSpec>> = NativeMem::new();
    mem.attach_obs(&registry);
    let solo = Universal::builder(1)
        .config(UniversalConfig::for_procs(1).group_commit(group_commit))
        .obs(&registry)
        .build(&mut mem, CounterSpec::new());
    let mut lat = Vec::with_capacity(ops.len());
    let mut resps = Vec::with_capacity(ops.len());
    let mut total = 0.0;
    for (_, op) in &ops {
        let t0 = Instant::now();
        let r = solo.apply(&mem, Pid(0), op);
        let ns = t0.elapsed().as_nanos() as u32;
        total += ns as f64;
        lat.push(ns);
        resps.push(r);
    }
    if solo_core {
        lat.sort_unstable();
        outcome.set("core.apply_ns_p50", quantile(&lat, 0.50) as f64);
        outcome.set("core.apply_ns_p99", quantile(&lat, 0.99) as f64);
        record_core_counters(outcome, &registry.snapshot(), ops.len() as u64);
        stages.universal_apply = Some(total / ops.len() as f64);
    }

    let (ns, responses) = timed(ops.len(), || {
        frames
            .iter()
            .zip(&resps)
            .map(|(f, r)| response_frame::<CounterSpec>(f, r).to_bytes())
            .collect::<Vec<_>>()
    });
    stages.response_encode = ns;

    let (ns, ()) = timed(ops.len(), || {
        let mut dec = FrameDecoder::new();
        for bytes in &responses {
            dec.push(bytes);
            let frame = dec
                .next_frame()
                .expect("intact frame")
                .expect("whole frame");
            black_box(CounterSpec::decode_resp(&frame.payload).expect("valid response"));
        }
    });
    stages.response_decode = ns;

    let bytes: usize = requests.iter().chain(&responses).map(Vec::len).sum();
    outcome.set("wire.request_encode_ns", stages.request_encode);
    outcome.set("wire.request_decode_ns", stages.request_decode);
    outcome.set("wire.response_encode_ns", stages.response_encode);
    outcome.set("wire.response_decode_ns", stages.response_decode);
    outcome.set("wire.bytes_per_op", bytes as f64 / ops.len() as f64);
    stages
}

/// Time and size of a key's first touch: a fresh shard materializes
/// [`FRESH_KEYS`] keys, measured by wall clock and resident-set growth.
/// Runs first, while the process has no freed memory to reuse.
fn first_touch(group_commit: bool, outcome: &mut Outcome) {
    let mut shard = Shard::new(0, CounterSpec::new()).group_commit(group_commit);
    let rss0 = crate::procfs::rss_kib();
    let t0 = Instant::now();
    for key in 0..FRESH_KEYS {
        black_box(shard.apply(key, &CounterOp::Read));
    }
    let us = t0.elapsed().as_secs_f64() * 1e6;
    outcome.set("shard.materialize_us_per_key", us / FRESH_KEYS as f64);
    match (rss0, crate::procfs::rss_kib()) {
        (Some(a), Some(b)) => outcome.set(
            "shard.bytes_per_key",
            b.saturating_sub(a) as f64 * 1024.0 / FRESH_KEYS as f64,
        ),
        _ => outcome.na("shard.bytes_per_key", "no /proc/self/status"),
    }
}

/// Per-op cost of `Shard::apply` (or, under group commit, the drain's
/// `Shard::apply_batch` over same-key groups) on a shard whose keys are
/// all materialized: the stream's requests that route to shard 0. Records
/// the p50 and returns the mean.
fn warm_shard(
    ops: &[(u64, CounterOp)],
    keys: usize,
    group_commit: bool,
    outcome: &mut Outcome,
) -> f64 {
    let map = ShardMap::new(crate::service_wl::SHARDS);
    let mut shard = Shard::new(0, CounterSpec::new()).group_commit(group_commit);
    for key in (0..keys as u64).filter(|k| map.shard_of(*k) == 0) {
        shard.apply(key, &CounterOp::Read);
    }
    let mine: Vec<&(u64, CounterOp)> = ops.iter().filter(|(k, _)| map.shard_of(*k) == 0).collect();
    let mut per_op = Vec::with_capacity(mine.len());
    if group_commit {
        for drain in mine.chunks(DRAIN) {
            let mut groups: Vec<(u64, Vec<CounterOp>)> = Vec::new();
            for (key, op) in drain {
                match groups.iter_mut().find(|(k, _)| k == key) {
                    Some((_, g)) => g.push(*op),
                    None => groups.push((*key, vec![*op])),
                }
            }
            for (key, group) in &groups {
                let t0 = Instant::now();
                black_box(shard.apply_batch(*key, group));
                let ns = (t0.elapsed().as_nanos() / group.len() as u128) as u32;
                per_op.extend(std::iter::repeat_n(ns, group.len()));
            }
        }
    } else {
        for (key, op) in &mine {
            let t0 = Instant::now();
            black_box(shard.apply(*key, op));
            per_op.push(t0.elapsed().as_nanos() as u32);
        }
    }
    let mean = per_op.iter().map(|&n| n as f64).sum::<f64>() / per_op.len().max(1) as f64;
    per_op.sort_unstable();
    outcome.set("shard.apply_ns_p50", quantile(&per_op, 0.50) as f64);
    mean
}

/// The ledger lines and `service.residual_us`: the mean root span minus the
/// layer stages.
pub fn render(stages: &Stages, outcome: &mut Outcome) -> String {
    let root_us = outcome
        .metrics
        .get("client.call_us_mean")
        .cloned()
        .and_then(Result::ok);
    let mut out = String::from(
        "cost ledger (mean ns per op; layers timed from outside on the replayed stream)\n",
    );
    let mut line = |label: &str, ns: f64, root: Option<f64>| {
        let share = root
            .map(|r| format!("{:>6.1}%", 100.0 * ns / (r * 1e3)))
            .unwrap_or_default();
        out.push_str(&format!("  {label:<58} {ns:>12.1} ns {share}\n"));
    };
    line(
        "client encode   request_frame + Frame::to_bytes",
        stages.request_encode,
        root_us,
    );
    line(
        "server decode   FrameDecoder::push/next_frame + decode_op",
        stages.request_decode,
        root_us,
    );
    line(
        "shard apply     Shard::apply / apply_batch (warm)",
        stages.shard_apply,
        root_us,
    );
    if let Some(u) = stages.universal_apply {
        line("  of which      Universal::apply (solo, n = 1)", u, root_us);
    }
    line(
        "reply encode    response_frame + Frame::to_bytes",
        stages.response_encode,
        root_us,
    );
    line(
        "client decode   FrameDecoder + decode_resp",
        stages.response_decode,
        root_us,
    );
    match root_us {
        Some(root) => {
            let residual = root - stages.layer_sum() / 1e3;
            line(
                "residual        transport, queue wait, handoffs, dedup",
                residual * 1e3,
                root_us,
            );
            line(
                "root span       ServiceClient::submit + Pending::wait",
                root * 1e3,
                root_us,
            );
            outcome.set("service.residual_us", residual);
        }
        None => out.push_str("  residual: n/a (no service in this workload)\n"),
    }
    out
}
