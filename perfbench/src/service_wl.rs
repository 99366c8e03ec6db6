//! The three service workloads: 4 shards, 2 workers, 2 client handles on
//! 2 load threads, and the seeded 75/25 Inc/Read counter mix.
//!
//! * `svc-inproc-uniform` — in-process transport, closed loop, uniform
//!   keys over 16384 keys materialized during set-up, group commit off.
//! * `svc-unix-zipf` — Unix-domain socket, closed loop, Zipf(0.99) over
//!   the same 16384 keys, group commit on.
//! * `svc-unix-zipf-open` — the same at a fixed offered rate (open loop).
//! * `svc-unix-lossy` — Unix-domain socket under `FaultProfile::lossy()`,
//!   closed loop, uniform keys.
//!
//! Set-up (build, bind, dial, pre-touch every key) is timed several times
//! and the median reported. After the window every key is read back and
//! compared with the Incs acknowledged on it, and the shards' applied
//! totals are compared with every acknowledged operation.

use crate::gang;
use crate::report::{Check, Outcome};
use crate::stats::{quantile, Timeline};
use crate::stream::{Skew, Stream};
use crate::Run;
use sbu_service::{
    FaultProfile, RetryPolicy, Service, ServiceClient, ServiceError, TransportConfig,
};
use sbu_spec::specs::{CounterOp, CounterSpec};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const SHARDS: usize = 4;
pub const WORKERS: usize = 2;
pub const CLIENTS: usize = 2;
/// Set-ups timed per run; the median is reported.
const SETUPS: usize = 3;
/// Most requests one client keeps in flight: below the client's 256-reply
/// stash and the server's 64-entry dedup window.
pub const IN_FLIGHT: usize = 32;
/// Total offered rate of the open-loop workload, ops/s.
pub const OPEN_RATE: f64 = 13_500.0;
/// Hard deadline of one request on a clean transport.
const CLEAN_DEADLINE: Duration = Duration::from_secs(5);
/// How long after the window a load thread may still be finishing.
const GRACE: Duration = Duration::from_secs(30);

/// One service workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub unix: bool,
    pub lossy: bool,
    pub keys: usize,
    pub skew: Skew,
    pub group_commit: bool,
    /// Offered ops/s for an open loop; `None` = closed loop.
    pub open_rate: Option<f64>,
}

pub const INPROC_UNIFORM: Shape = Shape {
    unix: false,
    lossy: false,
    keys: 16_384,
    skew: Skew::Uniform,
    group_commit: false,
    open_rate: None,
};

pub const UNIX_ZIPF: Shape = Shape {
    unix: true,
    lossy: false,
    keys: 16_384,
    skew: Skew::Zipf(0.99),
    group_commit: true,
    open_rate: None,
};

pub const UNIX_ZIPF_OPEN: Shape = Shape {
    open_rate: Some(OPEN_RATE),
    ..UNIX_ZIPF
};

/// Pre-touching and reading back a key costs several 10 ms retransmit
/// timers under the lossy profile, so this workload spreads its uniform
/// load over 256 keys.
pub const UNIX_LOSSY: Shape = Shape {
    unix: true,
    lossy: true,
    keys: 256,
    skew: Skew::Uniform,
    group_commit: false,
    open_rate: None,
};

type Svc = Service<CounterSpec>;

/// A scratch socket path inside the working directory (relative, so it
/// stays short).
fn socket_path(n: usize) -> PathBuf {
    let dir = PathBuf::from(crate::OUT_DIR);
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("svc-{}-{n}.sock", std::process::id()))
}

fn boot(shape: &Shape, seed: u64, socket: &Option<PathBuf>) -> Svc {
    let mut b = Service::builder(SHARDS)
        .workers(WORKERS)
        .clients(CLIENTS)
        .group_commit(shape.group_commit)
        .seed(seed);
    if let Some(path) = socket {
        b = b.transport(TransportConfig::Unix(path.clone()));
    }
    if shape.lossy {
        b.fault(FaultProfile::lossy()).retry(RetryPolicy::lossy())
    } else {
        b.retry(RetryPolicy::patient().with_deadline(CLEAN_DEADLINE))
    }
    .build(CounterSpec::new())
}

/// `Read` every key in `keys` through `client`, at most [`IN_FLIGHT`] at a
/// time. Returns each key with its reply.
fn pipelined_reads(
    client: &ServiceClient<CounterSpec>,
    keys: impl Iterator<Item = u64>,
) -> Vec<(u64, Result<u64, ServiceError>)> {
    let deadline = client.retry().deadline;
    let mut out = Vec::new();
    let mut window = VecDeque::new();
    for key in keys {
        window.push_back((key, client.submit(key, &CounterOp::Read)));
        if window.len() >= IN_FLIGHT {
            let (k, p) = window.pop_front().expect("window is full");
            out.push((k, p.wait(Instant::now() + deadline)));
        }
    }
    out.extend(
        window
            .into_iter()
            .map(|(k, p)| (k, p.wait(Instant::now() + deadline))),
    );
    out
}

/// Read every key once, each client taking every other key.
fn read_all(svc: &Svc, keys: usize) -> Vec<(u64, Result<u64, ServiceError>)> {
    std::thread::scope(|s| {
        let parts: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let ks = (c as u64..keys as u64).step_by(CLIENTS);
                    pipelined_reads(svc.client(c), ks)
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|h| h.join().expect("read-back thread"))
            .collect()
    })
}

/// Tally of every request issued against the kept service.
#[derive(Debug, Default)]
struct Tally {
    acked: u64,
    failed: u64,
}

impl Tally {
    fn count<T>(&mut self, outcome: &mut Outcome, phase: &str, r: &Result<T, ServiceError>) {
        match r {
            Ok(_) => self.acked += 1,
            Err(e) => {
                self.failed += 1;
                outcome.fail(format!("{phase}: {}", error_kind(e)), 1);
            }
        }
    }
}

fn error_kind(e: &ServiceError) -> &'static str {
    match e {
        ServiceError::Deadline { .. } => "deadline",
        ServiceError::Busy { .. } => "busy",
        ServiceError::Unavailable { .. } => "unavailable",
        _ => "wire",
    }
}

/// One root span: a request from submit to the return of its wait.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub client: u32,
    pub seq: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// What one load thread saw in the window.
struct ThreadResult {
    timeline: Timeline,
    acked: u64,
    /// Acked Incs per key.
    incs: Vec<u32>,
    /// Incs that failed per key (they may or may not have applied).
    unsure: Vec<u32>,
    errors: Vec<&'static str>,
    /// Open loop: how late each request was sent, ns.
    lags: Vec<u32>,
    spans: Vec<Span>,
    last_reply: Instant,
}

impl ThreadResult {
    fn new(start: Instant, window: Duration, keys: usize) -> Self {
        Self {
            timeline: Timeline::new(start, window),
            acked: 0,
            incs: vec![0; keys],
            unsure: vec![0; keys],
            errors: Vec::new(),
            lags: Vec::new(),
            spans: Vec::new(),
            last_reply: start,
        }
    }

    fn settle(&mut self, key: u64, op: CounterOp, r: Result<u64, ServiceError>) {
        let inc = u32::from(op == CounterOp::Inc);
        match r {
            Ok(_) => {
                self.acked += 1;
                self.incs[key as usize] += inc;
            }
            Err(e) => {
                self.errors.push(error_kind(&e));
                self.unsure[key as usize] += inc;
            }
        }
    }
}

/// What every load thread of one window shares.
#[derive(Debug, Clone, Copy)]
struct Load {
    shape: Shape,
    seed: u64,
    window: Duration,
    trace: bool,
}

/// Closed loop: each request is sent when the previous reply arrives.
fn closed_loop(svc: &Svc, load: &Load, c: usize, start: Instant) -> ThreadResult {
    let client = svc.client(c);
    let deadline = client.retry().deadline;
    let Load {
        shape,
        seed,
        window,
        trace,
    } = *load;
    let mut stream = Stream::new(seed, c as u64, shape.keys, shape.skew);
    let mut r = ThreadResult::new(start, window, shape.keys);
    let end = start + window;
    let mut t0 = Instant::now();
    while t0 < end {
        let (key, op) = stream.next();
        let pending = client.submit(key, &op);
        let seq = pending.seq();
        let reply = pending.wait(t0 + deadline);
        let t1 = Instant::now();
        if reply.is_ok() {
            r.timeline.record(t1, t1 - t0);
        }
        if trace {
            r.spans.push(span(c, seq, start, t0, t1));
        }
        r.settle(key, op, reply);
        t0 = t1;
    }
    r
}

fn span(c: usize, seq: u64, start: Instant, t0: Instant, t1: Instant) -> Span {
    Span {
        client: c as u32,
        seq,
        start_ns: (t0 - start).as_nanos() as u64,
        dur_ns: (t1 - t0).as_nanos() as u64,
    }
}

/// Open loop: request `i` of client `c` is due at a fixed schedule; it is
/// sent as soon as it is due and fewer than [`IN_FLIGHT`] are outstanding.
/// Latency runs from the due time, so a late send counts as waiting.
fn open_loop(svc: &Svc, load: &Load, rate: f64, c: usize, start: Instant) -> ThreadResult {
    let client = svc.client(c);
    let deadline = client.retry().deadline;
    let Load {
        shape,
        seed,
        window,
        trace,
    } = *load;
    let mut stream = Stream::new(seed, c as u64, shape.keys, shape.skew);
    let mut r = ThreadResult::new(start, window, shape.keys);
    let interval = Duration::from_secs_f64(CLIENTS as f64 / rate);
    // Clients interleave their schedules.
    let mut due = start + interval.mul_f64(c as f64 / CLIENTS as f64);
    let end = start + window;
    let mut in_flight = VecDeque::with_capacity(IN_FLIGHT);
    loop {
        let now = Instant::now();
        if due < end && due <= now && in_flight.len() < IN_FLIGHT {
            let (key, op) = stream.next();
            r.lags
                .push((now - due).as_nanos().min(u32::MAX as u128) as u32);
            in_flight.push_back((due, now, key, op, client.submit(key, &op)));
            due += interval;
            continue;
        }
        if let Some((due_at, sent, key, op, pending)) = in_flight.pop_front() {
            let seq = pending.seq();
            let reply = pending.wait(Instant::now() + deadline);
            let done = Instant::now();
            if reply.is_ok() {
                r.timeline.record(done, done - due_at);
                r.last_reply = done;
            }
            if trace {
                r.spans.push(span(c, seq, start, sent, done));
            }
            r.settle(key, op, reply);
        } else if due >= end {
            break;
        } else {
            pace_until(due);
        }
    }
    r
}

/// Sleep until `due`. The kernel's timer slack makes the wake-up late by
/// tens of microseconds; that lateness is reported as generator lag and
/// counted in latency, which runs from the due time. (Spinning out the
/// slack instead burns a core the two-core server needs.)
fn pace_until(due: Instant) {
    std::thread::sleep(due.saturating_duration_since(Instant::now()));
}

pub fn run(run: &Run, shape: Shape, outcome: &mut Outcome) -> Vec<Span> {
    let window = run.window();
    let mut kept_tally = Tally::default();
    let mut setups = Vec::new();
    let mut kept = None;
    for n in 0..SETUPS {
        let socket = shape.unix.then(|| socket_path(n));
        let t0 = Instant::now();
        let svc = boot(&shape, run.seed, &socket);
        let touched = read_all(&svc, shape.keys);
        setups.push(t0.elapsed().as_secs_f64());
        let mut tally = Tally::default();
        for (_, r) in &touched {
            tally.count(outcome, "set-up", r);
        }
        if n + 1 < SETUPS {
            let mut svc = svc;
            svc.shutdown();
            outcome.attempted += tally.acked + tally.failed;
            remove_socket(&socket);
        } else {
            kept_tally.acked += tally.acked;
            kept_tally.failed += tally.failed;
            kept = Some((svc, socket));
        }
    }
    outcome.set("setup_s", crate::stats::median(&setups));
    let (svc, socket) = kept.expect("at least one set-up");
    let svc = Arc::new(svc);

    let before = svc.obs_snapshot();
    let load = Load {
        shape,
        seed: run.seed,
        window,
        trace: run.trace,
    };
    let s = Arc::clone(&svc);
    let g = gang::run(CLIENTS, window + GRACE, move |c, start| {
        match shape.open_rate {
            Some(rate) => open_loop(&s, &load, rate, c, start),
            None => closed_loop(&s, &load, c, start),
        }
    });
    let after = svc.obs_snapshot();

    let mut timeline = Timeline::new(g.started, window);
    let mut incs = vec![0u64; shape.keys];
    let mut unsure = vec![0u64; shape.keys];
    let (mut window_acked, mut window_failed) = (0, 0);
    let mut lags = Vec::new();
    let mut spans = Vec::new();
    let mut lost_thread = false;
    let mut last_reply = g.started;
    for r in g.results {
        match r {
            Ok(r) => {
                window_acked += r.acked;
                last_reply = last_reply.max(r.last_reply);
                window_failed += r.errors.len() as u64;
                for e in &r.errors {
                    outcome.fail(format!("window: {e}"), 1);
                }
                for (k, (i, u)) in r.incs.iter().zip(&r.unsure).enumerate() {
                    incs[k] += *i as u64;
                    unsure[k] += *u as u64;
                }
                timeline.merge(r.timeline);
                lags.extend(r.lags);
                spans.extend(r.spans);
            }
            Err(lost) => {
                lost_thread = true;
                outcome.program_fault = true;
                outcome.fail(format!("load thread lost: {lost:?}"), 1);
            }
        }
    }
    kept_tally.acked += window_acked;
    kept_tally.failed += window_failed;

    let mut summary = timeline.summary();
    if shape.open_rate.is_some() {
        // The schedule fixes how many requests fall in each slice, so the
        // open loop's throughput is its acked requests over the time until
        // the last of them was answered.
        summary.throughput = window_acked as f64
            / last_reply
                .saturating_duration_since(g.started)
                .as_secs_f64()
                .max(1e-9);
    }
    crate::record_window(outcome, &summary, &g.proc, window_acked);
    if shape.open_rate.is_some() {
        lags.sort_unstable();
        outcome.set("driver.gen_lag_p99_us", quantile(&lags, 0.99) as f64 / 1e3);
    } else {
        outcome.na(
            "driver.gen_lag_p99_us",
            "closed loop: no schedule to lag behind",
        );
    }
    crate::ledger::record_service_counters(
        outcome,
        &before,
        &after,
        window_acked,
        window_acked + window_failed,
    );
    if run.trace {
        let mut root: Vec<u32> = spans
            .iter()
            .map(|s| s.dur_ns.min(u32::MAX as u64) as u32)
            .collect();
        root.sort_unstable();
        outcome.set("client.call_us_p50", quantile(&root, 0.50) as f64 / 1e3);
        outcome.set("client.call_us_p99", quantile(&root, 0.99) as f64 / 1e3);
        let mean = spans.iter().map(|s| s.dur_ns as f64).sum::<f64>() / spans.len().max(1) as f64;
        outcome.set("client.call_us_mean", mean / 1e3);
    }

    if lost_thread {
        // A load thread still holds its client; the service cannot be
        // read back or shut down cleanly.
        outcome.checks.push(Check::new(
            "load threads finished",
            false,
            "see causes".into(),
            1,
        ));
    } else {
        let readback = read_all(&svc, shape.keys);
        let mut wrong = 0u64;
        let mut first = None;
        for (key, r) in &readback {
            kept_tally.count(outcome, "read-back", r);
            if let Ok(v) = r {
                let k = *key as usize;
                let lo = incs[k];
                if *v < lo || *v > lo + unsure[k] {
                    wrong += v.abs_diff(lo);
                    first.get_or_insert(format!("key {key}: read {v}, acked Incs {lo}"));
                }
            }
        }
        outcome.checks.push(Check::new(
            "each key's counter == acked Incs on it",
            wrong == 0,
            first.unwrap_or_else(|| format!("{} keys agree", readback.len())),
            wrong,
        ));
        let mut svc = Arc::into_inner(svc).expect("load threads have released the service");
        let applied: u64 = svc.shutdown().iter().map(|s| s.ops).sum();
        let exact = applied >= kept_tally.acked && applied <= kept_tally.acked + kept_tally.failed;
        outcome.checks.push(Check::new(
            "sum of per-shard applied ops == acked ops",
            exact,
            format!(
                "applied {applied}, acked {}, failed {}",
                kept_tally.acked, kept_tally.failed
            ),
            applied.abs_diff(kept_tally.acked),
        ));
    }
    remove_socket(&socket);
    outcome.attempted += kept_tally.acked + kept_tally.failed;
    spans
}

fn remove_socket(socket: &Option<PathBuf>) {
    if let Some(path) = socket {
        let _ = std::fs::remove_file(path);
    }
}
