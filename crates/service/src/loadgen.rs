//! The offline load generator behind experiments E12 and E15.
//!
//! Drives a [`Service`] with a synthetic keyed workload along four axes:
//!
//! * **loop mode** — *closed* (each client blocks for every reply: the
//!   classic fixed-concurrency benchmark, throughput is `clients` divided
//!   by mean latency) vs *open* (requests are issued ahead of replies and
//!   the workers drain the backlog: measures raw service capacity, and is
//!   what fills the `service.queue_depth` histogram with non-trivial
//!   depths);
//! * **key skew** — uniform over the key space vs Zipf(θ) (hand-rolled
//!   CDF + binary search; the repo vendors no Zipf sampler), which is the
//!   hot-key regime where hash routing still pins each hot key to one
//!   shard and imbalance shows up in `service.shard_imbalance`;
//! * **transport** — in-process mailboxes, a Unix-domain socket, or TCP
//!   loopback ([`TransportConfig`]); the socket modes route every frame
//!   through real syscalls and the acceptor/reader plane (E15's axis);
//! * **topology** — clients × shards × workers, all from the config.
//!
//! Everything is seeded. With `timing: false` the report zeroes its two
//! wall-clock fields, which makes a single-threaded in-process run
//! byte-identical across invocations — the property the E12 determinism
//! test pins. (Socket runs keep deterministic *logical* fields — `ops`,
//! `acked`, `failures`, shard totals — but syscall counts breathe with the
//! kernel's read coalescing.)

use crate::fault::FaultProfile;
use crate::retry::RetryPolicy;
use crate::server::{Service, ShardStats};
use crate::transport::TransportConfig;
use crate::wire::WireCodec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How many requests an open-loop client keeps in flight: bounded so
/// retransmissions stay inside the reply stash and the dedup window.
const OPEN_WINDOW: usize = 32;

/// How keys are drawn from `0..keys`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Skew {
    /// Every key equally likely.
    Uniform,
    /// Zipf-distributed ranks with the given exponent θ (θ → 0 approaches
    /// uniform; θ ≈ 0.99 is the conventional "hot key" benchmark setting).
    /// Key `0` is the hottest.
    Zipf(f64),
}

/// Whether clients wait for replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopMode {
    /// Issue requests ahead of replies (a bounded window of 32 in flight
    /// per client).
    Open,
    /// One outstanding request per client (block on each reply).
    Closed,
}

/// One load-generator run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Client threads (closed loop) / reply-box slots (both modes).
    pub clients: usize,
    /// Shard count (power of two).
    pub shards: usize,
    /// Worker threads.
    pub workers: usize,
    /// Requests issued per client.
    pub ops_per_client: usize,
    /// Size of the key space (keys are `0..keys`).
    pub keys: usize,
    /// Key distribution.
    pub skew: Skew,
    /// Loop mode.
    pub mode: LoopMode,
    /// Which transport carries the frames (default in-process). Socket
    /// transports accept `tcp://…`/`unix://…` endpoints via
    /// [`TransportConfig::parse`] — the load generator's `--remote` flag.
    pub transport: TransportConfig,
    /// Seed for every stream the run draws.
    pub seed: u64,
    /// When `false`, `elapsed_secs` and `ops_per_sec` report as zero so
    /// the whole report is a pure function of the config (determinism
    /// tests); when `true` they carry wall-clock measurements.
    pub timing: bool,
    /// Transport faults to inject. Switches the service onto
    /// [`RetryPolicy::lossy`]; both loop modes retransmit.
    pub fault: Option<FaultProfile>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            clients: 1,
            shards: 1,
            workers: 1,
            ops_per_client: 1000,
            keys: 1024,
            skew: Skew::Uniform,
            mode: LoopMode::Closed,
            transport: TransportConfig::InProcess,
            seed: 0xE12,
            timing: true,
            fault: None,
        }
    }
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Total requests issued (`clients × ops_per_client`).
    pub ops: u64,
    /// Requests acknowledged with a response (`ops − failures`). On a run
    /// with zero failures this is the exactly-once evidence: the sum of
    /// per-shard applied ops must equal it, however lossy the transport.
    pub acked: u64,
    /// Requests that ended in a typed [`crate::ServiceError`] instead of a
    /// response (deadline/busy/unavailable). Zero on a healthy run.
    pub failures: u64,
    /// The subset of `failures` that were typed `Busy` outcomes (shed at a
    /// mailbox high watermark) — capacity, not correctness; harness layers
    /// map a busy/unavailable-only failure set to their *capacity* exit
    /// class instead of a violation.
    pub busy_failures: u64,
    /// The subset of `failures` that were typed `Unavailable` outcomes (a
    /// volatile shard crashed with the request in flight). Also capacity-
    /// class: retryable, and correct for everything that completed.
    pub unavailable_failures: u64,
    /// Wall-clock seconds (zero when `timing: false`).
    pub elapsed_secs: f64,
    /// `ops / elapsed_secs` (zero when `timing: false`).
    pub ops_per_sec: f64,
    /// Per-shard totals from [`Service::shutdown`].
    pub shards: Vec<ShardStats>,
    /// Hottest shard's share of ops divided by the perfectly balanced
    /// share (1.0 = perfectly even; `shards` = everything on one shard).
    pub imbalance: f64,
    /// The service instruments (`service.route`, `service.queue_depth`,
    /// `service.shard_imbalance`, the socket plane, …).
    pub metrics: sbu_obs::Snapshot,
}

/// A seeded key sampler for one client's request stream.
struct KeyStream {
    rng: SmallRng,
    keys: usize,
    /// Zipf CDF over ranks (empty = uniform).
    cdf: Vec<f64>,
}

impl KeyStream {
    fn new(config: &LoadgenConfig, client: usize) -> Self {
        // Distinct stream per client, stable under reordering of clients.
        let rng = SmallRng::seed_from_u64(config.seed ^ (0x9E37_79B9 * (client as u64 + 1)));
        let cdf = match config.skew {
            Skew::Uniform => Vec::new(),
            Skew::Zipf(theta) => {
                let mut cdf = Vec::with_capacity(config.keys);
                let mut total = 0.0;
                for rank in 1..=config.keys {
                    total += 1.0 / (rank as f64).powf(theta);
                    cdf.push(total);
                }
                for c in &mut cdf {
                    *c /= total;
                }
                cdf
            }
        };
        Self {
            rng,
            keys: config.keys,
            cdf,
        }
    }

    fn next_key(&mut self) -> u64 {
        if self.cdf.is_empty() {
            return self.rng.gen_range(0..self.keys as u64);
        }
        let u: f64 = self.rng.gen();
        // First rank whose cumulative mass covers u.
        let rank = self.cdf.partition_point(|&c| c < u);
        rank.min(self.keys - 1) as u64
    }
}

/// Run one configuration against a fresh service. `gen_op` draws each
/// request's command (it sees the op-local RNG so mixes are seeded too).
pub fn run<S, F>(config: &LoadgenConfig, template: S, gen_op: F) -> LoadgenReport
where
    S: WireCodec + Send + Sync + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    F: Fn(&mut SmallRng) -> S::Op + Send + Sync,
{
    assert!(config.clients >= 1 && config.ops_per_client >= 1 && config.keys >= 1);
    let retry = match (config.fault.is_some(), config.timing) {
        (false, _) => RetryPolicy::patient(),
        (true, true) => RetryPolicy::lossy(),
        // Timing-off runs feed byte-identical artifacts, where a spurious
        // retransmission (the 10 ms timer beating a merely slow reply on a
        // loaded box) would perturb the counters. A dropped reply never
        // arrives, so a 10× slower timer changes nothing but the
        // scheduling-noise margin.
        (true, false) => RetryPolicy::lossy().with_attempt_timeout(Duration::from_millis(100)),
    };
    let mut builder = Service::builder(config.shards)
        .workers(config.workers)
        .clients(config.clients)
        .transport(config.transport.clone())
        .retry(retry)
        .seed(config.seed);
    if let Some(fault) = config.fault {
        builder = builder.fault(fault);
    }
    let mut svc = builder.build(template);
    let failures = AtomicU64::new(0);
    let busy = AtomicU64::new(0);
    let unavailable = AtomicU64::new(0);
    let classify = |e: &crate::ServiceError| {
        failures.fetch_add(1, Ordering::Relaxed);
        if e.is_busy() {
            busy.fetch_add(1, Ordering::Relaxed);
        } else if e.is_unavailable() {
            unavailable.fetch_add(1, Ordering::Relaxed);
        }
    };
    let started = Instant::now();
    match config.mode {
        LoopMode::Closed => {
            std::thread::scope(|scope| {
                for client in 0..config.clients {
                    let (svc, gen_op, classify) = (&svc, &gen_op, &classify);
                    let mut stream = KeyStream::new(config, client);
                    scope.spawn(move || {
                        for _ in 0..config.ops_per_client {
                            let key = stream.next_key();
                            let op = gen_op(&mut stream.rng);
                            if let Err(e) = svc.client(client).call(key, &op) {
                                classify(&e);
                            }
                        }
                    });
                }
            });
        }
        LoopMode::Open => {
            // A bounded window of typed `Pending` handles per client, so
            // retransmission and the reply stash keep working while
            // several requests are in flight at once.
            std::thread::scope(|scope| {
                for client in 0..config.clients {
                    let (svc, gen_op, classify) = (&svc, &gen_op, &classify);
                    let mut stream = KeyStream::new(config, client);
                    scope.spawn(move || {
                        let handle = svc.client(client);
                        let deadline = handle.retry().deadline;
                        let mut window = VecDeque::with_capacity(OPEN_WINDOW);
                        for _ in 0..config.ops_per_client {
                            let key = stream.next_key();
                            let op = gen_op(&mut stream.rng);
                            window.push_back(handle.submit(key, &op));
                            if window.len() >= OPEN_WINDOW {
                                let oldest = window.pop_front().expect("window non-empty");
                                if let Err(e) = oldest.wait(Instant::now() + deadline) {
                                    classify(&e);
                                }
                            }
                        }
                        for pending in window {
                            if let Err(e) = pending.wait(Instant::now() + deadline) {
                                classify(&e);
                            }
                        }
                    });
                }
            });
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let shards = svc.shutdown();
    // Snapshot after shutdown so `service.shard_imbalance` (recorded while
    // joining the workers) is included.
    let metrics = svc.obs_snapshot();

    let ops = (config.clients * config.ops_per_client) as u64;
    let failures = failures.into_inner();
    let hottest = shards.iter().map(|s| s.ops).max().unwrap_or(0);
    let fair = ops as f64 / config.shards as f64;
    LoadgenReport {
        ops,
        acked: ops - failures,
        failures,
        busy_failures: busy.into_inner(),
        unavailable_failures: unavailable.into_inner(),
        elapsed_secs: if config.timing { elapsed } else { 0.0 },
        ops_per_sec: if config.timing && elapsed > 0.0 {
            ops as f64 / elapsed
        } else {
            0.0
        },
        imbalance: if fair > 0.0 {
            hottest as f64 / fair
        } else {
            0.0
        },
        shards,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbu_spec::specs::{CounterOp, CounterSpec};

    fn counter_mix(rng: &mut SmallRng) -> CounterOp {
        if rng.gen_bool(0.25) {
            CounterOp::Read
        } else {
            CounterOp::Inc
        }
    }

    fn scratch_socket(tag: &str) -> std::path::PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "sbu-loadgen-{tag}-{}-{}.sock",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn closed_loop_completes_every_op() {
        let config = LoadgenConfig {
            clients: 4,
            shards: 4,
            workers: 2,
            ops_per_client: 200,
            keys: 64,
            ..Default::default()
        };
        let report = run(&config, CounterSpec::new(), counter_mix);
        assert_eq!(report.ops, 800);
        assert_eq!(report.failures, 0);
        assert_eq!(report.acked, 800);
        assert_eq!(report.shards.iter().map(|s| s.ops).sum::<u64>(), 800);
        assert!(report.imbalance >= 1.0);
    }

    #[test]
    fn closed_loop_rides_out_a_lossy_transport() {
        let config = LoadgenConfig {
            clients: 2,
            shards: 2,
            workers: 2,
            ops_per_client: 60,
            keys: 16,
            fault: Some(FaultProfile::lossy()),
            seed: 11,
            ..Default::default()
        };
        let report = run(&config, CounterSpec::new(), counter_mix);
        assert_eq!(report.ops, 120);
        assert_eq!(report.failures, 0, "retries must absorb honest loss");
        assert_eq!(
            report.shards.iter().map(|s| s.ops).sum::<u64>(),
            report.acked,
            "exactly-once: every acked op applied exactly once"
        );
        if cfg!(feature = "obs") {
            assert!(report.metrics.counter("service.retry") > 0);
            assert!(report.metrics.counter("service.inject.drop") > 0);
        }
    }

    #[test]
    fn open_loop_drains_the_backlog() {
        let config = LoadgenConfig {
            clients: 2,
            shards: 2,
            workers: 2,
            ops_per_client: 300,
            keys: 32,
            mode: LoopMode::Open,
            ..Default::default()
        };
        let report = run(&config, CounterSpec::new(), counter_mix);
        assert_eq!(report.shards.iter().map(|s| s.ops).sum::<u64>(), 600);
    }

    #[test]
    fn open_loop_over_a_unix_socket_applies_every_op() {
        let path = scratch_socket("open");
        let config = LoadgenConfig {
            clients: 2,
            shards: 2,
            workers: 2,
            ops_per_client: 80,
            keys: 32,
            mode: LoopMode::Open,
            transport: TransportConfig::Unix(path.clone()),
            ..Default::default()
        };
        let report = run(&config, CounterSpec::new(), counter_mix);
        let _ = std::fs::remove_file(path);
        assert_eq!(report.failures, 0);
        assert_eq!(report.shards.iter().map(|s| s.ops).sum::<u64>(), 160);
        if cfg!(feature = "obs") {
            assert!(report.metrics.counter("service.accept") >= 2);
            assert!(report.metrics.counter("service.read_syscall") > 0);
        }
    }

    #[test]
    fn zipf_concentrates_mass_on_low_ranks() {
        let config = LoadgenConfig {
            keys: 1000,
            skew: Skew::Zipf(0.99),
            ..Default::default()
        };
        let mut stream = KeyStream::new(&config, 0);
        let mut head = 0usize;
        for _ in 0..10_000 {
            if stream.next_key() < 10 {
                head += 1;
            }
        }
        // Zipf(0.99) over 1000 keys puts roughly 40% of mass on the top
        // 10 ranks; uniform would put 1% there.
        assert!(
            (2500..=6500).contains(&head),
            "top-10 keys drew {head}/10000"
        );
    }

    #[test]
    fn reports_are_deterministic_single_threaded_without_timing() {
        let config = LoadgenConfig {
            clients: 1,
            shards: 4,
            workers: 1,
            ops_per_client: 250,
            keys: 128,
            skew: Skew::Zipf(0.8),
            timing: false,
            ..Default::default()
        };
        let a = run(&config, CounterSpec::new(), counter_mix);
        let b = run(&config, CounterSpec::new(), counter_mix);
        assert_eq!(a.shards, b.shards);
        assert_eq!(format!("{:?}", a.metrics), format!("{:?}", b.metrics));
        assert_eq!(a.elapsed_secs, 0.0);
        assert_eq!(a.ops_per_sec, 0.0);
    }
}
