//! E14 — group-commit batch apply vs per-command apply, native threads.
//!
//! The group-commit mode (ISSUE 9) lets one append carry a whole block of
//! commands: the combiner packs every announced command it can see into a
//! single batch cell, runs **one** grab/validate/append protocol and one
//! sequential-state recompute for the block, and distributes the return
//! values. This experiment measures what that amortization buys on real
//! threads: commands per second for the per-command bounded construction
//! vs the batched one at several batch caps, with the spin-lock arm from
//! E8 alongside — the batched column is how far group commit closes the
//! wait-free construction's gap to a lock.
//!
//! Each thread issues the same total number of commands in every arm; the
//! batched arms submit them as [`Universal::apply_batch`] blocks of `cap`
//! commands (the shape the service plane's drain produces), so a block
//! costs one protocol round instead of `cap`.
//!
//! `run` writes `BENCH_e14.json` (schema in EXPERIMENTS.md) plus
//! `OBS_e14.json` under the `obs` feature; `run_smoke` is the CI arm — at
//! 4 threads, batched throughput must not lose to per-command, and under
//! obs the `core.batch_size` histogram must have recorded real batches.

use crate::e8_throughput::{bounded_throughput, spin_lock_throughput};
use crate::{best_of, tabulate, timed_threads, write_bench, write_obs_artifact, Cell, Field};
use sbu_core::{bounded::UniversalConfig, CellPayload, Universal};
use sbu_mem::native::NativeMem;
use sbu_obs::json::Json;
use sbu_spec::specs::{CounterOp, CounterSpec};

/// Commands issued per thread in every arm.
pub const OPS_PER_THREAD: usize = 2_000;

/// Thread counts swept.
pub const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Batch caps swept in the group-commit arms.
pub const CAPS: [usize; 3] = [2, 4, 8];

/// One thread-count's measurements, commands/sec.
#[derive(Debug, Clone)]
pub struct E14Row {
    /// Concurrent processors.
    pub threads: usize,
    /// Per-command bounded construction (the default config).
    pub per_command: f64,
    /// `(cap, commands/sec)` for the group-commit arms, in [`CAPS`] order.
    pub batched: Vec<(usize, f64)>,
    /// Spin-lock-protected sequential object (the E8 gap reference).
    pub spin_lock: f64,
}

impl E14Row {
    /// The best batched arm at this thread count.
    pub fn best_batched(&self) -> f64 {
        self.batched.iter().map(|&(_, tp)| tp).fold(0.0, f64::max)
    }
}

fn batched_throughput(threads: usize, ops: usize, cap: usize, registry: &sbu_obs::Registry) -> f64 {
    let config = UniversalConfig::for_procs(threads)
        .group_commit(true)
        .with_batch_cap(cap);
    batched_throughput_with(threads, ops, cap, config, registry)
}

/// [`batched_throughput`] with an explicit [`UniversalConfig`] (which must
/// have `group_commit` on and a batch cap of `cap`) — the seam E10's
/// batched backoff sweep drives to re-tune the jam backoff cap under
/// group commit.
pub fn batched_throughput_with(
    threads: usize,
    ops: usize,
    cap: usize,
    config: UniversalConfig,
    registry: &sbu_obs::Registry,
) -> f64 {
    let mut mem: NativeMem<CellPayload<CounterSpec>> = NativeMem::new();
    mem.attach_obs(registry);
    let obj = Universal::builder(threads)
        .config(config)
        .obs(registry)
        .build(&mut mem, CounterSpec::new());
    let block = vec![CounterOp::Inc; cap];
    timed_threads(threads, ops, |pid| {
        let mut done = 0;
        while done < ops {
            let take = cap.min(ops - done);
            obj.apply_batch(&mem, pid, &block[..take]);
            done += take;
        }
    })
}

/// The best batched arm at `threads`, over every cap in [`CAPS`].
fn best_batched(threads: usize, registry: &sbu_obs::Registry) -> f64 {
    CAPS.iter()
        .map(|&cap| batched_throughput(threads, OPS_PER_THREAD, cap, registry))
        .fold(0.0, f64::max)
}

fn per_command_throughput(threads: usize, registry: &sbu_obs::Registry) -> f64 {
    bounded_throughput(
        threads,
        OPS_PER_THREAD,
        UniversalConfig::for_procs(threads),
        registry,
    )
}

/// Measure every arm at every thread count, attaching the bounded arms'
/// instruments (including `core.batch_size`) to `registry`.
pub fn measure_with(registry: &sbu_obs::Registry) -> Vec<E14Row> {
    THREADS
        .iter()
        .map(|&threads| E14Row {
            threads,
            per_command: per_command_throughput(threads, registry),
            batched: CAPS
                .iter()
                .map(|&cap| {
                    (
                        cap,
                        batched_throughput(threads, OPS_PER_THREAD, cap, registry),
                    )
                })
                .collect(),
            spin_lock: spin_lock_throughput(threads, OPS_PER_THREAD),
        })
        .collect()
}

// The three batched columns below are written out by index and labelled
// by cap, so they hold only while `CAPS` is exactly this list.
const _: () = assert!(CAPS.len() == 3 && CAPS[0] == 2 && CAPS[1] == 4 && CAPS[2] == 8);

const FIELDS: &[Field<E14Row>] = &[
    ("threads", "threads", |r| Cell::int(r.threads as u64)),
    ("per_command", "per-command", |r| {
        Cell::num(r.per_command, 0)
    }),
    ("", "batched cap=2", |r| Cell::num(r.batched[0].1, 0)),
    ("", "batched cap=4", |r| Cell::num(r.batched[1].1, 0)),
    ("", "batched cap=8", |r| Cell::num(r.batched[2].1, 0)),
    ("batched", "", |r| {
        Cell::json(Json::Arr(
            r.batched
                .iter()
                .map(|&(cap, tp)| {
                    Json::obj(vec![
                        ("cap", Json::Num(cap as f64)),
                        ("commands_per_sec", Json::Num(tp)),
                    ])
                })
                .collect(),
        ))
    }),
    ("", "best speedup", |r| {
        Cell::num(r.best_batched() / r.per_command, 2).suffix("×")
    }),
    ("spin_lock", "spin lock", |r| Cell::num(r.spin_lock, 0)),
    ("", "best/lock", |r| {
        Cell::num(r.best_batched() / r.spin_lock, 2)
    }),
];

/// The E14 table and its `BENCH_e14.json` document (schema:
/// EXPERIMENTS.md). The batched columns are one per entry of [`CAPS`].
pub fn tables(rows: &[E14Row]) -> (String, Json) {
    tabulate(
        "E14  group-commit batch apply, commands/sec (counter; release build recommended)",
        FIELDS,
        rows,
        vec![
            ("experiment", Json::Str("e14".into())),
            ("object", Json::Str("counter".into())),
            ("unit", Json::Str("commands_per_sec".into())),
            ("ops_per_thread", Json::Num(OPS_PER_THREAD as f64)),
        ],
    )
}

/// Run the sweep, write `BENCH_e14.json` (+ `OBS_e14.json` under obs), and
/// return the report.
pub fn run() -> String {
    let registry = sbu_obs::Registry::new(*THREADS.iter().max().expect("non-empty sweep"));
    let rows = measure_with(&registry);
    let (mut report, doc) = tables(&rows);
    let metrics = registry.snapshot();
    report.push_str(&metrics.render_table("E14  bounded-arm instruments (all sweeps)"));
    report.push_str(&write_bench("e14", &doc));
    report.push_str(&write_obs_artifact("e14", &metrics));
    report
}

/// The CI arm: at 4 threads, batched (best cap) must not lose to
/// per-command — the batched side keeps the best of up to
/// [`crate::BEST_OF`] sweeps before a verdict — and under obs the
/// `core.batch_size` histogram must have recorded real (≥ 2 command)
/// batches.
pub fn run_smoke() -> Result<String, String> {
    const SMOKE_THREADS: usize = 4;
    let registry = sbu_obs::Registry::new(SMOKE_THREADS);
    let per_command = per_command_throughput(SMOKE_THREADS, &registry);
    let (batched, taken) = best_of(
        || best_batched(SMOKE_THREADS, &registry),
        |b, x| *b = b.max(x),
        |&b| b >= per_command,
    );
    let mut report = format!(
        "E14 smoke @{SMOKE_THREADS} threads: per-command {per_command:.0} \
         commands/sec, batched (best cap, best of {taken}) {batched:.0} commands/sec ({:.2}×)\n",
        batched / per_command
    );
    let metrics = registry.snapshot();
    report.push_str(&write_obs_artifact("e14", &metrics));
    if cfg!(feature = "obs") {
        let sizes = metrics
            .histogram("core.batch_size")
            .cloned()
            .unwrap_or_default();
        report.push_str(&format!(
            "core.batch_size: {} batches, max {} commands\n",
            sizes.count, sizes.max
        ));
        if sizes.max < 2 {
            return Err(report + "FAIL: no multi-command batch was committed\n");
        }
    }
    if batched >= per_command {
        Ok(report)
    } else {
        Err(report + "FAIL: batched apply slower than per-command at 4 threads\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_keys_match_the_checked_in_benchmark() {
        let rows = vec![E14Row {
            threads: 4,
            per_command: 100.0,
            batched: vec![(2, 150.0), (4, 200.0), (8, 250.0)],
            spin_lock: 400.0,
        }];
        let doc = tables(&rows).1;
        crate::assert_schema("BENCH_e14.json", &doc);
        assert_eq!(doc.get("experiment").unwrap().as_str(), Some("e14"));
        let row = &doc.get("rows").unwrap().as_arr().unwrap()[0];
        assert_eq!(row.get("threads").unwrap().as_num(), Some(4.0));
        assert_eq!(row.get("per_command").unwrap().as_num(), Some(100.0));
        assert_eq!(row.get("spin_lock").unwrap().as_num(), Some(400.0));
        let batched = row.get("batched").unwrap().as_arr().unwrap();
        assert_eq!(batched.len(), 3);
        assert_eq!(batched[2].get("cap").unwrap().as_num(), Some(8.0));
        assert_eq!(rows[0].best_batched(), 250.0);
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn batched_and_per_command_agree_on_the_final_count() {
        // A tiny correctness cross-check in the bench's own harness: both
        // modes must arrive at the same counter value.
        let threads = 2;
        let ops = 64;
        let registry = sbu_obs::Registry::new(threads);
        let final_count = |group: bool| {
            let mut mem: NativeMem<CellPayload<CounterSpec>> = NativeMem::new();
            let config = UniversalConfig::for_procs(threads).group_commit(group);
            let obj = Universal::builder(threads)
                .config(config.with_batch_cap(4))
                .obs(&registry)
                .build(&mut mem, CounterSpec::new());
            timed_threads(threads, ops, |pid| {
                let block = [CounterOp::Inc; 4];
                let mut done = 0;
                while done < ops {
                    if group {
                        obj.apply_batch(&mem, pid, &block);
                        done += block.len();
                    } else {
                        obj.apply(&mem, pid, &CounterOp::Inc);
                        done += 1;
                    }
                }
            });
            obj.apply(&mem, sbu_mem::Pid(0), &CounterOp::Read)
        };
        assert_eq!(final_count(false), (threads * ops) as u64);
        assert_eq!(final_count(true), (threads * ops) as u64);
    }
}
