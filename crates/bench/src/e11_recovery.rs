//! E11 — the price of durability: recoverable objects vs their
//! non-durable counterparts on real threads.
//!
//! The crash–restart PR adds `DurableMem` (persistence bookkeeping + torn
//! fences) and recovery protocols (`RecoverableJamWord`, the recoverable
//! bounded counter via `Universal::recover`). Durability is not free: every
//! sticky write is tracked until fenced, and the recoverable jam announces
//! durably and fences per bit. This experiment quantifies the slowdown the
//! robustness buys, plus the one-off cost of a post-crash recovery sweep.
//! Numbers vary by machine; the *shape* (modest constant-factor overhead,
//! microsecond-scale recovery) is the reproducible claim.

use crate::{render_table, write_obs_artifact};
use sbu_core::{CellPayload, Universal};
use sbu_mem::native::NativeMem;
use sbu_mem::{DurableMem, Pid, TornPersist, Word};
use sbu_obs::json::Json;
use sbu_spec::specs::{CounterOp, CounterSpec};
use sbu_sticky::{JamWord, RecoverableJamWord};
use std::sync::Arc;
use std::time::Instant;

const JAM_OBJECTS: usize = 512;
const COUNTER_OPS: usize = 1_000;
const WIDTH: u32 = 3;

fn value_for(pid: Pid) -> Word {
    (pid.0 as Word) % (1 << WIDTH)
}

/// Every thread jams its fixed value into each of `JAM_OBJECTS` fresh jam
/// words, then reads each one back: `threads * objects * 2` operations.
fn plain_jam_throughput(threads: usize) -> f64 {
    let mut mem: NativeMem<()> = NativeMem::new();
    let words: Vec<JamWord> = (0..JAM_OBJECTS)
        .map(|_| JamWord::new(&mut mem, threads, WIDTH))
        .collect();
    let mem = Arc::new(mem);
    let words = Arc::new(words);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for i in 0..threads {
            let mem = Arc::clone(&mem);
            let words = Arc::clone(&words);
            s.spawn(move || {
                for w in words.iter() {
                    w.jam(&*mem, Pid(i), value_for(Pid(i)));
                    w.read(&*mem, Pid(i));
                }
            });
        }
    });
    (threads * JAM_OBJECTS * 2) as f64 / t0.elapsed().as_secs_f64()
}

/// Same workload over the durable backend with the recoverable protocol;
/// also returns the post-crash recovery sweep cost in µs per object.
fn recoverable_jam_throughput(threads: usize) -> (f64, f64) {
    let mut mem: DurableMem<NativeMem<()>> =
        DurableMem::with_policy(NativeMem::new(), TornPersist::Persist);
    let words: Vec<RecoverableJamWord> = (0..JAM_OBJECTS)
        .map(|_| RecoverableJamWord::new(&mut mem, threads, WIDTH))
        .collect();
    let mem = Arc::new(mem);
    let words = Arc::new(words);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for i in 0..threads {
            let mem = Arc::clone(&mem);
            let words = Arc::clone(&words);
            s.spawn(move || {
                for w in words.iter() {
                    w.jam(&*mem, Pid(i), value_for(Pid(i)));
                    w.read(&*mem, Pid(i));
                }
            });
        }
    });
    let tp = (threads * JAM_OBJECTS * 2) as f64 / t0.elapsed().as_secs_f64();

    // Recovery sweep: crash pid 0, restart it, re-drive its announced jam
    // on every object. One-off cost paid at restart, not per operation.
    mem.crash::<()>(&[Pid(0)]);
    mem.restart(Pid(0));
    let t1 = Instant::now();
    for w in words.iter() {
        w.recover(&*mem, Pid(0));
    }
    let sweep_us = t1.elapsed().as_secs_f64() * 1e6 / JAM_OBJECTS as f64;
    (tp, sweep_us)
}

/// Bounded universal counter over the native backend (non-durable baseline).
fn plain_counter_throughput(threads: usize, registry: &sbu_obs::Registry) -> f64 {
    let mut mem: NativeMem<CellPayload<CounterSpec>> = NativeMem::new();
    mem.attach_obs(registry);
    let counter = Universal::builder(threads)
        .obs(registry)
        .build(&mut mem, CounterSpec::new());
    let mem = Arc::new(mem);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for i in 0..threads {
            let mem = Arc::clone(&mem);
            let counter = counter.clone();
            s.spawn(move || {
                for _ in 0..COUNTER_OPS {
                    counter.apply(&*mem, Pid(i), &CounterOp::Inc);
                }
            });
        }
    });
    (threads * COUNTER_OPS) as f64 / t0.elapsed().as_secs_f64()
}

/// The same counter over `DurableMem` (recoverable via `Universal::recover`);
/// also returns the post-crash recovery cost in µs.
fn recoverable_counter_throughput(threads: usize, registry: &sbu_obs::Registry) -> (f64, f64) {
    let mut mem: DurableMem<NativeMem<CellPayload<CounterSpec>>> =
        DurableMem::with_policy(NativeMem::new(), TornPersist::Persist);
    mem.attach_obs(registry);
    mem.inner_mut().attach_obs(registry);
    let counter = Universal::builder(threads)
        .obs(registry)
        .build(&mut mem, CounterSpec::new());
    let mem = Arc::new(mem);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for i in 0..threads {
            let mem = Arc::clone(&mem);
            let counter = counter.clone();
            s.spawn(move || {
                for _ in 0..COUNTER_OPS {
                    counter.apply(&*mem, Pid(i), &CounterOp::Inc);
                }
            });
        }
    });
    let tp = (threads * COUNTER_OPS) as f64 / t0.elapsed().as_secs_f64();

    mem.crash::<CellPayload<CounterSpec>>(&[Pid(0)]);
    mem.restart(Pid(0));
    let t1 = Instant::now();
    counter.recover(&*mem, Pid(0));
    let recover_us = t1.elapsed().as_secs_f64() * 1e6;
    (tp, recover_us)
}

/// Run the experiment, write `BENCH_e11.json`, and return the report.
pub fn run() -> String {
    let mut jam_rows = Vec::new();
    let mut ctr_rows = Vec::new();
    let mut json_rows = Vec::new();
    let registry = sbu_obs::Registry::new(8);
    for &threads in &[1usize, 2, 4, 8] {
        let plain_jam = plain_jam_throughput(threads);
        let (rec_jam, sweep_us) = recoverable_jam_throughput(threads);
        jam_rows.push(vec![
            threads.to_string(),
            format!("{plain_jam:.0}"),
            format!("{rec_jam:.0}"),
            format!("{:.1}x", plain_jam / rec_jam),
            format!("{sweep_us:.1}"),
        ]);

        let plain_ctr = plain_counter_throughput(threads, &registry);
        let (rec_ctr, recover_us) = recoverable_counter_throughput(threads, &registry);
        ctr_rows.push(vec![
            threads.to_string(),
            format!("{plain_ctr:.0}"),
            format!("{rec_ctr:.0}"),
            format!("{:.1}x", plain_ctr / rec_ctr),
            format!("{recover_us:.1}"),
        ]);

        json_rows.push(Json::obj(vec![
            ("threads", Json::Num(threads as f64)),
            ("jam_plain", Json::Num(plain_jam)),
            ("jam_recoverable", Json::Num(rec_jam)),
            ("jam_recover_us_per_obj", Json::Num(sweep_us)),
            ("counter_plain", Json::Num(plain_ctr)),
            ("counter_recoverable", Json::Num(rec_ctr)),
            ("counter_recover_us", Json::Num(recover_us)),
        ]));
    }
    let doc = Json::obj(vec![
        ("experiment", Json::Str("e11".into())),
        ("unit", Json::Str("ops_per_sec".into())),
        ("rows", Json::Arr(json_rows)),
    ]);
    let mut out = render_table(
        "E11a  durability tax, jam word: ops/sec (jam+read over fresh objects)",
        &[
            "threads",
            "plain JamWord",
            "RecoverableJamWord",
            "slowdown",
            "recover µs/obj",
        ],
        &jam_rows,
    );
    out.push('\n');
    out.push_str(&render_table(
        "E11b  durability tax, bounded counter: ops/sec (universal Inc)",
        &[
            "threads",
            "NativeMem",
            "DurableMem",
            "slowdown",
            "recover µs",
        ],
        &ctr_rows,
    ));
    let metrics = registry.snapshot();
    if !metrics.is_empty() {
        out.push('\n');
        out.push_str(&metrics.render_table("E11  counter-arm instruments (all sweeps)"));
    }
    match std::fs::write("BENCH_e11.json", doc.render()) {
        Ok(()) => out.push_str("wrote BENCH_e11.json\n"),
        Err(e) => out.push_str(&format!("could not write BENCH_e11.json: {e}\n")),
    }
    out.push_str(&write_obs_artifact("e11", &metrics));
    out
}
