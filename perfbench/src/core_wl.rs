//! `core-contended`: two threads in a closed loop on one shared bounded
//! universal counter (`Universal::builder(2)` with the default
//! `UniversalConfig::for_procs(2)`), no service around it. This isolates
//! the paper's construction — GFC, grab, append, fold, helping, frontier
//! cursors and reclamation — under the contention it exists for.
//!
//! A panic inside `apply` ends that thread's loop as one failed operation
//! with its message as the cause; an `apply` that has not returned by the
//! cut-off is one failed operation with cause "hang". Either way the run
//! still reports every metric.

use crate::gang::{self, Lost};
use crate::report::{Check, Outcome};
use crate::stats::{quantile, Timeline};
use crate::stream::{Skew, Stream};
use crate::Run;
use sbu_core::{CellPayload, Universal};
use sbu_mem::{NativeMem, Pid};
use sbu_spec::specs::{CounterOp, CounterSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const THREADS: usize = 2;
/// Set-ups timed per run; the median is reported.
const SETUPS: usize = 5;
/// How long after the window a thread may still be inside `apply`.
const GRACE: Duration = Duration::from_secs(5);

type Mem = NativeMem<CellPayload<CounterSpec>>;

struct Shared {
    mem: Mem,
    counter: Universal<CounterSpec>,
    stop: AtomicBool,
}

struct ThreadResult {
    timeline: Timeline,
    acked: u64,
    incs: u64,
    /// The panic that ended the loop, and whether its op was an Inc.
    panic: Option<(String, bool)>,
    /// When the loop ended.
    ended: Instant,
}

fn build(registry: &sbu_obs::Registry) -> (Mem, Universal<CounterSpec>) {
    let mut mem = Mem::new();
    mem.attach_obs(registry);
    let counter = Universal::builder(THREADS)
        .obs(registry)
        .build(&mut mem, CounterSpec::new());
    (mem, counter)
}

pub fn run(run: &Run, outcome: &mut Outcome) {
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        let registry = sbu_obs::Registry::new(THREADS);
        let t0 = Instant::now();
        let (mem, counter) = build(&registry);
        setups.push(t0.elapsed().as_secs_f64());
        built = Some((registry, mem, counter));
    }
    outcome.set("setup_s", crate::stats::median(&setups));
    let (registry, mem, counter) = built.expect("at least one set-up");
    let shared = Arc::new(Shared {
        mem,
        counter,
        stop: AtomicBool::new(false),
    });

    let window = run.window();
    let seed = run.seed;
    let s = Arc::clone(&shared);
    let g = gang::run(THREADS, window + GRACE, move |t, start| {
        let end = start + window;
        let mut stream = Stream::new(seed, t as u64, 1, Skew::Uniform);
        let mut r = ThreadResult {
            timeline: Timeline::new(start, window),
            acked: 0,
            incs: 0,
            panic: None,
            ended: start,
        };
        let mut t0 = Instant::now();
        while t0 < end && !s.stop.load(Ordering::Relaxed) {
            let op = stream.next_op();
            match catch_unwind(AssertUnwindSafe(|| s.counter.apply(&s.mem, Pid(t), &op))) {
                Ok(_) => {
                    let t1 = Instant::now();
                    r.timeline.record(t1, t1 - t0);
                    r.acked += 1;
                    r.incs += u64::from(op == CounterOp::Inc);
                    t0 = t1;
                }
                Err(payload) => {
                    r.panic = Some((gang::panic_message(&*payload), op == CounterOp::Inc));
                    s.stop.store(true, Ordering::Relaxed);
                    break;
                }
            }
        }
        r.ended = Instant::now();
        r
    });

    let mut timeline = Timeline::new(g.started, window);
    let (mut acked, mut incs, mut unsure) = (0, 0, 0);
    let mut free_pid = None;
    let mut active = window;
    for (t, r) in g.results.into_iter().enumerate() {
        match r {
            Ok(r) => {
                acked += r.acked;
                incs += r.incs;
                timeline.merge(r.timeline);
                if r.ended < g.started + window {
                    active = active.min(r.ended - g.started);
                }
                match r.panic {
                    Some((msg, inc)) => {
                        unsure += u64::from(inc);
                        outcome.program_fault = true;
                        outcome.fail(format!("panic in Universal::apply: {msg}"), 1);
                    }
                    None => free_pid = free_pid.or(Some(t)),
                }
            }
            Err(Lost::Panicked(msg)) => {
                unsure += 1;
                outcome.program_fault = true;
                outcome.fail(format!("load thread panicked: {msg}"), 1);
            }
            Err(Lost::Hung) => {
                unsure += 1;
                outcome.program_fault = true;
                outcome.fail(
                    format!("hang: Universal::apply still running {GRACE:?} after the window"),
                    1,
                );
            }
        }
    }
    outcome.attempted = acked + outcome.failed_ops;
    outcome
        .checks
        .push(check_final_value(&shared, free_pid, incs, unsure));

    let summary = timeline.summary_until(active);
    crate::record_window(outcome, &summary, &g.proc, acked);
    let sorted = timeline.all_sorted();
    outcome.set("core.apply_ns_p50", quantile(&sorted, 0.50) as f64);
    outcome.set("core.apply_ns_p99", quantile(&sorted, 0.99) as f64);
    crate::ledger::record_core_counters(outcome, &registry.snapshot(), acked);
    for name in crate::ledger::SERVICE_ONLY {
        outcome.na(name, "no service in this workload");
    }
    outcome.na(
        "driver.gen_lag_p99_us",
        "closed loop: no schedule to lag behind",
    );
}

/// Final value == acked Incs (plus up to `unsure` Incs that panicked or
/// hung after they may have taken effect), read by a processor that is
/// not stuck. The read runs on its own thread so a broken list cannot
/// hang the run.
fn check_final_value(shared: &Arc<Shared>, pid: Option<usize>, incs: u64, unsure: u64) -> Check {
    const NAME: &str = "final counter == acked Incs";
    let Some(pid) = pid else {
        return Check::new(NAME, false, "no processor left to read it back".into(), 1);
    };
    let (tx, rx) = mpsc::channel();
    let s = Arc::clone(shared);
    std::thread::spawn(move || {
        let r = catch_unwind(AssertUnwindSafe(|| {
            s.counter.apply(&s.mem, Pid(pid), &CounterOp::Read)
        }));
        let _ = tx.send(r.map_err(|p| gang::panic_message(&*p)));
    });
    match rx.recv_timeout(GRACE) {
        Ok(Ok(v)) => Check::new(
            NAME,
            (incs..=incs + unsure).contains(&v),
            format!("read {v}, acked Incs {incs}, unsettled Incs {unsure}"),
            v.abs_diff(incs),
        ),
        Ok(Err(msg)) => Check::new(NAME, false, format!("read-back panicked: {msg}"), 1),
        Err(_) => Check::new(NAME, false, format!("read-back hung for {GRACE:?}"), 1),
    }
}
