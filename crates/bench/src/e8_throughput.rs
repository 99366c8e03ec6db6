//! E8 — native throughput of the constructions on real threads.
//!
//! Not a claim the paper makes (1989 hardware!), but the comparison every
//! modern reader wants: operations per second for the bounded universal
//! construction (with and without the locality fast paths) vs the unbounded
//! baseline vs a spin lock vs a raw atomic fetch-and-add reference, as
//! thread count grows. The universal constructions pay for wait-freedom
//! with scans; the point is progress guarantees, not raw speed.
//!
//! Besides the rendered table, `run` writes `BENCH_e8.json` (schema in
//! EXPERIMENTS.md) so the perf trajectory is trackable across changes, and
//! `run_checked` compares a fresh run against a checked-in baseline —
//! that's the CI perf smoke.

use crate::{render_table, write_obs_artifact};
use sbu_core::{
    bounded::UniversalConfig, CellPayload, SpinLockUniversal, UnboundedUniversal, Universal,
    UniversalObject,
};
use sbu_mem::native::NativeMem;
use sbu_mem::{Pid, WordMem};
use sbu_obs::json::Json;
use sbu_spec::specs::{CounterOp, CounterSpec};
use std::sync::Arc;
use std::time::Instant;

/// Operations per thread for every arm.
pub const OPS_PER_THREAD: usize = 2_000;

/// Thread counts swept.
pub const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Fail the baseline check when `bounded_fast` drops below this fraction
/// of the recorded baseline (i.e. a >30% regression).
pub const REGRESSION_FLOOR: f64 = 0.70;

/// One thread-count's measurements, ops/sec.
#[derive(Debug, Clone, Copy)]
pub struct E8Row {
    /// Concurrent processors.
    pub threads: usize,
    /// Bounded universal construction, fast paths on (the default config).
    pub bounded_fast: f64,
    /// Bounded universal construction, the paper's full scans.
    pub bounded_paper: f64,
    /// Unbounded (Figure 1 style) universal construction.
    pub unbounded: f64,
    /// Spin-lock-protected sequential object.
    pub spin_lock: f64,
    /// Raw hardware fetch-and-add (the op the constructions simulate).
    pub raw_fetch_add: f64,
}

impl E8Row {
    /// Keep the better (higher-throughput) sample per arm.
    fn merge_best(&mut self, other: &E8Row) {
        self.bounded_fast = self.bounded_fast.max(other.bounded_fast);
        self.bounded_paper = self.bounded_paper.max(other.bounded_paper);
        self.unbounded = self.unbounded.max(other.unbounded);
        self.spin_lock = self.spin_lock.max(other.spin_lock);
        self.raw_fetch_add = self.raw_fetch_add.max(other.raw_fetch_add);
    }
}

fn throughput<U>(
    threads: usize,
    ops_per_thread: usize,
    obj: U,
    mem: NativeMem<CellPayload<CounterSpec>>,
) -> f64
where
    U: UniversalObject<CounterSpec> + Clone + 'static,
{
    let mem = Arc::new(mem);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for i in 0..threads {
            let mem = Arc::clone(&mem);
            let obj = obj.clone();
            s.spawn(move || {
                for _ in 0..ops_per_thread {
                    obj.apply(&*mem, Pid(i), &CounterOp::Inc);
                }
            });
        }
    });
    (threads * ops_per_thread) as f64 / t0.elapsed().as_secs_f64()
}

fn bounded_throughput(
    threads: usize,
    ops: usize,
    config: UniversalConfig,
    registry: &sbu_obs::Registry,
) -> f64 {
    let mut mem: NativeMem<CellPayload<CounterSpec>> = NativeMem::new();
    mem.attach_obs(registry);
    let bounded = Universal::builder(threads)
        .config(config)
        .obs(registry)
        .build(&mut mem, CounterSpec::new());
    throughput(threads, ops, bounded, mem)
}

/// Measure every arm at every thread count.
pub fn measure() -> Vec<E8Row> {
    measure_with(&sbu_obs::Registry::new(0))
}

/// Like [`measure`], but the bounded arms attach their instruments to
/// `registry` (frontier hit/miss/fallback, combining batch sizes, CAS
/// retries) — the source of the `OBS_e8.json` artifact. Size the registry
/// for the largest entry of [`THREADS`].
pub fn measure_with(registry: &sbu_obs::Registry) -> Vec<E8Row> {
    let mut rows = Vec::new();
    for &threads in &THREADS {
        let ops = OPS_PER_THREAD;

        let bounded_fast =
            bounded_throughput(threads, ops, UniversalConfig::for_procs(threads), registry);
        let bounded_paper = bounded_throughput(
            threads,
            ops,
            UniversalConfig::for_procs(threads).paper_scans(),
            registry,
        );

        let mut mem: NativeMem<CellPayload<CounterSpec>> = NativeMem::new();
        let unbounded = UnboundedUniversal::new(&mut mem, threads, ops + 8, CounterSpec::new());
        let unbounded_tp = throughput(threads, ops, unbounded, mem);

        let mut mem: NativeMem<CellPayload<CounterSpec>> = NativeMem::new();
        let lock = SpinLockUniversal::new(&mut mem, CounterSpec::new());
        let lock_tp = throughput(threads, ops, lock, mem);

        // Raw fetch-and-add reference (not linearizable *as a universal
        // object* — it IS the hardware op the constructions simulate).
        let mut mem: NativeMem<()> = NativeMem::new();
        let reg = mem.alloc_atomic(0);
        let mem = Arc::new(mem);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for i in 0..threads {
                let mem = Arc::clone(&mem);
                s.spawn(move || {
                    for _ in 0..ops {
                        mem.rmw(Pid(i), reg, &|x| x + 1);
                    }
                });
            }
        });
        let raw_tp = (threads * ops) as f64 / t0.elapsed().as_secs_f64();

        rows.push(E8Row {
            threads,
            bounded_fast,
            bounded_paper,
            unbounded: unbounded_tp,
            spin_lock: lock_tp,
            raw_fetch_add: raw_tp,
        });
    }
    rows
}

/// The `BENCH_e8.json` document for a set of rows (schema: EXPERIMENTS.md).
pub fn to_json(rows: &[E8Row]) -> Json {
    Json::obj(vec![
        ("experiment", Json::Str("e8".into())),
        ("object", Json::Str("counter".into())),
        ("unit", Json::Str("ops_per_sec".into())),
        ("ops_per_thread", Json::Num(OPS_PER_THREAD as f64)),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("threads", Json::Num(r.threads as f64)),
                            ("bounded_fast", Json::Num(r.bounded_fast)),
                            ("bounded_paper", Json::Num(r.bounded_paper)),
                            ("unbounded", Json::Num(r.unbounded)),
                            ("spin_lock", Json::Num(r.spin_lock)),
                            ("raw_fetch_add", Json::Num(r.raw_fetch_add)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn render(rows: &[E8Row]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.threads.to_string(),
                format!("{:.0}", r.bounded_fast),
                format!("{:.0}", r.bounded_paper),
                format!("{:.2}×", r.bounded_fast / r.bounded_paper),
                format!("{:.0}", r.unbounded),
                format!("{:.0}", r.spin_lock),
                format!("{:.0}", r.raw_fetch_add),
            ]
        })
        .collect();
    render_table(
        "E8  native throughput, ops/sec (counter; release build recommended)",
        &[
            "threads",
            "bounded (fast)",
            "bounded (paper)",
            "speedup",
            "unbounded",
            "spin lock",
            "raw fetch-add",
        ],
        &table_rows,
    )
}

/// Run the experiment, write `BENCH_e8.json`, and return the report.
pub fn run() -> String {
    match run_checked(None) {
        Ok(report) => report,
        Err(e) => e, // unreachable: no baseline means no failure path
    }
}

/// Like [`run`], but when `baseline` names a readable `BENCH_e8.json`-shaped
/// file, also compare the fresh `bounded_fast` numbers against it and fail
/// (Err, with the report) on a >30% regression at any thread count. A
/// missing baseline file is a graceful skip, not an error.
///
/// Millisecond-scale runs are noisy (a busy CI neighbour can halve one
/// sample), so a regression verdict is only issued after taking the
/// element-wise best of up to three full measurement sweeps — genuine
/// regressions survive retries, scheduler hiccups don't. The written
/// `BENCH_e8.json` holds the merged best, which is also the right thing to
/// promote to a new baseline.
pub fn run_checked(baseline: Option<&str>) -> Result<String, String> {
    let base = match baseline {
        None => None,
        Some(path) => match std::fs::read_to_string(path) {
            Err(_) => None,
            Ok(text) => Some(Json::parse(&text).map_err(|e| format!("bad baseline {path}: {e}"))?),
        },
    };

    let registry = sbu_obs::Registry::new(*THREADS.iter().max().expect("non-empty sweep"));
    let mut rows = measure_with(&registry);
    if let Some(base) = &base {
        for _ in 0..2 {
            if !compare_to_baseline(base, &rows).1 {
                break;
            }
            for (best, fresh) in rows.iter_mut().zip(measure_with(&registry)) {
                best.merge_best(&fresh);
            }
        }
    }

    let json = to_json(&rows).render();
    let mut report = render(&rows);
    let metrics = registry.snapshot();
    report.push_str(&metrics.render_table("E8  bounded-arm instruments (all sweeps)"));
    match std::fs::write("BENCH_e8.json", &json) {
        Ok(()) => report.push_str("wrote BENCH_e8.json\n"),
        Err(e) => report.push_str(&format!("could not write BENCH_e8.json: {e}\n")),
    }
    report.push_str(&write_obs_artifact("e8", &metrics));

    let Some(path) = baseline else {
        return Ok(report);
    };
    let Some(base) = base else {
        report.push_str(&format!("baseline {path} not found; check skipped\n"));
        return Ok(report);
    };
    let (lines, regressed) = compare_to_baseline(&base, &rows);
    report.push_str(&lines);
    if regressed {
        Err(format!(
            "{report}FAIL: bounded_fast regressed more than \
             {:.0}% vs {path} (best of 3 runs)",
            (1.0 - REGRESSION_FLOOR) * 100.0
        ))
    } else {
        Ok(report)
    }
}

/// Compare fresh rows to a baseline document; returns the rendered
/// comparison plus whether any thread count regressed past the floor.
pub fn compare_to_baseline(base: &Json, rows: &[E8Row]) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    let empty: Vec<Json> = Vec::new();
    let base_rows = base.get("rows").and_then(Json::as_arr).unwrap_or(&empty);
    for r in rows {
        let recorded = base_rows.iter().find_map(|b| {
            (b.get("threads").and_then(Json::as_num) == Some(r.threads as f64))
                .then(|| b.get("bounded_fast").and_then(Json::as_num))
                .flatten()
        });
        match recorded {
            Some(base_tp) if base_tp > 0.0 => {
                let ratio = r.bounded_fast / base_tp;
                let verdict = if ratio < REGRESSION_FLOOR {
                    regressed = true;
                    "REGRESSION"
                } else {
                    "ok"
                };
                out.push_str(&format!(
                    "  baseline check  threads={}  {:.0} vs {:.0} ops/sec  ({:.2}×)  {}\n",
                    r.threads, r.bounded_fast, base_tp, ratio, verdict
                ));
            }
            _ => out.push_str(&format!(
                "  baseline check  threads={}  no baseline row; skipped\n",
                r.threads
            )),
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(threads: usize, fast: f64) -> E8Row {
        E8Row {
            threads,
            bounded_fast: fast,
            bounded_paper: 1.0,
            unbounded: 1.0,
            spin_lock: 1.0,
            raw_fetch_add: 1.0,
        }
    }

    #[test]
    fn baseline_compare_flags_only_real_regressions() {
        let base = to_json(&[row(1, 1000.0), row(4, 1000.0)]);
        // 1 thread holds steady, 4 threads collapses: regression.
        let (out, bad) = compare_to_baseline(&base, &[row(1, 950.0), row(4, 500.0)]);
        assert!(bad);
        assert!(out.contains("REGRESSION"));
        // Noise within the 30% floor passes.
        let (_, bad) = compare_to_baseline(&base, &[row(1, 800.0), row(4, 750.0)]);
        assert!(!bad);
        // A thread count the baseline never recorded is skipped, not failed.
        let (out, bad) = compare_to_baseline(&base, &[row(2, 10.0)]);
        assert!(!bad);
        assert!(out.contains("skipped"));
    }

    #[test]
    fn json_document_has_the_documented_shape() {
        let doc = to_json(&[row(2, 123.0)]);
        assert_eq!(doc.get("experiment").unwrap().as_str(), Some("e8"));
        let rows = doc.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows[0].get("threads").unwrap().as_num(), Some(2.0));
        assert_eq!(rows[0].get("bounded_fast").unwrap().as_num(), Some(123.0));
        assert!(rows[0].get("bounded_paper").is_some());
        // And it survives a round trip through the parser.
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }
}
