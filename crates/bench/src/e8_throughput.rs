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
//! EXPERIMENTS.md) so the perf trajectory is trackable across changes and,
//! given a checked-in baseline, compares the fresh run against it —
//! that's the CI perf smoke.

use crate::{
    best_of, tabulate, timed_threads, write_bench, write_obs_artifact, Cell, Field, BEST_OF,
};
use sbu_core::{
    bounded::UniversalConfig, CellPayload, SpinLockUniversal, UnboundedUniversal, Universal,
    UniversalObject,
};
use sbu_mem::native::NativeMem;
use sbu_mem::WordMem;
use sbu_obs::json::Json;
use sbu_spec::specs::{CounterOp, CounterSpec};

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

/// Ops/sec of `threads` processors each applying `ops_per_thread`
/// increments to `obj` (any counter construction) over `mem`.
pub(crate) fn throughput<U: UniversalObject<CounterSpec> + Sync>(
    threads: usize,
    ops_per_thread: usize,
    obj: U,
    mem: NativeMem<CellPayload<CounterSpec>>,
) -> f64 {
    timed_threads(threads, ops_per_thread, |pid| {
        for _ in 0..ops_per_thread {
            obj.apply(&mem, pid, &CounterOp::Inc);
        }
    })
}

/// [`throughput`] of the bounded construction under `config`, with its
/// instruments attached to `registry`.
pub(crate) fn bounded_throughput(
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

/// [`throughput`] of the spin-lock-protected sequential counter.
pub(crate) fn spin_lock_throughput(threads: usize, ops: usize) -> f64 {
    let mut mem: NativeMem<CellPayload<CounterSpec>> = NativeMem::new();
    let lock = SpinLockUniversal::new(&mut mem, CounterSpec::new());
    throughput(threads, ops, lock, mem)
}

/// Measure every arm at every thread count. The bounded arms attach their
/// instruments to `registry` (frontier hit/miss/fallback, combining batch
/// sizes, CAS retries) — the source of the `OBS_e8.json` artifact. Size
/// the registry for the largest entry of [`THREADS`].
pub fn measure_with(registry: &sbu_obs::Registry) -> Vec<E8Row> {
    let ops = OPS_PER_THREAD;
    THREADS
        .iter()
        .map(|&threads| {
            let for_procs = UniversalConfig::for_procs(threads);
            let mut mem: NativeMem<CellPayload<CounterSpec>> = NativeMem::new();
            let unbounded = UnboundedUniversal::new(&mut mem, threads, ops + 8, CounterSpec::new());
            // Raw fetch-and-add reference (not linearizable *as a universal
            // object* — it IS the hardware op the constructions simulate).
            let mut raw: NativeMem<()> = NativeMem::new();
            let reg = raw.alloc_atomic(0);
            E8Row {
                threads,
                bounded_fast: bounded_throughput(threads, ops, for_procs, registry),
                bounded_paper: bounded_throughput(threads, ops, for_procs.paper_scans(), registry),
                unbounded: throughput(threads, ops, unbounded, mem),
                spin_lock: spin_lock_throughput(threads, ops),
                raw_fetch_add: timed_threads(threads, ops, |pid| {
                    for _ in 0..ops {
                        raw.rmw(pid, reg, &|x| x + 1);
                    }
                }),
            }
        })
        .collect()
}

const FIELDS: &[Field<E8Row>] = &[
    ("threads", "threads", |r| Cell::int(r.threads as u64)),
    ("bounded_fast", "bounded (fast)", |r| {
        Cell::num(r.bounded_fast, 0)
    }),
    ("bounded_paper", "bounded (paper)", |r| {
        Cell::num(r.bounded_paper, 0)
    }),
    ("", "speedup", |r| {
        Cell::num(r.bounded_fast / r.bounded_paper, 2).suffix("×")
    }),
    ("unbounded", "unbounded", |r| Cell::num(r.unbounded, 0)),
    ("spin_lock", "spin lock", |r| Cell::num(r.spin_lock, 0)),
    ("raw_fetch_add", "raw fetch-add", |r| {
        Cell::num(r.raw_fetch_add, 0)
    }),
];

/// The E8 table and its `BENCH_e8.json` document (schema: EXPERIMENTS.md).
pub fn tables(rows: &[E8Row]) -> (String, Json) {
    tabulate(
        "E8  native throughput, ops/sec (counter; release build recommended)",
        FIELDS,
        rows,
        vec![
            ("experiment", Json::Str("e8".into())),
            ("object", Json::Str("counter".into())),
            ("unit", Json::Str("ops_per_sec".into())),
            ("ops_per_thread", Json::Num(OPS_PER_THREAD as f64)),
        ],
    )
}

/// Run the experiment, write `BENCH_e8.json`, and return the report.
///
/// When `baseline` names a readable `BENCH_e8.json`-shaped file, also
/// compare the fresh `bounded_fast` numbers against it and fail (`Err`,
/// with the report) on a >30% regression at any thread count. A missing
/// baseline file is a graceful skip, not an error. The verdict is taken
/// on the element-wise best of up to [`BEST_OF`] full sweeps; the written
/// `BENCH_e8.json` holds that merged best, which is also the right thing
/// to promote to a new baseline.
pub fn run(baseline: Option<&str>) -> Result<String, String> {
    let base = match baseline.map(|path| (path, std::fs::read_to_string(path))) {
        Some((path, Ok(text))) => {
            Some(Json::parse(&text).map_err(|e| format!("bad baseline {path}: {e}"))?)
        }
        _ => None,
    };

    let registry = sbu_obs::Registry::new(*THREADS.iter().max().expect("non-empty sweep"));
    let (rows, _) = best_of(
        || measure_with(&registry),
        |best, fresh| {
            for (b, f) in best.iter_mut().zip(&fresh) {
                b.merge_best(f);
            }
        },
        |rows| {
            base.as_ref()
                .is_none_or(|b| !compare_to_baseline(b, rows).1)
        },
    );

    let (mut report, doc) = tables(&rows);
    let metrics = registry.snapshot();
    report.push_str(&metrics.render_table("E8  bounded-arm instruments (all sweeps)"));
    report.push_str(&write_bench("e8", &doc));
    report.push_str(&write_obs_artifact("e8", &metrics));

    let (Some(path), Some(base)) = (baseline, base) else {
        if let Some(path) = baseline {
            report.push_str(&format!("baseline {path} not found; check skipped\n"));
        }
        return Ok(report);
    };
    let (lines, regressed) = compare_to_baseline(&base, &rows);
    report.push_str(&lines);
    if regressed {
        Err(format!(
            "{report}FAIL: bounded_fast regressed more than \
             {:.0}% vs {path} (best of {BEST_OF} runs)",
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
    fn document_keys_match_the_checked_in_baseline() {
        let doc = tables(&[row(2, 123.0)]).1;
        crate::assert_schema("BENCH_e8_baseline.json", &doc);
        assert_eq!(doc.get("experiment").unwrap().as_str(), Some("e8"));
        let rows = doc.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows[0].get("threads").unwrap().as_num(), Some(2.0));
        assert_eq!(rows[0].get("bounded_fast").unwrap().as_num(), Some(123.0));
        assert!(rows[0].get("bounded_paper").is_some());
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn baseline_compare_flags_only_real_regressions() {
        let base = tables(&[row(1, 1000.0), row(4, 1000.0)]).1;
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
}
