//! E12 — sharded object-space throughput (the `sbu-service` runtime).
//!
//! E8 established the ceiling of *one* universal object: `bounded_fast`
//! peaks near 2T and falls through 8T, because every processor contends on
//! one cell pool. E12 measures the way out: many objects behind the
//! service router, where each key is its own tiny `n = 1` construction and
//! shards scale with workers. The sweep crosses client count × shard count
//! × key skew (uniform vs Zipf-0.99 hot keys) in the closed loop, and
//! records the e8-style single-object `bounded_fast` number at the top
//! client count as the baseline the acceptance check compares against.
//!
//! Artifacts: `BENCH_e12.json` (schema in EXPERIMENTS.md) and, with the
//! `obs` feature, `OBS_e12.json` carrying the merged `service.*`
//! instruments. `run_smoke` is the CI arm: 1 vs 4 shards at 4 clients,
//! asserting both cells complete and, where there is a core per worker,
//! that the sharded run at least matches the single shard.

use crate::{best_of, obs_doc, tabulate, write_bench, write_obs_artifact, Cell, Field};
use rand::rngs::SmallRng;
use sbu_core::{CellPayload, Universal};
use sbu_mem::native::NativeMem;
use sbu_obs::json::Json;
use sbu_obs::Snapshot;
use sbu_service::loadgen::{self, LoadgenConfig, Skew};
use sbu_spec::specs::{CounterOp, CounterSpec};

/// Requests each client issues per cell.
pub const OPS_PER_CLIENT: usize = 2_000;

/// Client counts swept.
pub const CLIENTS: [usize; 4] = [1, 2, 4, 8];

/// Shard counts swept (workers track shards, capped at the client count).
pub const SHARDS: [usize; 3] = [1, 4, 8];

/// The Zipf exponent for the skewed arm (the conventional hot-key value).
pub const ZIPF_THETA: f64 = 0.99;

/// One cell of the sweep.
#[derive(Debug, Clone)]
pub struct E12Row {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Shards (power of two).
    pub shards: usize,
    /// Worker threads serving the shards.
    pub workers: usize,
    /// Key-distribution label (`"uniform"` or `"zipf-0.99"`).
    pub skew: &'static str,
    /// Aggregate completed requests per second.
    pub ops_per_sec: f64,
    /// Hottest shard's ops over the perfectly balanced share.
    pub imbalance: f64,
}

/// The workload both E12 and the smoke arm drive: a 75/25 inc/read counter
/// mix over 1024 keys.
fn counter_mix(rng: &mut SmallRng) -> CounterOp {
    use rand::Rng;
    if rng.gen_bool(0.25) {
        CounterOp::Read
    } else {
        CounterOp::Inc
    }
}

fn cell_config(
    clients: usize,
    shards: usize,
    skew: Skew,
    seed: u64,
    timing: bool,
) -> LoadgenConfig {
    LoadgenConfig {
        clients,
        shards,
        workers: shards.min(clients.max(1)),
        ops_per_client: OPS_PER_CLIENT,
        keys: 1024,
        skew,
        seed,
        timing,
        ..Default::default()
    }
}

const SKEWS: [(Skew, &str); 2] = [
    (Skew::Uniform, "uniform"),
    (Skew::Zipf(ZIPF_THETA), "zipf-0.99"),
];

/// Run one cell, merging its instruments into `metrics`.
fn run_cell(
    clients: usize,
    shards: usize,
    (skew, label): (Skew, &'static str),
    seed: u64,
    timing: bool,
    metrics: &mut Snapshot,
) -> E12Row {
    let config = cell_config(clients, shards, skew, seed, timing);
    let report = loadgen::run(&config, CounterSpec::new(), counter_mix);
    metrics.merge(&report.metrics);
    E12Row {
        clients,
        shards,
        workers: config.workers,
        skew: label,
        ops_per_sec: report.ops_per_sec,
        imbalance: report.imbalance,
    }
}

/// Run `clients` × [`SHARDS`] × both skews; `metrics` accumulates every
/// cell's `service.*` instruments.
fn sweep(clients: &[usize], seed: u64, timing: bool, metrics: &mut Snapshot) -> Vec<E12Row> {
    let mut rows = Vec::new();
    for &clients in clients {
        for &shards in &SHARDS {
            for skew in SKEWS {
                rows.push(run_cell(clients, shards, skew, seed, timing, metrics));
            }
        }
    }
    rows
}

/// The e8-style reference: one `n = threads` universal counter hammered by
/// `threads` OS threads — the number the sharded rows are measured
/// against ("aggregate throughput ≥ 4× the single-object ceiling").
pub fn single_universal_baseline(threads: usize) -> f64 {
    let mut mem: NativeMem<CellPayload<CounterSpec>> = NativeMem::new();
    let obj = Universal::builder(threads).build(&mut mem, CounterSpec::new());
    crate::e8_throughput::throughput(threads, OPS_PER_CLIENT, obj, mem)
}

/// The E12 table and its `BENCH_e12.json` document (schema in
/// EXPERIMENTS.md); the last column compares each cell with `baseline`.
pub fn tables(rows: &[E12Row], baseline: f64) -> (String, Json) {
    let fields: [Field<(&E12Row, f64)>; 7] = [
        ("clients", "clients", |&(r, _)| Cell::int(r.clients as u64)),
        ("shards", "shards", |&(r, _)| Cell::int(r.shards as u64)),
        ("workers", "workers", |&(r, _)| Cell::int(r.workers as u64)),
        ("skew", "skew", |&(r, _)| Cell::text(r.skew)),
        ("ops_per_sec", "ops/sec", |&(r, _)| {
            Cell::num(r.ops_per_sec, 0)
        }),
        ("imbalance", "imbalance", |&(r, _)| {
            Cell::num(r.imbalance, 2)
        }),
        ("", "vs 1-object@8T", |&(r, base)| {
            Cell::num(r.ops_per_sec / base, 2).suffix("×")
        }),
    ];
    let rows: Vec<_> = rows.iter().map(|r| (r, baseline)).collect();
    tabulate(
        "E12  sharded object-space throughput (closed loop, 75/25 inc/read over 1024 keys)",
        &fields,
        &rows,
        vec![
            ("experiment", Json::Str("e12".into())),
            ("object", Json::Str("counter".into())),
            ("unit", Json::Str("ops_per_sec".into())),
            ("ops_per_client", Json::Num(OPS_PER_CLIENT as f64)),
            ("mode", Json::Str("closed".into())),
            ("baseline_single_universal_8t", Json::Num(baseline)),
        ],
    )
}

/// Run the full experiment, write `BENCH_e12.json` (+ `OBS_e12.json` under
/// `obs`), and check the headline acceptance claim: at 8 clients, some
/// ≥4-shard cell reaches 4× the single-object ceiling. A miss (the claim
/// needs multi-core hardware) ends the report with a WARNING.
pub fn run() -> String {
    let mut metrics = Snapshot::default();
    let rows = sweep(&CLIENTS, 0xE12, true, &mut metrics);
    let baseline = single_universal_baseline(8);

    let (mut report, doc) = tables(&rows, baseline);
    report.push_str(&format!(
        "single-object bounded_fast reference @8T: {baseline:.0} ops/sec\n"
    ));
    report.push_str(&metrics.render_table("E12  service instruments (all cells)"));
    report.push_str(&write_bench("e12", &doc));
    report.push_str(&write_obs_artifact("e12", &metrics));

    let best_sharded = rows
        .iter()
        .filter(|r| r.clients == 8 && r.shards >= 4)
        .map(|r| r.ops_per_sec)
        .fold(0.0f64, f64::max);
    report.push_str(&format!(
        "acceptance: best ≥4-shard cell @8 clients {best_sharded:.0} ops/sec = {:.2}× single-object ceiling (need ≥ 4×)\n",
        best_sharded / baseline
    ));
    if best_sharded < 4.0 * baseline {
        report.push_str("WARNING: acceptance ratio not met on this machine\n");
    }
    report
}

/// The CI smoke: 1 shard vs 4 shards at 4 clients. Both cells must
/// complete every request, and `OBS_e12.json` must carry a non-zero
/// `service.route` when obs is compiled in. The 4-shard cell must also at
/// least match the single shard (best of [`crate::BEST_OF`]) — but only on
/// a machine with a core per 4-shard worker; with fewer cores that
/// comparison measures the scheduler, so the smoke prints a SKIP line
/// instead. `Err` carries the report on failure.
pub fn run_smoke() -> Result<String, String> {
    let mut metrics = Snapshot::default();
    let mut failures = 0;
    let workers = cell_config(4, 4, Skew::Uniform, 0xE12, true).workers;
    let mut cell = |shards| {
        let config = cell_config(4, shards, Skew::Uniform, 0xE12, true);
        let report = loadgen::run(&config, CounterSpec::new(), counter_mix);
        metrics.merge(&report.metrics);
        failures += report.failures;
        report.ops_per_sec
    };
    let one = cell(1);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let gated = cores >= workers;
    let (four, taken) = best_of(|| cell(4), |b, x| *b = b.max(x), |&x| !gated || x >= one);
    let mut report = format!(
        "E12 smoke @4 clients: 1 shard {one:.0} ops/sec, 4 shards {four:.0} ops/sec \
         (best of {taken}, {:.2}×), {failures} failed requests\n",
        four / one
    );
    if !gated {
        report.push_str(&format!("SKIP: {cores} cores < {workers} workers\n"));
    }
    report.push_str(&write_obs_artifact("e12", &metrics));

    if cfg!(feature = "obs") && metrics.counter("service.route") == 0 {
        return Err(report + "FAIL: service.route recorded nothing\n");
    }
    if failures != 0 {
        return Err(report + "FAIL: a smoke cell failed requests\n");
    }
    if gated && four < one {
        return Err(report + "FAIL: 4-shard throughput below single shard at 4 clients\n");
    }
    Ok(report)
}

/// A fully deterministic run: single client, single worker, timing off.
/// Returns the `(BENCH_e12, OBS_e12)` document texts without writing any
/// file — the determinism test pins that these are byte-identical across
/// invocations for the same seed.
pub fn deterministic_docs(seed: u64) -> (String, String) {
    let mut metrics = Snapshot::default();
    let rows = sweep(&[1], seed, false, &mut metrics);
    let bench = tables(&rows, 0.0).1.render();
    (bench, obs_doc("e12", &metrics).render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_docs_are_byte_identical_for_a_seed() {
        let (bench_a, obs_a) = deterministic_docs(7);
        let (bench_b, obs_b) = deterministic_docs(7);
        assert_eq!(bench_a, bench_b);
        assert_eq!(obs_a, obs_b);
        // Timing fields are zeroed, so this holds across machines too.
        assert!(bench_a.contains("\"ops_per_sec\": 0"));
        // A different seed routes a different key stream.
        let (bench_c, _) = deterministic_docs(8);
        assert_ne!(bench_a, bench_c);
    }

    #[test]
    fn document_keys_match_the_checked_in_benchmark() {
        let rows = [E12Row {
            clients: 8,
            shards: 4,
            workers: 2,
            skew: "uniform",
            ops_per_sec: 123.0,
            imbalance: 1.5,
        }];
        let doc = crate::assert_schema("BENCH_e12.json", &tables(&rows, 456.0).1);
        for needle in [
            "\"experiment\": \"e12\"",
            "\"clients\": 8",
            "\"shards\": 4",
            "\"workers\": 2",
            "\"skew\": \"uniform\"",
            "\"baseline_single_universal_8t\": 456",
        ] {
            assert!(doc.contains(needle), "missing {needle} in {doc}");
        }
    }
}
