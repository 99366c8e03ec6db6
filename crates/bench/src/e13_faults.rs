//! E13 — goodput and retry amplification vs drop rate (the fault plane).
//!
//! E12 measured the sharded service on a perfect wire. E13 measures what
//! the reliability layer costs when the wire is not perfect: a closed-loop
//! increment-only counter workload under a seeded [`FaultProfile`] whose
//! drop rate sweeps 0% → 20% while duplication and reordering stay fixed
//! at 5% each. Two numbers per cell:
//!
//! * **goodput** — acked requests per second (every ack is an applied op,
//!   so this is useful work, not wire traffic);
//! * **retry amplification** — `(acks + retransmissions) / acks`, the
//!   price of those acks in transmitted attempts.
//!
//! Every cell also proves the exactly-once invariant from the report
//! alone: with zero failures, the per-shard applied-op totals must sum to
//! exactly the issued request count — a drop never loses an acked op and
//! a duplicate never double-applies one.
//!
//! Failure accounting maps onto the stress exit-code contract
//! ([`sbu_stress::ExitStatus`]): a failure set that is entirely typed
//! `Busy`/`Unavailable` outcomes is *capacity* (exit 5), not a violation —
//! see [`exit_class`]. Artifacts: `BENCH_e13.json` and, under `obs`,
//! `OBS_e13.json` (schemas in EXPERIMENTS.md).

use crate::{render_table, write_obs_artifact};
use sbu_obs::json::Json;
use sbu_obs::Snapshot;
use sbu_service::loadgen::{self, LoadgenConfig, LoadgenReport, LoopMode, Skew};
use sbu_service::FaultProfile;
use sbu_spec::specs::{CounterOp, CounterSpec};
use sbu_stress::ExitStatus;

/// Requests each client issues per cell.
pub const OPS_PER_CLIENT: usize = 400;

/// Closed-loop clients per cell.
pub const CLIENTS: usize = 4;

/// Drop rates swept, in percent.
pub const DROP_PCT: [u64; 4] = [0, 5, 10, 20];

/// One cell of the sweep.
#[derive(Debug, Clone)]
pub struct E13Row {
    /// Injected drop probability, percent.
    pub drop_pct: u64,
    /// Closed-loop clients in this cell.
    pub clients: usize,
    /// Requests issued (= acked when `failures == 0`).
    pub ops: u64,
    /// Requests that ended in a typed error instead of a response.
    pub failures: u64,
    /// Capacity-class subsets of `failures` (Busy / Unavailable).
    pub busy: u64,
    /// See `busy`.
    pub unavailable: u64,
    /// Client retransmissions (`service.retry`; 0 without the obs feature).
    pub retries: u64,
    /// Frames the fault shim dropped (`service.inject.drop`; 0 without obs).
    pub drops_injected: u64,
    /// `(ops + retries) / ops` — transmitted attempts per acked request.
    pub amplification: f64,
    /// Acked requests per second (0 with timing off).
    pub goodput: f64,
    /// Ops each shard applied — the exactly-once evidence in the artifact
    /// itself: these must sum to `ops`. Also seed-dependent (hash routing
    /// of the sampled keys), which is what the determinism test leans on.
    pub shard_ops: Vec<u64>,
    /// Whether the per-shard applied totals sum to exactly `ops`
    /// (the exactly-once invariant; only checkable when `failures == 0`).
    pub exact: bool,
    /// The stress exit class this cell maps to (see [`exit_class`]).
    pub exit: ExitStatus,
}

/// The swept profile: drop varies, duplication and reordering are pinned
/// at 5% so the dedup window is always exercised, corruption and delay
/// stay off (they are covered by the scenario matrix and E13's smoke arm).
pub fn profile(drop_pct: u64) -> FaultProfile {
    FaultProfile {
        drop: drop_pct as f64 / 100.0,
        duplicate: 0.05,
        reorder: 0.05,
        corrupt: 0.0,
        delay: 0.0,
        disconnect: 0.0,
        lie: 0.0,
    }
}

/// Map a load-generator outcome onto the stress exit-code contract: no
/// failures is [`ExitStatus::Clean`]; a failure set that is *entirely*
/// typed `Busy`/`Unavailable` outcomes is [`ExitStatus::Capacity`] (shed
/// load — exit 5, never conflated with a verdict); anything else
/// (deadline exhaustion) means ops went unverified.
pub fn exit_class(report: &LoadgenReport) -> ExitStatus {
    if report.failures == 0 {
        ExitStatus::Clean
    } else if report.busy_failures + report.unavailable_failures == report.failures {
        ExitStatus::Capacity
    } else {
        ExitStatus::Unverified
    }
}

fn cell_config(
    drop_pct: u64,
    clients: usize,
    ops: usize,
    seed: u64,
    timing: bool,
) -> LoadgenConfig {
    LoadgenConfig {
        clients,
        shards: 4,
        workers: 2.min(clients),
        ops_per_client: ops,
        keys: 256,
        skew: Skew::Uniform,
        mode: LoopMode::Closed,
        transport: sbu_service::TransportConfig::InProcess,
        seed,
        timing,
        fault: Some(profile(drop_pct)),
    }
}

fn row_from(drop_pct: u64, clients: usize, report: &LoadgenReport) -> E13Row {
    let retries = report.metrics.counter("service.retry");
    let applied: u64 = report.shards.iter().map(|s| s.ops).sum();
    E13Row {
        drop_pct,
        clients,
        ops: report.ops,
        failures: report.failures,
        busy: report.busy_failures,
        unavailable: report.unavailable_failures,
        retries,
        drops_injected: report.metrics.counter("service.inject.drop"),
        amplification: (report.ops + retries) as f64 / report.ops as f64,
        goodput: report.ops_per_sec,
        shard_ops: report.shards.iter().map(|s| s.ops).collect(),
        exact: report.failures == 0 && applied == report.ops,
        exit: exit_class(report),
    }
}

/// Run the full sweep; `metrics` accumulates every cell's instruments.
pub fn measure(metrics: &mut Snapshot) -> Vec<E13Row> {
    DROP_PCT
        .iter()
        .map(|&drop_pct| {
            let config = cell_config(drop_pct, CLIENTS, OPS_PER_CLIENT, 0xE13, true);
            let report = loadgen::run(&config, CounterSpec::new(), |_| CounterOp::Inc);
            metrics.merge(&report.metrics);
            row_from(drop_pct, CLIENTS, &report)
        })
        .collect()
}

/// The `BENCH_e13.json` document (schema in EXPERIMENTS.md).
pub fn to_json(rows: &[E13Row], ops_per_client: usize) -> Json {
    Json::obj(vec![
        ("experiment", Json::Str("e13".into())),
        ("object", Json::Str("counter".into())),
        ("unit", Json::Str("ops_per_sec".into())),
        ("ops_per_client", Json::Num(ops_per_client as f64)),
        ("mode", Json::Str("closed".into())),
        ("duplicate", Json::Num(0.05)),
        ("reorder", Json::Num(0.05)),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("drop_pct", Json::Num(r.drop_pct as f64)),
                            ("clients", Json::Num(r.clients as f64)),
                            ("ops", Json::Num(r.ops as f64)),
                            ("failures", Json::Num(r.failures as f64)),
                            ("busy", Json::Num(r.busy as f64)),
                            ("unavailable", Json::Num(r.unavailable as f64)),
                            ("retries", Json::Num(r.retries as f64)),
                            ("drops_injected", Json::Num(r.drops_injected as f64)),
                            ("amplification", Json::Num(r.amplification)),
                            ("goodput", Json::Num(r.goodput)),
                            (
                                "shard_ops",
                                Json::Arr(
                                    r.shard_ops.iter().map(|&o| Json::Num(o as f64)).collect(),
                                ),
                            ),
                            ("exact", Json::Bool(r.exact)),
                            ("exit", Json::Str(format!("{:?}", r.exit).to_lowercase())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn render(rows: &[E13Row]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}%", r.drop_pct),
                r.ops.to_string(),
                format!("{:.0}", r.goodput),
                r.retries.to_string(),
                r.drops_injected.to_string(),
                format!("{:.3}×", r.amplification),
                r.failures.to_string(),
                if r.exact { "yes".into() } else { "NO".into() },
                format!("{:?}", r.exit).to_lowercase(),
            ]
        })
        .collect();
    render_table(
        "E13  goodput and retry amplification vs drop rate (closed loop, inc-only, dup/reorder 5%)",
        &[
            "drop", "ops", "goodput", "retries", "dropped", "amplif", "fail", "exact", "exit",
        ],
        &table_rows,
    )
}

/// Run the sweep, write `BENCH_e13.json` (+ `OBS_e13.json` under `obs`),
/// and verify the acceptance claims: every cell is exactly-once with zero
/// failures, and under obs the 20% cell actually dropped frames and
/// amplified more than the 0% cell. `Err` carries the report on failure.
pub fn run_checked() -> Result<String, String> {
    let mut metrics = Snapshot::default();
    let rows = measure(&mut metrics);

    let json = to_json(&rows, OPS_PER_CLIENT).render();
    let mut report = render(&rows);
    report.push_str(&metrics.render_table("E13  service instruments (all cells)"));
    match std::fs::write("BENCH_e13.json", &json) {
        Ok(()) => report.push_str("wrote BENCH_e13.json\n"),
        Err(e) => report.push_str(&format!("could not write BENCH_e13.json: {e}\n")),
    }
    report.push_str(&write_obs_artifact("e13", &metrics));

    let mut ok = true;
    for r in &rows {
        if !r.exact || r.exit != ExitStatus::Clean {
            ok = false;
            report.push_str(&format!(
                "FAIL: {}% drop cell not exactly-once clean ({} failures, exit {:?})\n",
                r.drop_pct, r.failures, r.exit
            ));
        }
    }
    if cfg!(feature = "obs") {
        let (zero, worst) = (&rows[0], rows.last().unwrap());
        if worst.drops_injected == 0 {
            ok = false;
            report.push_str("FAIL: the 20% drop cell injected no drops\n");
        }
        if worst.amplification <= zero.amplification {
            ok = false;
            report.push_str(&format!(
                "FAIL: amplification must grow with the drop rate ({:.3} at 0% vs {:.3} at 20%)\n",
                zero.amplification, worst.amplification
            ));
        }
    }
    report.push_str(&format!(
        "acceptance: {} cells exactly-once clean; amplification 0%→20%: {:.3}× → {:.3}×\n",
        rows.iter().filter(|r| r.exact).count(),
        rows[0].amplification,
        rows.last().unwrap().amplification
    ));
    if ok {
        Ok(report)
    } else {
        Err(report)
    }
}

/// Run the experiment without failing the process on the acceptance check
/// (interactive `exp e13`).
pub fn run() -> String {
    match run_checked() {
        Ok(report) => report,
        Err(report) => report + "WARNING: acceptance check failed on this machine\n",
    }
}

/// The CI smoke: one cell under the full honest lossy profile
/// ([`FaultProfile::lossy`]: 10% drop/dup/reorder/corrupt, 5% delay),
/// asserting zero lost acked ops and — under obs — that drops actually
/// fired and were retransmitted. `Err` carries the report on failure.
pub fn run_smoke() -> Result<String, String> {
    let config = LoadgenConfig {
        clients: 2,
        shards: 2,
        workers: 2,
        ops_per_client: 200,
        keys: 64,
        seed: 0xE13,
        fault: Some(FaultProfile::lossy()),
        ..Default::default()
    };
    let report = loadgen::run(&config, CounterSpec::new(), |_| CounterOp::Inc);
    let row = row_from(10, config.clients, &report);
    let mut out = format!(
        "E13 smoke @2 clients, full lossy profile: {} ops, {} failures, \
         {} retries, {:.3}× amplification, exact={}\n",
        row.ops, row.failures, row.retries, row.amplification, row.exact
    );
    out.push_str(&write_obs_artifact("e13", &report.metrics));
    if !row.exact || row.exit != ExitStatus::Clean {
        return Err(out + "FAIL: lossy smoke lost or double-applied an acked op\n");
    }
    if cfg!(feature = "obs") {
        if row.drops_injected == 0 {
            return Err(out + "FAIL: service.inject.drop recorded nothing\n");
        }
        if row.retries == 0 {
            return Err(out + "FAIL: drops did not force retransmissions\n");
        }
    }
    Ok(out)
}

/// Requests per client in the deterministic (artifact-pinning) cells:
/// smaller than the sweep so the calmer timing-off retransmit timer (see
/// `loadgen`) keeps the total wall time flat.
pub const DETERMINISTIC_OPS: usize = 100;

/// A fully deterministic run: single client, single worker, timing off.
/// Returns the `(BENCH_e13, OBS_e13)` document texts without writing any
/// file — the determinism test pins that these are byte-identical across
/// invocations for the same seed (the fault shim, retransmission points,
/// and dedup hits are all pure functions of the seed at one client).
pub fn deterministic_docs(seed: u64) -> (String, String) {
    let mut metrics = Snapshot::default();
    let rows: Vec<E13Row> = DROP_PCT
        .iter()
        .map(|&drop_pct| {
            let config = cell_config(drop_pct, 1, DETERMINISTIC_OPS, seed, false);
            let report = loadgen::run(&config, CounterSpec::new(), |_| CounterOp::Inc);
            metrics.merge(&report.metrics);
            row_from(drop_pct, 1, &report)
        })
        .collect();
    let bench = to_json(&rows, DETERMINISTIC_OPS).render();
    // Mailbox depth is sampled at drain time, so it observes thread
    // interleaving — whether the worker wakes before or after a duplicated
    // frame lands — not the seed. It stays out of the byte-identical doc.
    metrics
        .histograms
        .retain(|(name, _)| name != "service.queue_depth");
    let obs = Json::obj(vec![
        ("experiment", Json::Str("e13".into())),
        ("metrics", metrics.to_json()),
    ])
    .render();
    (bench, obs)
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
        assert!(bench_a.contains("\"goodput\": 0"));
        // Every deterministic cell is still exactly-once.
        assert!(!bench_a.contains("\"exact\": false"));
        let (bench_c, _) = deterministic_docs(8);
        assert_ne!(bench_a, bench_c);
    }

    #[test]
    fn exit_class_separates_capacity_from_the_rest() {
        let mut report = LoadgenReport {
            ops: 10,
            acked: 10,
            failures: 0,
            busy_failures: 0,
            unavailable_failures: 0,
            elapsed_secs: 0.0,
            ops_per_sec: 0.0,
            shards: Vec::new(),
            imbalance: 0.0,
            metrics: Snapshot::default(),
        };
        assert_eq!(exit_class(&report), ExitStatus::Clean);
        report.failures = 3;
        report.busy_failures = 2;
        report.unavailable_failures = 1;
        assert_eq!(exit_class(&report), ExitStatus::Capacity);
        assert_eq!(exit_class(&report).code(), 5);
        report.unavailable_failures = 0; // one deadline failure remains
        assert_eq!(exit_class(&report), ExitStatus::Unverified);
    }

    #[test]
    fn json_schema_carries_every_axis() {
        let rows = vec![E13Row {
            drop_pct: 20,
            clients: 4,
            ops: 1600,
            failures: 0,
            busy: 0,
            unavailable: 0,
            retries: 420,
            drops_injected: 390,
            amplification: 1.2625,
            goodput: 1234.0,
            shard_ops: vec![400, 400, 400, 400],
            exact: true,
            exit: ExitStatus::Clean,
        }];
        let doc = to_json(&rows, OPS_PER_CLIENT).render();
        for needle in [
            "\"experiment\": \"e13\"",
            "\"drop_pct\": 20",
            "\"retries\": 420",
            "\"amplification\": 1.2625",
            "\"shard_ops\"",
            "\"exact\": true",
            "\"exit\": \"clean\"",
        ] {
            assert!(doc.contains(needle), "missing {needle} in {doc}");
        }
    }
}
