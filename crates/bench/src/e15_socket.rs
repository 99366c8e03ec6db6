//! E15 — the transport tax: in-process vs Unix socket vs TCP loopback.
//!
//! The `Transport` seam (ISSUE 10) lets the same service run over
//! in-process mailboxes or a real kernel socket without changing a line
//! above the byte plane. E15 measures what crossing the kernel costs: the
//! identical closed-loop counter workload at matched shard/worker/client
//! counts over all three transports, reporting throughput plus the
//! **syscall tax** — `service.read_syscall` per acked op, the number of
//! `read(2)` calls the server spent assembling each request's frames
//! (partial reads surface separately as `service.partial_frame`).
//!
//! A fourth leg repeats the Unix cell under the full lossy byte-level
//! profile ([`FaultProfile::lossy`]) to pin the reliability claim on a
//! real wire: retransmission plus `(client, seq)` dedup keeps acked ops
//! exactly-once (per-shard applied totals sum to the acked count) even
//! when frames are dropped, duplicated, reordered, and corrupted between
//! two kernel endpoints.
//!
//! Artifacts: `BENCH_e15.json` and, under `obs`, `OBS_e15.json` (the Unix
//! leg's instruments; schemas in EXPERIMENTS.md). `run_smoke` is the CI
//! arm — a small Unix-socket cell that must show live `service.accept`
//! activity and hold exactly-once.

use crate::{obs_figure, tabulate, write_bench, write_obs_artifact, Cell, Field};
use sbu_obs::json::Json;
use sbu_service::loadgen::{self, LoadgenConfig};
use sbu_service::{FaultProfile, TransportConfig};
use sbu_spec::specs::{CounterOp, CounterSpec};
use std::sync::atomic::{AtomicU64, Ordering};

/// Requests each client issues per leg.
pub const OPS_PER_CLIENT: usize = 2_000;

/// Closed-loop clients per leg (also the expected `service.accept` count
/// on the socket legs: one connection per client).
pub const CLIENTS: usize = 4;

/// One transport leg's measurements.
#[derive(Debug, Clone)]
pub struct E15Row {
    /// Transport label: `in-process`, `unix`, `tcp`, or `unix+lossy`.
    pub transport: String,
    /// Requests issued.
    pub ops: u64,
    /// Requests acknowledged with a response.
    pub acked: u64,
    /// Requests that ended in a typed error.
    pub failures: u64,
    /// Acked requests per second.
    pub ops_per_sec: f64,
    /// Connections the acceptor admitted (`service.accept`; 0 in-process
    /// and without the obs feature).
    pub accepts: u64,
    /// Connections dropped server-side (`service.conn_drop`).
    pub conn_drops: u64,
    /// `read(2)` calls the server's readers issued (`service.read_syscall`).
    pub read_syscalls: u64,
    /// Reads that ended mid-frame (`service.partial_frame`).
    pub partial_frames: u64,
    /// Client retransmissions (`service.retry`).
    pub retries: u64,
    /// `read_syscalls / acked` — kernel reads per acked request.
    pub syscall_tax: f64,
    /// Whether per-shard applied totals sum to exactly `acked` with zero
    /// failures — the exactly-once evidence.
    pub exact: bool,
}

/// A scratch Unix-socket path unique within the process.
fn scratch_socket(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "sbu-e15-{tag}-{}-{}.sock",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Whether this environment permits TCP loopback sockets (sandboxes may
/// not); the TCP leg is skipped with a note when it does not.
pub fn tcp_available() -> bool {
    std::net::TcpListener::bind("127.0.0.1:0").is_ok()
}

fn leg_config(transport: TransportConfig, fault: Option<FaultProfile>) -> LoadgenConfig {
    LoadgenConfig {
        clients: CLIENTS,
        shards: 4,
        workers: 2,
        ops_per_client: OPS_PER_CLIENT,
        keys: 256,
        transport,
        seed: 0xE15,
        fault,
        ..Default::default()
    }
}

/// Run one leg (removing its socket file after), returning its row and
/// its instruments.
fn run_leg(label: &str, config: LoadgenConfig) -> (E15Row, sbu_obs::Snapshot) {
    let report = loadgen::run(&config, CounterSpec::new(), |_| CounterOp::Inc);
    if let TransportConfig::Unix(path) = &config.transport {
        let _ = std::fs::remove_file(path);
    }
    let read_syscalls = report.metrics.counter("service.read_syscall");
    let applied: u64 = report.shards.iter().map(|s| s.ops).sum();
    let row = E15Row {
        transport: label.into(),
        ops: report.ops,
        acked: report.acked,
        failures: report.failures,
        ops_per_sec: report.ops_per_sec,
        accepts: report.metrics.counter("service.accept"),
        conn_drops: report.metrics.counter("service.conn_drop"),
        read_syscalls,
        partial_frames: report.metrics.counter("service.partial_frame"),
        retries: report.metrics.counter("service.retry"),
        syscall_tax: if report.acked == 0 {
            0.0
        } else {
            read_syscalls as f64 / report.acked as f64
        },
        exact: report.failures == 0 && applied == report.acked,
    };
    (row, report.metrics)
}

/// Run every leg; `metrics` receives the honest Unix leg's instruments
/// (the `OBS_e15.json` payload). The TCP leg is omitted (with a note in
/// the report, handled by the caller) when loopback TCP is unavailable.
pub fn measure(metrics: &mut sbu_obs::Snapshot) -> Vec<E15Row> {
    let (in_process, _) = run_leg("in-process", leg_config(TransportConfig::InProcess, None));
    let unix_leg = leg_config(TransportConfig::Unix(scratch_socket("bench")), None);
    let (unix, unix_metrics) = run_leg("unix", unix_leg);
    metrics.merge(&unix_metrics);
    let mut rows = vec![in_process, unix];
    if tcp_available() {
        let tcp = TransportConfig::Tcp("127.0.0.1:0".into());
        rows.push(run_leg("tcp", leg_config(tcp, None)).0);
    }
    let lossy = TransportConfig::Unix(scratch_socket("lossy"));
    rows.push(run_leg("unix+lossy", leg_config(lossy, Some(FaultProfile::lossy()))).0);
    rows
}

const FIELDS: &[Field<E15Row>] = &[
    ("transport", "transport", |r| {
        Cell::text(r.transport.clone())
    }),
    ("ops", "", |r| Cell::int(r.ops)),
    ("acked", "acked", |r| Cell::int(r.acked)),
    ("ops_per_sec", "ops/sec", |r| Cell::num(r.ops_per_sec, 0)),
    ("accepts", "accepts", |r| Cell::int(r.accepts).obs()),
    ("conn_drops", "", |r| Cell::int(r.conn_drops)),
    ("read_syscalls", "reads", |r| {
        Cell::int(r.read_syscalls).obs()
    }),
    ("syscall_tax", "reads/op", |r| {
        Cell::num(r.syscall_tax, 2).obs()
    }),
    ("partial_frames", "partial", |r| {
        Cell::int(r.partial_frames).obs()
    }),
    ("retries", "retries", |r| Cell::int(r.retries).obs()),
    ("failures", "fail", |r| Cell::int(r.failures)),
    ("exact", "exact", |r| Cell::yes(r.exact)),
];

/// The E15 table and its `BENCH_e15.json` document (schema in
/// EXPERIMENTS.md).
pub fn tables(rows: &[E15Row]) -> (String, Json) {
    tabulate(
        "E15  transport tax: matched closed-loop counter over each byte plane (release build recommended)",
        FIELDS,
        rows,
        vec![
            ("experiment", Json::Str("e15".into())),
            ("object", Json::Str("counter".into())),
            ("unit", Json::Str("ops_per_sec".into())),
            ("ops_per_client", Json::Num(OPS_PER_CLIENT as f64)),
            ("clients", Json::Num(CLIENTS as f64)),
            ("mode", Json::Str("closed".into())),
        ],
    )
}

/// Run the sweep, write `BENCH_e15.json` (+ `OBS_e15.json` under `obs`),
/// and check the acceptance claims: every leg exactly-once, and — under
/// obs — the socket legs saw one accept per client and real `read(2)`
/// traffic while the in-process leg saw none. A miss ends the report with
/// a WARNING.
pub fn run() -> String {
    let mut metrics = sbu_obs::Snapshot::default();
    let rows = measure(&mut metrics);

    let (mut report, doc) = tables(&rows);
    if !tcp_available() {
        report.push_str("note: TCP loopback unavailable in this environment; tcp leg skipped\n");
    }
    report.push_str(&metrics.render_table("E15  service instruments (honest unix leg)"));
    report.push_str(&write_bench("e15", &doc));
    report.push_str(&write_obs_artifact("e15", &metrics));

    let mut fails = Vec::new();
    for r in &rows {
        if !r.exact {
            fails.push(format!("FAIL: {} leg not exactly-once\n", r.transport));
        }
        let socket = r.transport != "in-process";
        if cfg!(feature = "obs") && socket && (r.accepts < CLIENTS as u64 || r.read_syscalls == 0) {
            fails.push(format!(
                "FAIL: {} leg shows no live socket traffic ({} accepts, {} reads)\n",
                r.transport, r.accepts, r.read_syscalls
            ));
        }
        if cfg!(feature = "obs") && !socket && r.read_syscalls != 0 {
            fails.push("FAIL: in-process leg recorded read syscalls\n".into());
        }
    }
    report.push_str(&fails.concat());
    let tax: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{} {}",
                r.transport,
                obs_figure(format!("{:.2}", r.syscall_tax))
            )
        })
        .collect();
    report.push_str(&format!(
        "acceptance: {}/{} legs exactly-once; reads per acked op: {}\n",
        rows.iter().filter(|r| r.exact).count(),
        rows.len(),
        tax.join(", ")
    ));
    if !fails.is_empty() {
        report.push_str("WARNING: acceptance check failed on this machine\n");
    }
    report
}

/// The CI smoke: one small cell over a real Unix-domain socket under the
/// full lossy profile. Must hold exactly-once, and — under obs — show a
/// live accept per client plus retransmissions actually doing work.
/// Writes `OBS_e15.json` under obs. `Err` carries the report on failure.
pub fn run_smoke() -> Result<String, String> {
    let path = scratch_socket("smoke");
    let config = LoadgenConfig {
        clients: 2,
        keys: 64,
        ops_per_client: 200,
        ..leg_config(TransportConfig::Unix(path), Some(FaultProfile::lossy()))
    };
    let (row, metrics) = run_leg("unix+lossy", config);
    let mut out = format!(
        "E15 smoke @2 clients over unix socket, full lossy profile: {} acked, \
         {} failures, accepts {}, reads {}, retries {}, exact={}\n",
        row.acked,
        row.failures,
        obs_figure(row.accepts.to_string()),
        obs_figure(format!("{} ({:.2}/op)", row.read_syscalls, row.syscall_tax)),
        obs_figure(row.retries.to_string()),
        row.exact
    );
    out.push_str(&write_obs_artifact("e15", &metrics));
    if !row.exact {
        return Err(out + "FAIL: lossy socket smoke lost or double-applied an acked op\n");
    }
    if cfg!(feature = "obs") {
        if row.accepts < 2 {
            return Err(out + "FAIL: service.accept shows no live socket connections\n");
        }
        if row.read_syscalls == 0 {
            return Err(out + "FAIL: service.read_syscall recorded nothing\n");
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> E15Row {
        E15Row {
            transport: "unix".into(),
            ops: 8000,
            acked: 8000,
            failures: 0,
            ops_per_sec: 123_456.0,
            accepts: 4,
            conn_drops: 0,
            read_syscalls: 9000,
            partial_frames: 12,
            retries: 0,
            syscall_tax: 1.125,
            exact: true,
        }
    }

    #[test]
    fn document_keys_match_the_checked_in_benchmark() {
        let json = tables(&[row()]).1;
        let doc = crate::assert_schema("BENCH_e15.json", &json);
        for needle in [
            "\"experiment\": \"e15\"",
            "\"transport\": \"unix\"",
            "\"accepts\": 4",
            "\"read_syscalls\": 9000",
            "\"syscall_tax\": 1.125",
            "\"partial_frames\": 12",
            "\"exact\": true",
        ] {
            assert!(doc.contains(needle), "missing {needle} in {doc}");
        }
        assert_eq!(Json::parse(&doc).unwrap(), json);
    }

    #[test]
    fn obs_sourced_cells_say_so_when_obs_is_compiled_out() {
        let (table, doc) = tables(&[row()]);
        let row_line = table.lines().last().expect("one data row");
        assert_eq!(
            row_line.contains(crate::OBS_OFF),
            !sbu_obs::enabled(),
            "{table}"
        );
        assert!(row_line.contains("123456"), "{table}");
        // The document keeps the number either way.
        assert!(doc.render().contains("\"accepts\": 4"));
    }

    #[test]
    fn smoke_cell_holds_exactly_once_over_a_real_socket() {
        let report = run_smoke().expect("lossy unix smoke");
        assert!(report.contains("exact=true"), "{report}");
        let _ = std::fs::remove_file("OBS_e15.json");
    }
}
