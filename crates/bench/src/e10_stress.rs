//! E10 — monitored torture throughput: native Figure 2 vs lock-based.
//!
//! Unlike E8's raw loops, both columns here run under the `sbu-stress`
//! harness with the online linearizability monitor live — every quiescent
//! window of the recorded history is checked while the workers run, so each
//! number is a *verified* ops/sec figure. The native column drives the
//! Figure 2 sticky byte (`JamWord`, helping protocol, wait-free); the
//! baseline wraps the same sequential `JamWordSpec` in the spin-lock
//! strawman (`SpinLockUniversal`, blocking). The paper's trade is progress
//! guarantees, not raw speed; on a single core the lock often wins — the
//! point is that the wait-free object stays correct and live under the same
//! torture where a lock holder can stall everyone.

use crate::{render_table, write_obs_artifact};
use sbu_core::bounded::UniversalConfig;
use sbu_obs::json::Json;
use sbu_stress::{
    run_jam_backoff, run_lock_based_jam, run_workload, Inject, Options, StressConfig, Workload,
};

/// Candidate-switch backoff cap for the tuned arm. A failed bit jam spins
/// locally up to this many rounds before rescanning candidates; the shared
/// step sequence is untouched, so the monitor verdicts are identical. Picked
/// by sweeping {2, 6, 16} at 4–8 threads on the reference box.
const TUNED_BACKOFF_LIMIT: u32 = 6;

/// Backoff caps re-swept in the batched (group-commit) configuration. Group
/// commit changes who contends on the sticky words — combiners jam whole
/// blocks while non-combiners mostly wait on `resp_claim` — so the E10 cap
/// tuned for per-command traffic has to be re-validated rather than assumed.
const BATCHED_BACKOFF_SWEEP: [u32; 3] = [2, 6, 16];

/// Production backoff cap for the batched configuration, picked by the
/// E10 batched-arm sweep at 4–8 threads on the reference box (see
/// EXPERIMENTS.md §E10). The per-command cap carried over: combiner jam
/// traffic saturates at the same modest cap, and larger caps only delay
/// the candidate rescan that lets a stalled combiner's block get helped.
pub const BATCHED_BACKOFF_LIMIT: u32 = 6;

/// Batch cap used for the batched-configuration backoff sweep — the
/// service plane's drain cap shape (max-size blocks, see E14).
const BATCHED_SWEEP_CAP: usize = 8;

/// Run the experiment, write `BENCH_e10.json`, and return the report.
pub fn run() -> String {
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut last_native_metrics = sbu_obs::Snapshot::default();
    for &threads in &[1usize, 2, 4, 8] {
        // Each sweep point is expressed as stress-CLI flags and parsed by
        // the same `Options::parse` the stress example uses, so E10 can
        // never drift from the driver's flag semantics or defaults.
        let opts = Options::parse([
            "--threads".to_string(),
            threads.to_string(),
            "--ops".to_string(),
            "4000".to_string(),
            "--seed".to_string(),
            0xE10u64.to_string(),
        ])
        .expect("E10's own flag list parses");
        let mut cfg = StressConfig::new(
            opts.threads,
            opts.total_ops.div_ceil(opts.threads),
            opts.seed,
        );
        cfg.objects = opts.objects;

        let native = run_workload(Workload::Jam, &cfg, Inject::None);
        native.assert_clean();
        let tuned = run_jam_backoff(&cfg, TUNED_BACKOFF_LIMIT);
        tuned.assert_clean();
        let lock = run_lock_based_jam(&cfg);
        lock.assert_clean();
        last_native_metrics = native.metrics.clone();

        rows.push(vec![
            threads.to_string(),
            format!("{:.0}", native.ops_per_sec()),
            format!("{:.0}", tuned.ops_per_sec()),
            format!("{:.0}", lock.ops_per_sec()),
            format!("{:.2}x", tuned.ops_per_sec() / lock.ops_per_sec()),
            native.windows_checked.to_string(),
            lock.windows_checked.to_string(),
        ]);
        json_rows.push(Json::obj(vec![
            ("threads", Json::Num(threads as f64)),
            ("native_jam", Json::Num(native.ops_per_sec())),
            ("native_jam_tuned", Json::Num(tuned.ops_per_sec())),
            (
                "tuned_backoff_limit",
                Json::Num(f64::from(TUNED_BACKOFF_LIMIT)),
            ),
            ("spin_lock_jam", Json::Num(lock.ops_per_sec())),
            ("windows_native", Json::Num(native.windows_checked as f64)),
            ("windows_lock", Json::Num(lock.windows_checked as f64)),
        ]));
    }
    // Batched-configuration backoff re-sweep (ISSUE 9 satellite): the same
    // backoff caps, but driving the group-commit bounded construction at
    // the service drain's block shape instead of per-command JamWord
    // traffic. Commands/sec via the E14 harness so the arms stay
    // comparable with that experiment's table.
    let mut backoff_rows = Vec::new();
    let mut backoff_json = Vec::new();
    let backoff_registry = sbu_obs::Registry::new(8);
    for &threads in &[4usize, 8] {
        for &limit in &BATCHED_BACKOFF_SWEEP {
            let config = UniversalConfig::for_procs(threads)
                .group_commit(true)
                .with_batch_cap(BATCHED_SWEEP_CAP)
                .with_backoff_limit(limit);
            let tp = crate::e14_batch::batched_throughput_with(
                threads,
                2_000,
                BATCHED_SWEEP_CAP,
                config,
                &backoff_registry,
            );
            backoff_rows.push(vec![
                threads.to_string(),
                limit.to_string(),
                format!("{tp:.0}"),
                if limit == BATCHED_BACKOFF_LIMIT {
                    "yes".into()
                } else {
                    String::new()
                },
            ]);
            backoff_json.push(Json::obj(vec![
                ("threads", Json::Num(threads as f64)),
                ("backoff_limit", Json::Num(f64::from(limit))),
                ("commands_per_sec", Json::Num(tp)),
            ]));
        }
    }
    let doc = Json::obj(vec![
        ("experiment", Json::Str("e10".into())),
        ("object", Json::Str("jam_word".into())),
        ("unit", Json::Str("ops_per_sec".into())),
        ("rows", Json::Arr(json_rows)),
        (
            "batched_backoff",
            Json::obj(vec![
                ("batch_cap", Json::Num(BATCHED_SWEEP_CAP as f64)),
                (
                    "production_limit",
                    Json::Num(f64::from(BATCHED_BACKOFF_LIMIT)),
                ),
                ("rows", Json::Arr(backoff_json)),
            ]),
        ),
    ]);
    let mut report = render_table(
        "E10  monitored torture, ops/sec (Figure 2 JamWord; every window checked online)",
        &[
            "threads",
            "native jam",
            "tuned jam",
            "spin-lock jam",
            "tuned/lock",
            "windows (native)",
            "windows (lock)",
        ],
        &rows,
    );
    report.push('\n');
    report.push_str(&render_table(
        "E10  batched-configuration backoff re-sweep, commands/sec \
         (group commit on, blocks of 8; production cap marked)",
        &["threads", "backoff cap", "batched cmd/s", "production"],
        &backoff_rows,
    ));
    if !last_native_metrics.is_empty() {
        report.push('\n');
        report.push_str(
            &last_native_metrics.render_table("E10  native-arm instruments (8-thread sweep)"),
        );
    }
    match std::fs::write("BENCH_e10.json", doc.render()) {
        Ok(()) => report.push_str("wrote BENCH_e10.json\n"),
        Err(e) => report.push_str(&format!("could not write BENCH_e10.json: {e}\n")),
    }
    report.push_str(&write_obs_artifact("e10", &last_native_metrics));
    report
}
