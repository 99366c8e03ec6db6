//! perfbench — the repository's benchmark, from the paper's construction
//! to the lossy socket.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--plain-throughput <ops/s>] [--git-rev <rev>] [--rustc <version>]
//! ```
//!
//! Workloads: `core-contended`, `svc-inproc-uniform`, `svc-unix-zipf`,
//! `svc-unix-zipf-open`, `svc-unix-lossy` (see `core_wl` and `service_wl`).
//! An untraced run prints the end-to-end metrics; a traced run (built with
//! `--features obs`) prints the per-layer metrics and the cost ledger and
//! writes its spans to `perfbench/out/`. Either way the last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. `perfbench/run.py` builds both variants and runs them.

mod core_wl;
mod gang;
mod ledger;
mod procfs;
mod report;
mod service_wl;
mod stats;
mod stream;

use report::{Outcome, END_TO_END, PER_LAYER};
use sbu_obs::Json;
use std::io::Write as _;
use std::time::Duration;
use stream::Skew;

/// Where runs leave sockets and trace files, relative to the checkout.
pub const OUT_DIR: &str = "perfbench/out";

/// Root spans written to the trace file per client.
const SPANS_KEPT: usize = 4096;

const WORKLOADS: &[&str] = &[
    "core-contended",
    "svc-inproc-uniform",
    "svc-unix-zipf",
    "svc-unix-zipf-open",
    "svc-unix-lossy",
];

/// One run's arguments.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Throughput of the untraced run of the same workload and seed.
    pub plain_throughput: Option<f64>,
    pub git_rev: String,
    pub rustc: String,
}

impl Run {
    pub fn window(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Run {
    let mut run = Run {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
        plain_throughput: None,
        git_rev: "unknown".into(),
        rustc: "unknown".into(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        fn num<T: std::str::FromStr>(flag: &str, value: &str) -> T {
            value
                .parse()
                .unwrap_or_else(|_| usage(&format!("bad value for {flag}: {value}")))
        }
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = num(&flag, &value),
            "--seconds" => run.seconds = num(&flag, &value),
            "--trace" => run.trace = num::<u8>(&flag, &value) == 1,
            "--plain-throughput" => run.plain_throughput = Some(num(&flag, &value)),
            "--git-rev" => run.git_rev = value.clone(),
            "--rustc" => run.rustc = value.clone(),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&run.workload.as_str()) {
        usage(&format!("unknown workload {:?}", run.workload));
    }
    if run.seconds == 0 {
        usage("--seconds must be at least 1");
    }
    run
}

/// nproc, build profile, obs on/off, git revision, rustc, seed.
fn fingerprint(run: &Run) -> Json {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    Json::obj(vec![
        ("nproc", Json::Num(nproc as f64)),
        (
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("obs", Json::Bool(sbu_obs::enabled())),
        ("git_rev", Json::Str(run.git_rev.clone())),
        ("rustc", Json::Str(run.rustc.clone())),
        ("workload", Json::Str(run.workload.clone())),
        ("seed", Json::Num(run.seed as f64)),
        ("seconds", Json::Num(run.seconds as f64)),
    ])
}

/// The timed window's end-to-end numbers and process counters.
pub fn record_window(
    outcome: &mut Outcome,
    s: &stats::Summary,
    proc: &procfs::ProcSample,
    acked: u64,
) {
    outcome.set("throughput_ops_s", s.throughput);
    outcome.set("latency_p50_us", s.p50_ns / 1e3);
    outcome.set("latency_p99_us", s.p99_ns / 1e3);
    outcome.set("driver.latency_samples", s.samples as f64);
    let ops = acked.max(1) as f64;
    outcome.set("proc.user_us_per_op", proc.user_s * 1e6 / ops);
    outcome.set("proc.sys_us_per_op", proc.sys_s * 1e6 / ops);
    outcome.set("proc.ctx_switches_per_op", proc.ctx_switches as f64 / ops);
    let mut p99s = s.group_p99_ns.clone();
    p99s.sort_by(f64::total_cmp);
    println!(
        "window: {acked} acked; medians over {} slice group(s) of {} latency samples; \
         group p99 min/median/max {:.1}/{:.1}/{:.1} us; host steal {:.2} s",
        s.groups,
        s.samples,
        p99s[0] / 1e3,
        stats::median(&p99s) / 1e3,
        p99s[p99s.len() - 1] / 1e3,
        proc.steal_s
    );
}

fn shape(workload: &str) -> Option<service_wl::Shape> {
    match workload {
        "svc-inproc-uniform" => Some(service_wl::INPROC_UNIFORM),
        "svc-unix-zipf" => Some(service_wl::UNIX_ZIPF),
        "svc-unix-zipf-open" => Some(service_wl::UNIX_ZIPF_OPEN),
        "svc-unix-lossy" => Some(service_wl::UNIX_LOSSY),
        _ => None,
    }
}

fn write_trace(
    run: &Run,
    outcome: &Outcome,
    ledger: &str,
    spans: &[service_wl::Span],
) -> std::io::Result<String> {
    let mut kept: Vec<Json> = Vec::new();
    for client in 0..service_wl::CLIENTS as u32 {
        kept.extend(
            spans
                .iter()
                .filter(|s| s.client == client)
                .take(SPANS_KEPT)
                .map(|s| {
                    Json::Arr(vec![
                        Json::Num(s.client as f64),
                        Json::Num(s.seq as f64),
                        Json::Num(s.start_ns as f64),
                        Json::Num(s.dur_ns as f64),
                    ])
                }),
        );
    }
    let metrics = outcome
        .metrics
        .iter()
        .map(|(k, v)| {
            (
                *k,
                v.clone()
                    .map(Json::Num)
                    .unwrap_or_else(|r| Json::Str(format!("n/a ({r})"))),
            )
        })
        .collect();
    let doc = Json::obj(vec![
        ("fingerprint", fingerprint(run)),
        ("metrics", Json::obj(metrics)),
        (
            "ledger",
            Json::Arr(
                ledger
                    .lines()
                    .map(|l| Json::Str(l.trim_end().into()))
                    .collect(),
            ),
        ),
        (
            "span_fields",
            Json::Arr(
                ["client", "seq", "start_ns", "dur_ns"]
                    .map(|s| Json::Str(s.into()))
                    .to_vec(),
            ),
        ),
        ("spans_recorded", Json::Num(spans.len() as f64)),
        ("spans", Json::Arr(kept)),
    ]);
    std::fs::create_dir_all(OUT_DIR)?;
    let path = format!("{OUT_DIR}/trace-{}-seed{}.json", run.workload, run.seed);
    std::fs::write(&path, doc.render())?;
    Ok(path)
}

fn main() {
    let run = parse_args();
    println!("fingerprint: {}", report::one_line(&fingerprint(&run)));
    if run.trace && !sbu_obs::enabled() {
        println!("note: traced run without --features obs; instrument counters read n/a (obs off)");
    }
    let mut outcome = Outcome::default();
    let shape = shape(&run.workload);

    // The layer replay runs first, while the process has no freed memory
    // that would hide a key's first-touch footprint.
    let stages = run.trace.then(|| match shape {
        Some(s) => ledger::replay(run.seed, s.keys, s.skew, s.group_commit, true, &mut outcome),
        None => ledger::replay(
            run.seed,
            service_wl::INPROC_UNIFORM.keys,
            Skew::Uniform,
            false,
            false,
            &mut outcome,
        ),
    });

    let spans = match shape {
        Some(s) => service_wl::run(&run, s, &mut outcome),
        None => {
            core_wl::run(&run, &mut outcome);
            Vec::new()
        }
    };

    match procfs::peak_rss_kib() {
        Some(kib) => outcome.set("rss_peak_mb", kib as f64 / 1024.0),
        None => outcome.na("rss_peak_mb", "no /proc/self/status"),
    }
    outcome.set(
        "failed_frac",
        outcome.failed() as f64 / outcome.attempted.max(1) as f64,
    );
    match (
        run.trace,
        run.plain_throughput,
        outcome.metrics.get("throughput_ops_s"),
    ) {
        (false, ..) => {}
        (true, Some(plain), Some(Ok(traced))) if plain > 0.0 => {
            outcome.set("driver.tracing_overhead_frac", 1.0 - traced / plain)
        }
        _ => outcome.na("driver.tracing_overhead_frac", "no untraced run to compare"),
    }

    for (check, n) in outcome.checks.iter().zip(1..) {
        let verdict = if check.passed { "ok" } else { "FAILED" };
        println!("check {n}: {verdict:<6} {} — {}", check.name, check.detail);
    }
    for (cause, count) in &outcome.causes {
        println!("failure: {count} × {cause}");
    }
    let mut e2e: Vec<(&str, &str)> = END_TO_END.to_vec();
    e2e.push(("failed_frac", "frac"));
    print!(
        "{}",
        report::table(&format!("end-to-end ({})", run.workload), &e2e, &outcome)
    );
    let catalogue = match stages {
        Some(stages) => {
            let ledger = ledger::render(&stages, &mut outcome);
            print!("{ledger}");
            match write_trace(&run, &outcome, &ledger, &spans) {
                Ok(path) => println!(
                    "trace: {} root spans recorded, written to {path}",
                    spans.len()
                ),
                Err(e) => println!("trace: could not write the trace file: {e}"),
            }
            PER_LAYER
        }
        None => END_TO_END,
    };
    // Untraced runs list the per-layer metrics too: the process counters
    // are live without obs, and the rest say why they have no value.
    print!(
        "{}",
        report::table(
            &format!("per-layer ({})", run.workload),
            PER_LAYER,
            &outcome
        )
    );
    println!("{}", report::result_line(catalogue, &outcome));
    let _ = std::io::stdout().flush();
    // Load threads stuck inside the program under test end with the process.
    std::process::exit(0);
}
