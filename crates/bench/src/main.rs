//! `exp` — regenerate the paper-reproduction tables (see EXPERIMENTS.md).
//!
//! ```sh
//! cargo run --release -p sbu-bench --bin exp -- all
//! cargo run --release -p sbu-bench --bin exp -- e1 e5
//! cargo run --release -p sbu-bench --bin exp -- e8 --baseline benchmarks/BENCH_e8_baseline.json
//! cargo run --release -p sbu-bench --bin exp -- e12 --smoke
//! ```
//!
//! E8 and E10–E15 also write `BENCH_<exp>.json` to the working directory
//! (schema in EXPERIMENTS.md). With `--baseline <path>`, E8 additionally
//! compares its fresh numbers against the recorded baseline and exits
//! non-zero on a >30% `bounded_fast` regression — the CI perf smoke.
//!
//! `--smoke` runs the capped CI arm of E12–E15 instead of the full sweep,
//! exiting non-zero when its gate fails:
//! - `e12`: 1 vs 4 shards at 4 clients — no failed request, live
//!   `service.route` under obs, and (on a core per worker) sharding pays;
//! - `e13`: one cell under the full lossy profile — no acked op lost or
//!   double-applied, and under obs the shim really injected drops;
//! - `e14`: batched must not lose to per-command at 4 threads, and under
//!   obs `core.batch_size` must show real multi-command batches;
//! - `e15`: a small lossy Unix-socket cell — exactly-once with live
//!   `service.accept` traffic.
//!
//! A flag that does not apply to every selected experiment is a usage
//! error (exit 2), as is an unknown experiment name.
//!
//! `exp scenarios [...]` runs the deterministic scenario matrix instead
//! (see `sbu-scenario` and EXPERIMENTS.md): every remaining argument goes
//! to that driver, and its exit code (0 ok / 1 verdict or coverage
//! regression / 2 usage) becomes the process's.

use sbu_bench::*;
use std::time::Instant;

/// How an experiment's full run is invoked.
#[derive(Clone, Copy)]
enum Run {
    /// Prints a report; an unmet acceptance claim is a WARNING line in it.
    Plain(fn() -> String),
    /// Optionally gated against a `--baseline` file (`Err`: regression).
    Baseline(fn(Option<&str>) -> Result<String, String>),
}

/// A CI arm: `Err` carries the report of a failed gate.
type Smoke = fn() -> Result<String, String>;

/// An experiment: its name, its full run, and its CI arm if it has one.
type Experiment = (&'static str, Run, Option<Smoke>);

/// The dispatch table.
const EXPERIMENTS: [Experiment; 15] = [
    ("e1", Run::Plain(e1_sticky_byte::run), None),
    ("e2", Run::Plain(e2_election::run), None),
    ("e3", Run::Plain(e3_space::run), None),
    ("e4", Run::Plain(e4_time::run), None),
    ("e5", Run::Plain(e5_crash::run), None),
    ("e6", Run::Plain(e6_hierarchy::run), None),
    ("e7", Run::Plain(e7_randomized::run), None),
    ("e8", Run::Baseline(e8_throughput::run), None),
    ("e9", Run::Plain(e9_explore::run), None),
    ("e10", Run::Plain(e10_stress::run), None),
    ("e11", Run::Plain(e11_recovery::run), None),
    (
        "e12",
        Run::Plain(e12_service::run),
        Some(e12_service::run_smoke),
    ),
    (
        "e13",
        Run::Plain(e13_faults::run),
        Some(e13_faults::run_smoke),
    ),
    (
        "e14",
        Run::Plain(e14_batch::run),
        Some(e14_batch::run_smoke),
    ),
    (
        "e15",
        Run::Plain(e15_socket::run),
        Some(e15_socket::run_smoke),
    ),
];

/// What one invocation runs.
struct Plan {
    experiments: Vec<Experiment>,
    smoke: bool,
    baseline: Option<String>,
}

/// Parse the arguments (everything after the binary name) into a plan, or
/// the usage error to print before exiting 2.
fn parse(args: &[impl AsRef<str>]) -> Result<Plan, String> {
    let (mut smoke, mut baseline, mut names) = (false, None, Vec::new());
    let mut iter = args.iter().map(AsRef::as_ref);
    while let Some(arg) = iter.next() {
        match arg {
            "--smoke" => smoke = true,
            "--baseline" => {
                baseline = Some(iter.next().ok_or("--baseline requires a path")?.to_string())
            }
            name => names.push(name),
        }
    }
    let experiments: Vec<Experiment> = if names.is_empty() || names.contains(&"all") {
        EXPERIMENTS.to_vec()
    } else {
        names
            .iter()
            .map(|&name| {
                EXPERIMENTS
                    .iter()
                    .find(|e| e.0 == name)
                    .copied()
                    .ok_or_else(|| {
                        format!("unknown experiment {name:?}; use e1..e15, scenarios, or all")
                    })
            })
            .collect::<Result<_, _>>()?
    };
    for &(name, run, smoke_arm) in &experiments {
        if smoke && smoke_arm.is_none() {
            return Err(format!(
                "--smoke does not apply to {name}: it has no CI arm"
            ));
        }
        if baseline.is_some() && !matches!(run, Run::Baseline(_)) {
            return Err(format!("--baseline does not apply to {name}"));
        }
    }
    Ok(Plan {
        experiments,
        smoke,
        baseline,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The scenario matrix has its own flag surface; hand everything after
    // the subcommand name straight through.
    if args.first().map(String::as_str) == Some("scenarios") {
        std::process::exit(sbu_scenario::cli::run(&args[1..]));
    }
    let plan = parse(&args).unwrap_or_else(|usage| {
        eprintln!("{usage}");
        std::process::exit(2);
    });
    for (name, run, smoke) in plan.experiments {
        let t0 = Instant::now();
        let outcome = match (smoke.filter(|_| plan.smoke), run) {
            (Some(smoke), _) => smoke(),
            (None, Run::Plain(run)) => Ok(run()),
            (None, Run::Baseline(run)) => run(plan.baseline.as_deref()),
        };
        match outcome {
            Ok(report) => println!("{report}"),
            Err(report) => {
                println!("{report}");
                std::process::exit(1);
            }
        }
        println!("[{name} took {:.1?}]\n", t0.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Plan, String> {
        parse(&line.split_whitespace().collect::<Vec<_>>())
    }

    #[test]
    fn accepted_combinations_select_the_right_arms() {
        assert_eq!(parse_str("").unwrap().experiments.len(), 15);
        assert_eq!(parse_str("all").unwrap().experiments.len(), 15);
        let plan = parse_str("e1 e5").unwrap();
        assert_eq!(
            plan.experiments.iter().map(|e| e.0).collect::<Vec<_>>(),
            ["e1", "e5"]
        );
        let plan = parse_str("e12 e15 --smoke").unwrap();
        assert!(plan.smoke && plan.experiments.len() == 2);
        let plan = parse_str("e8 --baseline b.json").unwrap();
        assert_eq!(plan.baseline.as_deref(), Some("b.json"));
    }

    #[test]
    fn flags_that_do_not_apply_are_usage_errors() {
        for (line, needle) in [
            ("e8 --smoke", "--smoke does not apply to e8"),
            ("e1 --smoke", "--smoke does not apply to e1"),
            ("all --smoke", "--smoke does not apply to e1"),
            ("e12 --baseline b.json", "--baseline does not apply to e12"),
            (
                "e8 e12 --baseline b.json",
                "--baseline does not apply to e12",
            ),
            ("e8 --baseline", "--baseline requires a path"),
            ("e16", "unknown experiment \"e16\""),
        ] {
            let err = parse_str(line)
                .err()
                .unwrap_or_else(|| panic!("{line} accepted"));
            assert!(err.contains(needle), "{line}: {err}");
        }
    }
}
