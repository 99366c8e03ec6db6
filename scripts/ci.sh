#!/usr/bin/env bash
# The full local/CI gate, runnable fully offline (all dependencies are
# vendored; `--offline` is passed to every cargo invocation).
#
#   scripts/ci.sh          # fmt, clippy -D warnings, build, tests, corpus replay
#   scripts/ci.sh --full   # additionally runs the #[ignore]d deep-exploration tests
#
# Deterministic by default: the vendored proptest draws from a fixed seed.
# Override with SBU_PROPTEST_SEED=<u64> to explore a different stream, and
# SBU_PROPTEST_CASES=<n> to scale property-test case counts.

set -euo pipefail
cd "$(dirname "$0")/.."

FULL=0
if [[ "${1:-}" == "--full" ]]; then
    FULL=1
fi

step() { printf '\n==> %s\n' "$*"; }

step "rustfmt (check only)"
cargo fmt --all --check

step "clippy (warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

step "release build (both feature configs: obs off is the default, obs on must build too)"
cargo build --release --offline
cargo build --release --offline --features obs

step "workspace tests"
cargo test --quiet --workspace --offline

step "obs-enabled tests (instrumented crates; same suites, metrics live)"
cargo test --quiet --offline --features obs \
    -p sbu-obs -p sbu-mem -p sbu-sticky -p sbu-core -p sbu-stress -p sbu-scenario \
    -p sbu-service -p sbu-bench
cargo test --quiet --offline --features obs

step "schedule-corpus replay"
cargo test --quiet --offline --test corpus_replay

step "corpus regeneration is deterministic"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cp tests/corpus/*.sbu-sched "$tmp/"
cargo run --quiet --offline --example gen_corpus >/dev/null
for f in tests/corpus/*.sbu-sched; do
    cmp -s "$f" "$tmp/$(basename "$f")" || {
        echo "corpus file $f changed after regeneration" >&2
        exit 1
    }
done

step "native stress smoke (deterministic seed, online monitor)"
cargo run --release --quiet --offline --example stress -- \
    --threads 4 --ops 20000 --seed 7
cargo run --release --quiet --offline --example stress -- \
    --threads 4 --ops 8000 --seed 7 --inject torn-jam
obs_verdict=$(cargo run --release --quiet --offline --features obs --example stress -- \
    --threads 4 --ops 8000 --seed 7 --inject torn-jam)
grep -q "lies injected" <<<"$obs_verdict" || {
    echo "obs-enabled stress verdict did not cite the injection counter" >&2
    exit 1
}

step "crash-restart smoke (durable torture, offline check_durable verdict)"
cargo run --release --quiet --offline --example stress -- \
    --crash-restart --workload recoverable-counter --threads 3 --ops 288 --seed 11
cargo run --release --quiet --offline --example stress -- \
    --crash-restart --workload recoverable-jam --threads 3 --ops 288 --seed 11 \
    --torn seeded:11 --iters 5
cargo run --release --quiet --offline --example stress -- \
    --crash-restart --workload recoverable-jam --threads 3 --ops 288 --seed 7 \
    --eras 6 --torn lying

step "scenario-matrix smoke (5 scenarios x objects x backends; exit 0 = honest cells PASS, adversary cells CAUGHT)"
cargo run --release --quiet --offline -p sbu-bench --bin exp -- scenarios \
    --scenario steady-state,crash-storm,adversary-storm,lossy-transport,shard-crash-storm \
    --seed 7 --out "$tmp/scenarios"
for report in SCENARIO_STEADY_STATE_REPORT.md SCENARIO_CRASH_STORM_REPORT.md \
    SCENARIO_ADVERSARY_STORM_REPORT.md SCENARIO_LOSSY_TRANSPORT_REPORT.md \
    SCENARIO_SHARD_CRASH_STORM_REPORT.md BENCH_scenarios.json; do
    [[ -f "$tmp/scenarios/$report" ]] || {
        echo "scenario matrix did not write $report" >&2
        exit 1
    }
done

step "scenario coverage self-compare (two capped same-seed runs must be regression-free)"
cargo run --release --quiet --offline -p sbu-bench --bin exp -- scenarios \
    --scenario steady-state --seed 7 --max-threads 1 --out "$tmp/cov-base" || true
cargo run --release --quiet --offline -p sbu-bench --bin exp -- scenarios \
    --scenario steady-state --seed 7 --max-threads 1 --out "$tmp/cov-cur" || true
cargo run --release --quiet --offline -p sbu-bench --bin exp -- scenarios \
    --compare "$tmp/cov-base/BENCH_scenarios.json" "$tmp/cov-cur/BENCH_scenarios.json"

step "perf smoke (E8 vs checked-in baseline; >30% regression fails)"
if [[ -f benchmarks/BENCH_e8_baseline.json ]]; then
    cargo run --release --quiet --offline -p sbu-bench --bin exp -- \
        e8 --baseline benchmarks/BENCH_e8_baseline.json
else
    echo "benchmarks/BENCH_e8_baseline.json absent; perf smoke skipped"
fi

step "service unit tests (dark config; the obs config ran in the obs-enabled block above)"
cargo test --quiet --offline -p sbu-service

step "mailbox handoff stress (100k ping-pong round trips over the spin-then-park wait, hard timeout)"
# A lost wake-up hangs rather than fails, so the run (not the build) gets a
# hard timeout of its own.
cargo test --quiet --release --offline -p sbu-service --lib --no-run
timeout 120 cargo test --quiet --release --offline -p sbu-service --lib -- \
    transport::tests::mailbox_ping_pong_never_loses_a_wakeup --exact

step "shard footprint gate (heap bytes and registers per key on a fresh shard)"
cargo test --quiet --offline -p sbu-service --test footprint -- --nocapture

step "benchmark package builds and tests against the service's public API"
CARGO_TARGET_DIR=.bench_build cargo test --quiet --offline --manifest-path perfbench/Cargo.toml

step "service smoke (exp e12 --smoke: 1 vs 4 shards at 4 clients, no failed request, live service.route; throughput compared only with a core per worker, else SKIP)"
rm -f OBS_e12.json
cargo run --release --quiet --offline --features obs -p sbu-bench --bin exp -- e12 --smoke >/dev/null
grep -Eq '"service\.route": [1-9]' OBS_e12.json || {
    echo "OBS_e12.json missing a non-zero service.route counter" >&2
    exit 1
}

step "fault-plane smoke (exp e13 --smoke: full lossy profile, zero lost acked ops)"
rm -f OBS_e13.json
cargo run --release --quiet --offline --features obs -p sbu-bench --bin exp -- e13 --smoke >/dev/null
grep -Eq '"service\.inject\.drop": [1-9]' OBS_e13.json || {
    echo "OBS_e13.json missing a non-zero service.inject.drop counter" >&2
    exit 1
}

step "group-commit smoke (exp e14 --smoke: batched must not lose to per-command at 4 threads)"
rm -f OBS_e14.json
cargo run --release --quiet --offline --features obs -p sbu-bench --bin exp -- e14 --smoke >/dev/null
grep -Eq '"core\.batch_size"' OBS_e14.json || {
    echo "OBS_e14.json missing the core.batch_size histogram" >&2
    exit 1
}

step "socket transport smoke (exp e15 --smoke: lossy unix socket, exactly-once with live accepts)"
rm -f OBS_e15.json
cargo run --release --quiet --offline --features obs -p sbu-bench --bin exp -- e15 --smoke >/dev/null
grep -Eq '"service\.accept": [1-9]' OBS_e15.json || {
    echo "OBS_e15.json missing a non-zero service.accept counter" >&2
    exit 1
}

step "fast-path equivalence (per-command vs batched fold, both feature configs)"
cargo test --quiet --offline -p sbu-core --test fastpath_equivalence
cargo test --quiet --offline -p sbu-core --test fastpath_equivalence --features obs

step "observability smoke (obs-enabled exp e8 must fire the frontier instruments)"
rm -f OBS_e8.json
cargo run --release --quiet --offline --features obs -p sbu-bench --bin exp -- e8 >/dev/null
grep -Eq '"core\.frontier_hit": [1-9]' OBS_e8.json || {
    echo "OBS_e8.json missing a non-zero core.frontier_hit counter" >&2
    exit 1
}

if [[ "$FULL" == 1 ]]; then
    step "deep exploration sweeps (#[ignore]d tests, release)"
    cargo test --quiet --release --workspace --offline -- --ignored
fi

step "CI green"
