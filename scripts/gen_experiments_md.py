#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from a captured `exp all` run.

Usage:
    cargo run --release -p sbu-bench --bin exp -- all > /tmp/exp_all.txt
    python3 scripts/gen_experiments_md.py /tmp/exp_all.txt
"""
import sys

raw = open(sys.argv[1]).read().splitlines()
start = next(i for i, l in enumerate(raw) if l.startswith("E1a"))
tables = "\n".join(raw[start:])

doc = f"""# EXPERIMENTS — paper claims vs. measured

The paper is a theory paper; its "evaluation" consists of complexity
theorems (Theorem 6.6, §6.4), algorithm figures (Figs 2, 4–8), and the
hierarchy claims of §1/§7. This file records, claim by claim, what the
paper states and what this implementation measures. Regenerate with:

```sh
cargo run --release -p sbu-bench --bin exp -- all > /tmp/exp_all.txt
python3 scripts/gen_experiments_md.py /tmp/exp_all.txt
```

Step counts are the deterministic conductor's scheduling points (one per
atomic/sticky operation, two per safe-register or data-cell operation), so
they are exactly reproducible; wall-clock numbers (E8, E10, and the timing columns of E9) vary by machine.
Absolute constants are not expected to match a 1989 pencil-and-paper cost
model — the *shapes* (growth rates, separations, who wins) are the
reproduction target, and all of them hold.

## Summary of claims

| Exp | Paper claim (location) | Measured result | Verdict |
|-----|------------------------|-----------------|---------|
| E1a | Fig 2's sticky byte is atomic & wait-free (§4) | 100% agreement + validity over 1080 adversarial runs with crashes | ✓ |
| E1b | sticky-byte access is O(ℓ) (§4) | solo steps = ℓ + 4, exactly linear | ✓ |
| E1c | wait-free under contention (§4) | worst per-proc steps grow ~linearly in n (helping scans), bounded always | ✓ |
| E1d | the naive jams are broken (§4's counterexample) | oblivious jam blends ~22% of runs; early-return strands ⊥ in ~5%; Fig 2: 0% / 0% | ✓ |
| E2a | leader election in O(log n) (§4) | solo steps = log₂n + 4 | ✓ |
| E2b | election is wait-free & agreed under contention | unique agreed leader in all runs; bounded steps | ✓ |
| E3a | Θ(n²) cells, Θ(n² log n) sticky bits (Thm 6.6) | pool/n² → ≈5, sticky-bit-equivalent/(n²·log n) bounded & decreasing | ✓ |
| E3b | Herlihy's construction needs unbounded memory (§5) | exactly 1 cell consumed per operation, forever | ✓ |
| E4a | solo access O(T + n² log n) (§6.4) | steps/op/n² decreasing toward a constant (pool scans dominate) | ✓ |
| E4b | contended worst case O(nT + n³ log n) (§6.4) | worst steps/op/n³ roughly flat (≈200–290) | ✓ |
| E4c | §7 open problem: can the time be improved? | locality fast paths: 2.6–3.6× solo speedup, growing with n, correctness unchanged | extension |
| E5 | locks stall at a crashed processor; wait-free doesn't (§1) | lock-based: survivors complete 0 ops, wedged; all three wait-free constructions: all 12 survivor ops complete | ✓ |
| E6 | registers < TAS < 3-valued RMW = universal (§1, §7) | explorer finds counterexample schedules exactly where theory says, exhausts the tree everywhere else | ✓ |
| E7 | randomized consensus from registers terminates fast (§1, refs \\[1–4\\]) | 100% agreement over 600 runs; mean ≈1.03 rounds, max 2 | ✓ |
| E8 | (implicit) the construction is practical | wait-freedom costs ~10–1000× raw throughput vs a lock — progress guarantees, not speed | reported |
| E9 | (tooling) one schedule per Mazurkiewicz trace suffices for model checking | DPOR exhausts the Fig 2 jam trees in ~52× fewer schedules (with and without crashes), losing no counterexamples | ✓ |
| E10 | (tooling) Definition 3.1 can be checked *online* on real-thread histories | the `sbu-stress` frontier-set monitor verifies every quiescent window while 1–8 threads run at ~10⁵–10⁶ ops/s; seeded torn-jam/stale-read lies in the backend are always caught | ✓ |
| E11 | (robustness) crash–restart durability is a constant-factor tax | recoverable jam pays ~4–7× over the plain `JamWord` (announce + per-bit fences); the durable universal counter is scan-dominated (≈1×); post-crash recovery costs sub-µs per jam object and single-digit µs per counter | reported |

Beyond the harness, three claims are discharged as *tests* rather than
tables:

* **Theorem 6.6, literally** — `tests/literal_theorem_6_6.rs` runs the full
  bounded construction over `Fig2Mem`, where every sticky word is ⌈log₂⌉
  genuine sticky bits: zero primitive sticky words in the census.
* **"Universality of consensus"** (the title) —
  `crates/core/tests/consensus_universal.rs` runs `ConsensusUniversal` with
  an arbitrary consensus plugged per cell; instantiated with
  `BitwiseConsensus<RandomizedConsensus>` the census contains **no sticky or
  TAS primitives at all**: the randomized wait-free universal object from
  registers only, exactly the introduction's corollary.
* **Definition 3.2 wait-freedom** — solo-termination under total starvation
  and survivor-completion under crashes, `crates/core/tests/wait_freedom.rs`.

Notes on E4: the measured dominant term is the full-pool FIND-HEAD/GFC
scans, Θ(pool) = Θ(n²) register operations per attempt; the paper's extra
log n factor comes from counting each multi-bit sticky access as ⌈log₂⌉
bit operations, which is exactly the accounting `Fig2Mem` realizes
operationally.

Notes on E8: the bounded construction's full-pool scans make it the
slowest of the three by design; the unbounded baseline (no reclamation
machinery) sits in between. The paper's value proposition is the E5
column, not the E8 one. The archived numbers were collected inside a
single-core container, so the multi-thread rows measure OS scheduling as
much as algorithmic cost; rerun on real hardware for meaningful scaling
curves.

Notes on E10: both columns run under the `sbu-stress` torture harness with
the online monitor live — the throughput figures are for *verified* ops
(every quiescent window of the recorded history checked concurrently), not
raw loops, so they are not comparable to E8. The native column is the
wait-free Figure 2 `JamWord`; the baseline wraps the same sequential spec
in the spin-lock strawman. The single-core caveat of E8 applies here too,
and on one core a spin lock is nearly free — the separation the paper cares
about is E5's (a crashed lock holder wedges everyone), not raw speed.

Notes on E11: "plain" columns run the non-durable objects on the bare
native backend; "recoverable" columns run the crash-safe protocols over
`DurableMem`, which tracks every persistent-object write until fenced. The
jam tax is real algorithmic work (a durable announcement plus a fence per
jammed bit); the counter's tax is invisible because the universal
construction's full-pool scans dominate either way. Recovery sweeps are
one-off restart costs, not per-operation costs. Single-core container
caveats from E8 apply.

## Measured tables

```text
{tables}
```

## Reproduction inventory

| Paper artifact | Where implemented | Where verified |
|----------------|-------------------|----------------|
| Def 3.1 atomicity (= linearizability) | `sbu-spec::linearize` | property tests vs brute force (`crates/spec/tests/proptest_linearize.rs`) |
| Def 3.1 on real-thread histories, online | `sbu-stress` (windowed frontier-set monitor over `sbu-spec::linearize`) | torture smokes incl. injected-fault catches (`crates/stress/tests/torture_smoke.rs`); CI stress smoke; E10 |
| Def 3.2 wait-freedom | step accounting in `sbu-sim` | `crates/core/tests/wait_freedom.rs` |
| §2 schedules (well-formed/balanced/sequential, ≺_H) | `sbu-spec::schedule` | `tests/formalism.rs` |
| Def 4.1 Sticky Bit | `sbu-mem` (native CAS + simulated) | `sbu-mem` unit tests; `StickySpec` linearizability checks; backend conformance suite |
| Fig 2 sticky byte + helping | `sbu-sticky::jam_word` | exhaustive exploration (2 procs × all schedules × ≤1 crash), proptest scripts, native stress |
| §4 leader election | `sbu-sticky::election` | exhaustive (2 procs), bounded-exhaustive (3), fuzz (5, crashes) |
| §4 ASB from initializable consensus + 2 safe bits | `sbu-sticky::from_consensus` | exhaustive linearizability vs `StickySpec` |
| §1 randomized corollary | `sbu-sticky::randomized` + `BitwiseConsensus` + `ConsensusUniversal` | E7; adopt–commit explored exhaustively; registers-only universal queue test |
| §5 list construction + freeing bits | `sbu-core::bounded` (apply loop) | fuzz + linearizability with crashes & hostile reads; bounded-exhaustive DFS prefixes |
| Fig 3 cell layout | `sbu-core::bounded::cell` | pool-forensics invariants (`protocol_units.rs`) |
| Figs 4–5 GRAB/RELEASE/INIT | `sbu-core::bounded::sync` | reclamation tests; flush-overlap monitoring (0 violations everywhere); ≤3-grabs debug assertion (Thm 6.6's accounting) |
| Fig 6 GFC | `sbu-core::bounded::gfc` | reuse-forever tests, crash-leak bounds, Lemma 6.3 observations |
| Figs 7–8 FIND-HEAD/APPEND | `sbu-core::bounded::list` | all linearizability suites |
| Thm 6.6 (space) | — | E3a; `tests/literal_theorem_6_6.rs` (literal sticky bits) |
| §6.4 (time) | — | E4 |
| §7 hierarchy collapse | `sbu-rmw` + `sbu-core` CAS object | E6; `tests/collapse.rs` |
| §7 open problem (efficiency) | `UniversalConfig::fast_paths` (on by default; `paper_scans()` turns it off) | E4c ablation |
| crash–restart durability (§3 crashes, modern persistency reading) | `sbu-mem::durable` (`DurableMem`, torn-persist policies), `sbu-sticky::recoverable`, `Universal::recover` | durable-linearizability checker (`sbu-spec::linearize::check_durable` + its unit suite); DPOR crash exploration (`crates/sticky/tests/dpor_recovery.rs`); native crash–restart torture incl. lying-hardware catches (`crates/stress/tests/crash_restart.rs`, CI smoke); corpus `torn-persist-drops-acked-jam`; E11 |
"""
open("EXPERIMENTS.md", "w").write(doc)
print(f"EXPERIMENTS.md written ({len(doc)} bytes)")
