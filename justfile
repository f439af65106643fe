# Task runner for the gridmarket reproduction. Each recipe is plain
# shell, so the commands also work copy-pasted without `just`.

# Tier-1 verification: build, tests, lint-as-error and docs-as-error
# (a doc link to a deleted item fails the build instead of dangling).
verify:
    cargo build --release
    cargo test -q
    cargo clippy --workspace --all-targets -- -D warnings
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Fast feedback loop.
test:
    cargo test -q

# Chaos suite: the fault-injection tests plus the chaos demo replayed
# under three fixed seeds (each run checks money conservation and
# same-seed byte-identical metrics internally).
chaos:
    cargo test -q --test chaos
    cargo run --release --example chaos_run -- 2006
    cargo run --release --example chaos_run -- 42
    cargo run --release --example chaos_run -- 31337

# Crash matrix (DESIGN.md §11): the durable-ledger kill-point sweep —
# crash the bank at every WAL record boundary of a fixed-seed run,
# recover from disk, audit conservation/signatures/spent tokens — as a
# test and as the release-mode sweep over three fixed seeds.
crash-matrix:
    cargo test -q --test ledger_recovery
    cargo run --release --example crash_matrix -- 2006 7 42

# Overload soak (DESIGN.md §12): the lossy-link / bounded-queue /
# breaker / degraded-pricing suite, then the live soak demo replayed
# under a fixed seed at two loss rates (each run checks money
# conservation and exactly-once transfers internally).
soak:
    cargo test -q --test overload
    cargo run --release --example overload_run -- 2006 10
    cargo run --release --example overload_run -- 2006 25

# Policy matrix: run every allocator (Tycoon + all baselines) through the
# shared PolicyDriver test suites and the market_battle example (three
# runs, byte-identical), then gate the decomposed JobManager modules
# against regrowing into a god-file (≤ 600 lines each).
policy-matrix:
    cargo test -q --test market_vs_baselines --test policy_driver
    for i in 1 2 3; do cargo run --release --quiet --example market_battle > /tmp/market_battle.$i.txt || exit 1; done; cmp /tmp/market_battle.1.txt /tmp/market_battle.2.txt && cmp /tmp/market_battle.1.txt /tmp/market_battle.3.txt
    wc -l crates/grid/src/manager/*.rs | awk '$2 != "total" && $1 > 600 {print $2" has "$1" lines (limit 600)"; bad=1} END {exit bad+0}'

# Monte-Carlo chaos sweep (DESIGN.md §13): 1000 random-fault seeds for
# each of the six policies (Tycoon, VCG, and the four baselines), fanned
# out as one flat seed x policy batch over the deterministic parallel
# scenario runner; prints Student-t confidence intervals for
# conservation / fairness / welfare / volatility per policy plus any
# quarantined seeds, and fails unless zero seeds quarantined and both
# banked policies' conservation residuals are exactly 0.
mc-chaos:
    cargo run --release -p gm-experiments --bin mc -- chaos --seeds 1000 --check

# Optimization tier (DESIGN.md §14): the gm-optimal unit tests (the
# sweep's cut and the one-pass VCG solve), LP + VCG property tests, the
# VcgSlaPolicy chaos/determinism integration suite, and the six-policy
# welfare comparison on the shared SLA workload.
vcg-matrix:
    cargo test -q -p gm-optimal
    cargo test -q --test lp_properties --test vcg_policy
    cargo run --release -p gm-experiments --bin vcg

# Monte-Carlo figure report (DESIGN.md §13): every experiment binary
# (fig3–fig7, sweep, volatility) re-run as a seeded Monte-Carlo batch,
# with a confidence interval on each figure's headline numbers. Extra
# arguments pass straight through to the mc binary — e.g.
# `just mc-report --paper-scale` runs the batches at the paper's full
# §5 parameters, `just mc-report --seeds 100 --threads 8` resizes them.
mc-report *ARGS:
    cargo run --release -p gm-experiments --bin mc -- report {{ARGS}}

# Regenerate the paper's tables and figures (quick scale).
experiments:
    cargo run --release --example quickstart

# The repository's benchmark (the command BENCHMARK.json declares): one
# seeded workload (chaos_sweep, vcg_window or table1_paper), its outputs
# checked against a reference run, every metric printed; the last line is
# one JSON object. `just perf chaos_sweep 1000 45 1` adds the layer trace.
perf WORKLOAD SEED="1" SECONDS="45" TRACE="0":
    cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- --workload {{WORKLOAD}} --seed {{SEED}} --seconds {{SECONDS}} --trace {{TRACE}}

# Timing benchmarks (in-repo harness; also prints quality metrics).
bench:
    cargo bench --workspace

# The cleanup gate's size metric: non-blank, non-comment Rust lines
# under crates, src, tests and examples.
loc:
    find crates src tests examples -name '*.rs' | xargs awk '!/^[[:space:]]*$/ && !/^[[:space:]]*\/\//' | wc -l

# Re-measure the four overhead budgets — telemetry (DESIGN.md §9),
# overload layer (§12), guard layer (§16), gray resilience (§17) — and
# write BENCH_telemetry.json, BENCH_overload.json, BENCH_attack.json and
# BENCH_gray.json at the repo root. Reports each verdict; exits 0 either
# way.
bench-save-overhead:
    cargo bench -p gm-bench --bench overhead -- --save

# Re-measure Monte-Carlo runner throughput and parallel efficiency
# (DESIGN.md §13) and write the result to BENCH_mc.json at the repo root.
bench-save-mc:
    cargo bench -p gm-bench --bench mc -- --save

# Re-measure welfare-LP solve-time scaling and the Tycoon-vs-VCG welfare
# gap (DESIGN.md §14) and write the result to BENCH_vcg.json at the repo
# root.
bench-save-vcg:
    cargo bench -p gm-bench --bench vcg -- --save

# Market-core scale matrix (DESIGN.md §15): tick throughput at
# 30 / 1k / 10k / 100k hosts × 10 funded bids each, sequential and
# sharded, gated on per-host cost at 100k staying within 2× of 1k.
# Fails (exit 1) if the sweep has regressed super-linearly.
scale-matrix:
    cargo bench -p gm-bench --bench scale -- --check

# Re-measure the scale matrix and write the result (including the gate
# verdict) to BENCH_scale.json at the repo root.
bench-save-scale:
    cargo bench -p gm-bench --bench scale -- --save --check

# Adversarial attack matrix (DESIGN.md §16): every allocation policy
# (tycoon defended and open, VCG, the four baselines) against every
# bidder strategy of the attack library (gm_experiments::adversary) as
# one Monte-Carlo fan-out; `--check` fails unless zero runs quarantined,
# the honest cohort is bit-identical with defenses on and off, and the
# guard wins on >= 2 attack strategies.
attack-matrix:
    cargo test -q --test adversary
    cargo run --release -p gm-experiments --bin mc -- attack --seeds 16 --check

# Gray-failure matrix (DESIGN.md §17): every policy (tycoon armed and
# with the resilience layer off, VCG, the four baselines) against every
# gray-fault scenario (slowdown / stall / flapping) as one Monte-Carlo
# fan-out; `--check` fails unless zero runs quarantined, money is
# conserved exactly, the gray-free column is bit-identical armed vs
# off, and speculation strictly cuts the on-time miss rate on >= 2
# gray scenarios.
gray-matrix:
    cargo test -q --test chaos
    cargo run --release -p gm-experiments --bin mc -- gray --seeds 16 --check
