#!/usr/bin/env bash
# Full offline verification: release build, test suite, lint, formatting,
# and a bench smoke pass. Everything runs with --offline — the workspace
# has no registry dependencies (the `rand` name resolves to the in-tree
# crates/rng).
#
# Each step sets $stage before running, and the EXIT trap names the
# failing stage in the last line of output, so a red CI job says which
# stage died without scrolling the log.
set -euo pipefail
cd "$(dirname "$0")/.."

stage="startup"
trap 'status=$?; if [ "$status" -ne 0 ]; then
        echo "verify: FAILED in stage: $stage (exit $status)" >&2
      fi' EXIT

stage="build (cargo build --release --offline)"
cargo build --release --offline

# --workspace matters: the root is itself a package (the idpa facade), so
# a bare `cargo test` would run only its 48 tests and skip every member
# crate's suite.
stage="test (cargo test -q --offline --workspace)"
cargo test -q --offline --workspace

# The end-to-end benchmark is a workspace of its own, so --workspace above
# skips it. Its tests are the check that BENCHMARK.json and the metric
# names it emits agree, and that it still builds against the library.
stage="e2ebench test (cargo test --manifest-path e2ebench/Cargo.toml)"
cargo test -q --offline --manifest-path e2ebench/Cargo.toml

stage="lint (cargo clippy --all-targets -- -D warnings)"
cargo clippy --all-targets --offline -- -D warnings

stage="format (cargo fmt --check)"
cargo fmt --check

# Every bench binary must at least run its kernels once (no timing, no
# report file) so bench rot is caught without paying for a full run.
stage="bench smoke (IDPA_BENCH_SMOKE=1 cargo bench)"
IDPA_BENCH_SMOKE=1 cargo bench --offline -p idpa-bench

# End-to-end fault-injection smoke: one severity per fault class (crash,
# drop+delay, cheat, bank outage) crossed with every routing strategy at
# quick scale. The example asserts the zero-fault rows are perfectly clean,
# so this also guards the fault layer's "off means off" contract.
stage="fault smoke (IDPA_FAULT_SMOKE=1 fault_matrix example)"
IDPA_FAULT_SMOKE=1 cargo run --release --offline --example fault_matrix

# Epoch-settlement smoke: the fault matrix re-run with every fault class
# settled under both modes. Each row asserts the economics (payoffs,
# delivery, shortfall, flags, audit discrepancies) are identical between
# per-bundle and epoch settlement, so this guards the mode-invariance
# contract end to end; the CLI run then exercises the --settlement and
# --epoch-length flags through a real experiment.
stage="settlement smoke (IDPA_SETTLE_SMOKE=1 fault_matrix + epoch-mode CLI)"
IDPA_SETTLE_SMOKE=1 cargo run --release --offline --example fault_matrix
IDPA_FAULT_SMOKE=1 cargo run --release --offline -p idpa-sim -- fault-adaptation \
    --quick --reps 2 --settlement epoch --epoch-length 240 --out target/verify-results

# Adaptive-mode smoke: one quick static-vs-adaptive comparison through the
# real CLI, exercising --fault-response and --reputation-weight end to end
# (the adaptive arm runs reputation suppression, in-run cheater feedback,
# probe invalidation and escalated reformation).
stage="adaptive fault smoke (fault-adaptation experiment)"
IDPA_FAULT_SMOKE=1 cargo run --release --offline -p idpa-sim -- fault-adaptation \
    --quick --reps 2 --reputation-weight 0.2 --out target/verify-results

# Scale smoke: the lazy node lifecycle end to end through the real CLI —
# the scale-lifecycle experiment runs quick-tier sized worlds built by
# ScenarioConfig::scale (idle eviction on) and prints the resident-state
# metrics (peak materialized nodes, evictions, slab bytes) in its report.
stage="scale smoke (IDPA_SCALE_SMOKE=1 scale-lifecycle experiment)"
IDPA_SCALE_SMOKE=1 cargo run --release --offline -p idpa-sim -- scale-lifecycle \
    --quick --out target/verify-results

# Service-mode smoke: a short open-workload run through the real CLI,
# interrupted at t=0 by a zero wall-clock budget (which writes a final
# checkpoint), then resumed from that checkpoint — the resumed output must
# be line-identical to the uninterrupted run's, pinning the
# snapshot/resume determinism contract end to end. IDPA_SVC_SMOKE=1
# forces the quick tier inside the binary.
stage="service smoke (IDPA_SVC_SMOKE=1 open run -> snapshot -> resume)"
svc_dir="target/verify-service"
mkdir -p "$svc_dir"
svc_flags=(--seed 11 --workload open --open-arrival-rate 0.02
           --window-len 120 --window-warmup 120)
IDPA_SVC_SMOKE=1 cargo run --release --offline -p idpa-sim -- service \
    "${svc_flags[@]}" > "$svc_dir/uninterrupted.txt"
IDPA_SVC_SMOKE=1 cargo run --release --offline -p idpa-sim -- service \
    "${svc_flags[@]}" --max-wall-secs 0 \
    --snapshot-path "$svc_dir/run.snap" > /dev/null
IDPA_SVC_SMOKE=1 cargo run --release --offline -p idpa-sim -- service \
    "${svc_flags[@]}" --resume "$svc_dir/run.snap" > "$svc_dir/resumed.txt"
diff "$svc_dir/uninterrupted.txt" "$svc_dir/resumed.txt"
echo "service smoke: resumed run is line-identical to the uninterrupted run"

# Adversary-zoo smoke: every §4 strategy class (free riders, whitewashers,
# colluding cliques) with its matching defense off and on, at quick scale.
# The example asserts the economics (free riders earn zero, the rejoin
# schedule fires, the cross-check flags >= 90% of phantom payouts), so this
# guards the adversary layer end to end; the CLI run then exercises the
# --adversary-* flags through a real experiment.
stage="adversary smoke (IDPA_AZ_SMOKE=1 adversary_zoo example + CLI)"
IDPA_AZ_SMOKE=1 cargo run --release --offline --example adversary_zoo
IDPA_AZ_SMOKE=1 cargo run --release --offline -p idpa-sim -- adversary-zoo \
    --quick --reps 2 --out target/verify-results

# Fuzz smoke: the in-tree structured fuzzer over PathValidator,
# Bank::deposit_batch and EpochLedger — the committed regression corpus
# (tests/fuzz_corpus/) plus a short deterministic sweep. Bounded well under
# 30 s; the nightly CI tier reruns it with IDPA_FUZZ_LONG=1 at 100x the
# case budget.
stage="fuzz smoke (IDPA_FUZZ_SMOKE=1 fuzz_validator)"
IDPA_FUZZ_SMOKE=1 cargo test -q --offline -p idpa-payment --test fuzz_validator

# WAL durability smoke: the crash-anywhere recovery property suite (every
# byte-offset truncation and corruption of a recorded WAL must recover the
# intact prefix), the failover-equivalence matrix (bank crash x settlement
# mode x shards x snapshot/resume == uninterrupted), and one end-to-end
# service run with --bank-durability wal under a seeded bank-crash storm.
# The resumed durable run must be line-identical to the uninterrupted one.
stage="WAL smoke (IDPA_WAL_SMOKE=1 wal_recovery + bank_durability + durable service)"
IDPA_WAL_SMOKE=1 cargo test -q --offline -p idpa-payment --test wal_recovery
IDPA_WAL_SMOKE=1 cargo test -q --offline -p idpa-sim --test bank_durability
wal_dir="target/verify-wal"
mkdir -p "$wal_dir"
wal_flags=(
    --seed 11 --settlement epoch --bank-durability wal
    --fault-drop 0.05 --fault-bank-crash 0.5 --fault-bank-crash-torn 0.5
)
IDPA_SVC_SMOKE=1 cargo run --release --offline -p idpa-sim -- service \
    "${wal_flags[@]}" > "$wal_dir/uninterrupted.txt"
IDPA_SVC_SMOKE=1 cargo run --release --offline -p idpa-sim -- service \
    "${wal_flags[@]}" --max-wall-secs 0 \
    --snapshot-path "$wal_dir/run.snap" > /dev/null
IDPA_SVC_SMOKE=1 cargo run --release --offline -p idpa-sim -- service \
    "${wal_flags[@]}" --resume "$wal_dir/run.snap" > "$wal_dir/resumed.txt"
diff "$wal_dir/uninterrupted.txt" "$wal_dir/resumed.txt"
grep -q "audit chain verified: true" "$wal_dir/resumed.txt"
echo "WAL smoke: durable resumed run is line-identical and the audit chain verifies"

stage="done"
echo "verify: OK"
