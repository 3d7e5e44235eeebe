#!/usr/bin/env bash
# Bench-trajectory gate: proves every bench binary still runs, then does
# short timed passes of the gated benches (each under its quick-mode
# environment variable, listed in the table below) and fails if any
# freshly measured point regresses more than IDPA_BENCH_GATE_PCT percent
# (default 20) against the best value that key has ever had in a
# committed BENCH_*.json report.
#
# Runnable locally: ./scripts/bench_gate.sh
#
# Caveat the threshold exists for: CI runners and dev machines differ, so
# absolute ns/iter comparisons across hardware are loose — the default 20%
# margin catches trajectory-level regressions (an accidental O(N) in a
# kernel), not single-digit drift. Raise IDPA_BENCH_GATE_PCT when gating
# on noisy shared runners.
set -euo pipefail
cd "$(dirname "$0")/.."

pct="${IDPA_BENCH_GATE_PCT:-20}"

# Gated benches and the variable that selects each one's short timed pass.
# Several binaries also assert their own pins and floors before timing:
#   probe_maintenance run result equals its pinned fingerprint
#   node_lifecycle    idle eviction leaves the N = 2000 result unchanged;
#                     peak residency and heap stay under their ceilings
#   settlement        epoch-vs-per-receipt speedup floor
#   service_mode      chunked loop within 25% of the straight-line runner;
#                     checkpointed + resumed runs equal the uninterrupted one
#   adversary_zoo     cross-confirmation costs <= 10% and flags >= 90% of
#                     the injected phantoms
#   bank_durability   WAL-on settlement within 15% of the bare ledger; cold
#                     recovery and the warm replica land on the live digest
gated=(
    "history_shard IDPA_HS_QUICK"
    "probe_maintenance IDPA_PM_QUICK"
    "node_lifecycle IDPA_NL_QUICK"
    "settlement IDPA_ST_QUICK"
    "service_mode IDPA_SVC_QUICK"
    "adversary_zoo IDPA_AZ_QUICK"
    "bank_durability IDPA_BD_QUICK"
)

stage="bench smoke"
fresh=""
part=""
trap 'status=$?; rm -f "$fresh" "$part"
      if [ "$status" -ne 0 ]; then
        echo "bench gate: FAILED in stage: $stage (exit $status)" >&2
      fi' EXIT

# 1. Every bench binary runs its kernels once (untimed) — bench rot check.
IDPA_BENCH_SMOKE=1 cargo bench --offline -p idpa-bench

# 2. Short timed passes of the gated benches. Each binary writes its own
# report; they are concatenated into one fresh file (the awk below parses
# flat "name": ns lines, so back-to-back JSON objects compare fine), and
# the comparison gates every point at once.
fresh="$(mktemp)"
part="$(mktemp)"
for entry in "${gated[@]}"; do
    read -r bench quick_var <<<"$entry"
    stage="timed $bench pass"
    rm -f "$part"
    env "$quick_var=1" IDPA_BENCH_OUT="$part" \
        cargo bench --offline -p idpa-bench --bench "$bench"
    cat "$part" >> "$fresh"
done

# 3. Compare each fresh point against the best committed value for the
# same key across every BENCH_*.json in the repo (flat "name": ns maps).
stage="regression comparison"
awk -v pct="$pct" -v freshfile="$fresh" '
    function trim(s) { gsub(/[ \t",]/, "", s); return s }
    FNR == 1 { isfresh = (FILENAME == freshfile) }
    /:/ {
        i = index($0, ":")
        key = trim(substr($0, 1, i - 1))
        val = trim(substr($0, i + 1)) + 0
        if (key == "" || val <= 0) next
        if (isfresh) fresh[key] = val
        else if (!(key in best) || val < best[key]) best[key] = val
    }
    END {
        bad = 0
        for (k in fresh) {
            if (k in best) {
                limit = best[k] * (1 + pct / 100)
                if (fresh[k] > limit) {
                    printf "bench gate: REGRESSION %s: %.0f ns/iter exceeds %.0f (best committed %.0f +%s%%)\n", \
                        k, fresh[k], limit, best[k], pct
                    bad = 1
                } else {
                    printf "bench gate: ok %s: %.0f ns/iter (best committed %.0f)\n", \
                        k, fresh[k], best[k]
                }
            } else {
                printf "bench gate: new point %s: %.0f ns/iter (no committed prior)\n", k, fresh[k]
            }
        }
        exit bad
    }
' BENCH_*.json "$fresh"

stage="done"
echo "bench gate: OK"
