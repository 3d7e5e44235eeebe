#!/usr/bin/env bash
# Mutation check: does the test suite notice a planted fault?
#
# Each mutant below is a literal before/after snippet in one source file.
# The script copies the working tree (tracked and untracked files, not
# ignored ones) to a temporary directory once, then for each mutant in
# turn writes the mutated file, runs the workspace tests in the copy,
# and writes the original back. A mutant is
#
#   killed       some test failed,
#   SURVIVED     every test passed (the suite cannot see this fault),
#   unbuildable  the mutated tree does not compile (fix the snippet),
#   stale        its `before` snippet is not in the file exactly once.
#
# Usage:
#   scripts/mutants.sh            # every mutant
#   scripts/mutants.sh NAME...    # only the named mutants
#   scripts/mutants.sh --list     # names, files and snippets
#
# Prints one line per mutant and exits non-zero if any mutant survived,
# was unbuildable or is stale. The mutants share the copy and its target
# directory, so only the first pays for a cold build. Not part of
# verify.sh: a full pass runs the workspace suite once per mutant.
set -euo pipefail
cd "$(dirname "$0")/.."

names=()
files=()
befores=()
afters=()
mutant() {
    names+=("$1")
    files+=("$2")
    befores+=("$3")
    afters+=("$4")
}

# Slot-by-slot catch-up: a slot due at tick k is advanced from its own
# frontier, not from the catch-up base.
mutant catchup-from-base crates/overlay/src/probe_lazy.rs \
    'advance_slot(est, i, ctx, nodes, own, *at, k);' \
    'advance_slot(est, i, ctx, nodes, own, *synced_tick, k);'
# ... and maintains the due set, not the slots whose (stale, lagging)
# silence gap reads over the threshold.
mutant catchup-threshold-test crates/overlay/src/probe_lazy.rs \
    '|_, i| due_cache[i] == k)' \
    '|e, i| e.rounds - e.last_alive_round[i] >= thr)'
# A session starting at or before the window counts the window's first
# tick, not the frontier tick itself.
mutant tick-range-off-by-one crates/overlay/src/probe_lazy.rs \
    '            self.after + 1' \
    '            self.after'
# The O(1) tick search returns the estimate only once the next tick is
# checked to lie past t. The same check in the other two helpers
# (`tick(k + 1) >= t` after `tick(k) < t`) cannot fail for a positive
# period, so dropping it there is an equivalent mutant: `t > tick(k + 1)`
# would put `t / period` past `k + 1`, and its rounding at or past it.
mutant tick-bracket-unchecked crates/overlay/src/probe_lazy.rs \
    'if at <= t && tick_time(k + 1, period) > t {' \
    'if at <= t {'
# Crowds forwards again with probability p_f, not 1 - p_f.
mutant crowds-coin-inverted crates/core/src/routing.rs \
    'hops_so_far == 0 || coin < p_forward' \
    'hops_so_far == 0 || coin >= p_forward'
# The intersection attack drops every candidate not active now.
mutant intersection-keeps-all crates/core/src/adversary.rs \
    'Some(c) => c.retain(|&n| is_active(n)),' \
    'Some(c) => c.retain(|_| true),'
# Settlement validates the pending evidence before paying.
mutant settle-skipped crates/sim/src/runner.rs \
    'let report = validator.settle();' \
    'let report = idpa_payment::ValidationReport::default();'
# q = w_s·σ + w_a·α, not w_a·σ + w_s·α.
mutant weights-swapped crates/core/src/quality.rs \
    'self.weights.ws * selectivity + self.weights.wa * availability' \
    'self.weights.wa * selectivity + self.weights.ws * availability'
# Model I charges the transmission cost C^t.
mutant transmission-cost-dropped crates/core/src/utility.rs \
    'pf + edge_quality * pr - (cp + ct)' \
    'pf + edge_quality * pr - cp'
# Model II scores a candidate by the whole continuation path, not by its
# first edge alone.
mutant continuation-dropped crates/core/src/routing.rs \
    '(q_first_edge + total) / (1.0 + edges as f64)' \
    'q_first_edge'
# Backward induction keeps the first maximiser, not the last.
mutant spne-tiebreak-last crates/gametheory/src/extensive.rs \
    'if u > best_u + 1e-12 {' \
    'if u >= best_u - 1e-12 {'
# Each forwarder gets P_r/‖π‖, not all of P_r.
mutant routing-share-undivided crates/core/src/bundle.rs \
    'let routing_share = pr / set as f64;' \
    'let routing_share = pr;'
# The audit-chain check covers every link, the last one included.
mutant audit-last-link-unchecked crates/payment/src/audit.rs \
    'if expect != entry.hash {' \
    'if expect != entry.hash && i + 1 < self.entries.len() {'
# Every recorded op reaches the audit chain, not only the WAL.
mutant audit-record-skipped crates/payment/src/ledger.rs \
    'self.audit.push(op, payload);' \
    'let _ = (op, payload);'
# An epoch net must sum to zero, not only stay clear of overflow.
mutant epoch-net-sum-unchecked crates/payment/src/ledger.rs \
    'if sum != Some(0) {' \
    'if sum.is_none() {'
# SHA-256's scalar σ0 rotates by 7. On a CPU with the SHA extensions the
# scalar kernel runs only in the kernel-differential tests.
mutant sha256-scalar-sigma0 crates/crypto/src/sha256.rs \
    'w[i - 15].rotate_right(7)' \
    'w[i - 15].rotate_right(6)'
# The hardware kernel adds the input state back into a, b, e, f.
mutant sha256-hw-no-feed-forward crates/crypto/src/sha256.rs \
    'abef = _mm_add_epi32(abef, abef_save);' \
    ''
# A receipt pays its hop only if it names the forwarder the manifest
# places there.
mutant receipt-forwarder-unchecked crates/payment/src/validation.rs \
    'r.bundle_id == self.bundle_id && r.forwarder == account && r.verify(key)' \
    'r.bundle_id == self.bundle_id && r.verify(key)'
# An escrow never pays out more than it holds.
mutant escrow-overclaim-unchecked crates/payment/src/escrow.rs \
    'if owed > self.funded {' \
    'if false {'
# A deposit never credits more than the outstanding bearer liability.
mutant deposit-outstanding-unchecked crates/payment/src/ledger.rs \
    'let Some(outstanding) = self.outstanding.checked_sub(value) else {' \
    'let Some(outstanding) = Some(self.outstanding.saturating_sub(value)) else {'
# A deposit never credits a balance past u64::MAX.
mutant credit-overflow-unchecked crates/payment/src/ledger.rs \
    'let Some(credited) = balance.checked_add(value) else {' \
    'let Some(credited) = Some(balance.wrapping_add(value)) else {'
# A deposit verifies the token's bank signature.
mutant deposit-signature-unchecked crates/payment/src/bank.rs \
    'if !token.verify(self.keys.public()) {' \
    'if false {'
# The adaptive response retries a failed attempt like the static one.
mutant adaptive-never-retries crates/sim/src/runner.rs \
    'if attempt < fr.plan.config().max_retries {' \
    'if attempt < fr.plan.config().max_retries && !adaptive {'
# Adaptive initiators flag a receipt corrupter as soon as its evidence
# comes back, not only at settlement.
mutant adaptive-cheater-feedback-off crates/sim/src/runner.rs \
    'if fr.adaptive() && corrupt_from.is_some() {' \
    'if false && corrupt_from.is_some() {'
# A whitewash drops the relay's ledger entry, so the fresh identity
# reads clean.
mutant whitewash-keeps-entry crates/core/src/reputation.rs \
    'self.observed.remove(&v.index());' \
    ''
# Snapshot decoding: a sorted export must ascend strictly, ...
mutant snapshot-keys-not-strict crates/sim/src/snapshot.rs \
    'is_sorted_by(|a, b| a < b)' \
    'is_sorted_by(|a, b| a <= b)'
# ... a node index must lie below N, ...
mutant snapshot-node-unchecked crates/sim/src/snapshot.rs \
    'index(d, b.nodes, "node index").map(NodeId)' \
    'Ok(NodeId(d.usize()?))'
# ... a float must be finite, ...
mutant snapshot-nan-accepted crates/sim/src/snapshot.rs \
    'check(v.is_finite(), "non-finite float")?;' \
    ''
# ... a per-node or per-pair sequence must have exactly that length, ...
mutant snapshot-length-unchecked crates/sim/src/snapshot.rs \
    'check(run.crashed_until.len() == n_crashed, "crash overlay length")?;' \
    ''
# ... no calendar entry may lie before the clock, ...
mutant snapshot-calendar-past crates/sim/src/snapshot.rs \
    'let ok = entries.iter().all(|e| e.0 >= now);' \
    'let ok = entries.iter().all(|e| e.0 >= SimTime::ZERO);'
# ... and an optional section must be present exactly when the scenario
# has it.
mutant snapshot-presence-ignored crates/sim/src/snapshot.rs \
    '_ => return Err(mismatch("idle eviction")),' \
    '_ => {}'

if [ "${1:-}" = "--list" ]; then
    for i in "${!names[@]}"; do
        printf '%s  %s\n  - %s\n  + %s\n' "${names[$i]}" "${files[$i]}" \
            "${befores[$i]}" "${afters[$i]}"
    done
    exit 0
fi

selected=()
if [ "$#" -eq 0 ]; then
    selected=("${!names[@]}")
else
    for want in "$@"; do
        found=""
        for i in "${!names[@]}"; do
            if [ "${names[$i]}" = "$want" ]; then
                selected+=("$i")
                found=1
            fi
        done
        if [ -z "$found" ]; then
            echo "mutants: no mutant named '$want' (see --list)" >&2
            exit 2
        fi
    done
fi

work=$(mktemp -d "${TMPDIR:-/tmp}/idpa-mutants.XXXXXX")
trap 'rm -rf "$work"' EXIT
copy="$work/repo"
mkdir -p "$copy"
# Tracked and untracked files as they are in the working tree; a file
# deleted but not yet committed is skipped.
git ls-files -z -co --exclude-standard |
    while IFS= read -r -d '' f; do
        if [ -e "$f" ]; then printf '%s\0' "$f"; fi
    done |
    tar -cf - --null -T - | tar -xf - -C "$copy"
export CARGO_TARGET_DIR="$work/target"

survivors=0
broken=0
for i in "${selected[@]}"; do
    name=${names[$i]}
    file="$copy/${files[$i]}"
    before=${befores[$i]}
    after=${afters[$i]}
    # The `x` keeps the file's trailing newlines through $(...).
    original=$(cat "$file"; printf x)
    original=${original%x}
    rest=${original//"$before"/}
    count=$(((${#original} - ${#rest}) / ${#before}))
    if [ "$count" -ne 1 ]; then
        printf '%-28s stale (snippet found %d times in %s)\n' "$name" "$count" "${files[$i]}"
        broken=$((broken + 1))
        continue
    fi
    printf '%s' "${original/"$before"/"$after"}" > "$file"
    log="$work/$name.log"
    if ! (cd "$copy" && cargo test -q --offline --workspace --no-run) > "$log" 2>&1; then
        result="unbuildable"
        broken=$((broken + 1))
        tail -n 20 "$log" >&2
    elif (cd "$copy" && cargo test -q --offline --workspace) >> "$log" 2>&1; then
        result="SURVIVED"
        survivors=$((survivors + 1))
    else
        # The first failing test, as cargo names it.
        first=$(sed -n 's/^---- \(.*\) stdout ----$/\1/p' "$log" | head -n 1)
        result="killed${first:+ by $first}"
    fi
    # Written back, not restored from the copy's archive, so the file gets
    # a new mtime and cargo rebuilds it for the next mutant.
    printf '%s' "$original" > "$file"
    printf '%-28s %s\n' "$name" "$result"
done

echo "mutants: ${#selected[@]} run, $survivors survived, $broken stale or unbuildable"
[ "$survivors" -eq 0 ] && [ "$broken" -eq 0 ]
