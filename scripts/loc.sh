#!/usr/bin/env bash
# Non-test line count per crate and in total.
#
# A file's non-test lines are its lines up to (not including) its first
# top-level `#[cfg(test)]` attribute, or all of its lines if it has none.
# Every `crates/*/src/**/*.rs` file is counted; integration tests, benches,
# examples and the facade crate are not.
#
# Usage: scripts/loc.sh [REPO_ROOT]   (defaults to this script's repository)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

total=0
rows=""
for dir in crates/*/; do
    crate=$(basename "$dir")
    [ -d "$dir/src" ] || continue
    n=$(find "$dir/src" -name '*.rs' -print0 | sort -z \
        | xargs -0 awk 'FNR == 1 { counting = 1 }
                        /^#\[cfg\(test\)\]/ { counting = 0 }
                        counting { n++ }
                        END { print n + 0 }')
    rows+="$n $crate"$'\n'
    total=$((total + n))
done
printf '%s' "$rows" | sort -rn | awk '{ printf "%-12s %6d\n", $2, $1 }'
printf '%-12s %6d\n' total "$total"
