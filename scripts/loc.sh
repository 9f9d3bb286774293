#!/usr/bin/env bash
# The ROADMAP aim-2 size metric: lines of Rust under
# crates/{engine,store,serve}/src, in total and cut at each file's first
# `#[cfg(test)]` (non-test). A PR that collapses a duplicate mechanism
# reports both numbers, before and after, in CHANGES.md.
#
# Second row (ROADMAP item 1 PR A's "28 by grep", made mechanical):
# `unwrap()` / `expect(` / `unreachable!` sites in the non-test part of
# the commit and serving paths — store/src/group.rs, serve/src/server.rs
# and serve/src/replica.rs.
#
#   scripts/loc.sh               # this tree:  "total 19003  non-test 14177"
#   scripts/loc.sh --base <rev>  # "<rev> → this tree" for every number; the
#                                # base tree is read with `git archive`,
#                                # nothing is checked out
set -euo pipefail
cd "$(dirname "$0")/.."

SIZE_DIRS=(crates/engine/src crates/store/src crates/serve/src)
PANIC_FILES=(crates/store/src/group.rs crates/serve/src/server.rs crates/serve/src/replica.rs)

# "<total> <non-test> <panic sites>" for the tree rooted at $1.
measure() {
    local size panics
    size=$(cd "$1" && find "${SIZE_DIRS[@]}" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        { total++ }
        !in_tests { non_test++ }
        END { printf "%d %d", total, non_test }')
    # A file the base does not have yet counts as empty.
    panics=$(cd "$1" && for f in "${PANIC_FILES[@]}"; do [ -f "$f" ] && echo "$f"; done |
        xargs -r awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests { n += gsub(/unwrap\(\)|expect\(|unreachable!/, "") }
        END { printf "%d", n }')
    echo "$size ${panics:-0}"
}

read -r total non_test panics <<<"$(measure .)"
case "${1:-}" in
"")
    echo "total $total  non-test $non_test"
    echo "panic sites (group.rs + server.rs + replica.rs, non-test) $panics"
    ;;
--base)
    rev=${2:?usage: scripts/loc.sh --base <rev>}
    base=$(mktemp -d)
    trap 'rm -rf "$base"' EXIT
    git archive "$rev" "${SIZE_DIRS[@]}" | tar -x -C "$base"
    read -r b_total b_non_test b_panics <<<"$(measure "$base")"
    echo "total $b_total → $total ($((total - b_total)))  non-test $b_non_test → $non_test ($((non_test - b_non_test)))"
    echo "panic sites (group.rs + server.rs + replica.rs, non-test) $b_panics → $panics ($((panics - b_panics)))"
    ;;
*)
    echo "usage: scripts/loc.sh [--base <rev>]" >&2
    exit 2
    ;;
esac
