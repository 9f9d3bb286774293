#!/usr/bin/env bash
# The mutation score (ROADMAP aim 3): how many of the bugs planted by
# scripts/mutants.tsv the tier-1 tests catch. Each row is applied in turn
# to a copy of the tree read with `git archive` (as `loc.sh --base`
# reads its base; nothing is checked out), `cargo test -q` runs against
# it, and the row is reported
#
#   killed      a test failed (or the mutant did not build)
#   survived    every test passed: a hole in the batteries
#   equivalent  every test passed, and the row argues no test can fail
#
# followed by the score. The release build of tier-1 is skipped: it can
# only fail where `cargo test` fails too.
#
#   scripts/mutants.sh [<rev>]   # default HEAD; exits 1 if any row survived
#
# Environment: MUTANTS_DIR (the copy and its build; default a temporary
# directory, removed afterwards), MUTANTS_ONLY=<n>[,<n>...] (those rows
# only, 1-based: MUTANTS_ONLY=15,16,17).
set -euo pipefail
cd "$(dirname "$0")/.."
shopt -u patsub_replacement 2>/dev/null || true

rev=${1:-HEAD}
table=$PWD/scripts/mutants.tsv
work=${MUTANTS_DIR:-}
if [[ -z "$work" ]]; then
    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
fi
rm -rf "$work/tree"
mkdir -p "$work/tree"
git archive "$rev" | tar -x -C "$work/tree"
export CARGO_TARGET_DIR=$work/target

run_tests() { (cd "$work/tree" && cargo test -q </dev/null >"$work/log" 2>&1); }

echo "tier-1 on the unmutated tree ($rev)…"
if ! run_tests; then
    tail -20 "$work/log" >&2
    echo "the unmutated tree fails tier-1: no mutant can be judged" >&2
    exit 2
fi

killed=0 survived=0 equivalent=0 n=0
while IFS=$'\t' read -r file original replacement invariant; do
    [[ -z "$file" || "$file" == \#* ]] && continue
    n=$((n + 1))
    [[ -n "${MUTANTS_ONLY:-}" && ",$MUTANTS_ONLY," != *",$n,"* ]] && continue
    path=$work/tree/$file
    pristine=$(
        cat "$path"
        printf x
    )
    pristine=${pristine%x}
    rest=${pristine#*"$original"}
    if [[ "$rest" == "$pristine" || "$rest" == *"$original"* ]]; then
        echo "row $n: the original text must occur exactly once in $file" >&2
        exit 2
    fi
    printf '%s' "${pristine/"$original"/"$replacement"}" >"$path"
    if run_tests; then
        if [[ "$invariant" == equivalent:* ]]; then
            outcome=equivalent equivalent=$((equivalent + 1))
        else
            outcome=survived survived=$((survived + 1))
        fi
    else
        outcome=killed killed=$((killed + 1))
    fi
    printf '%s' "$pristine" >"$path"
    printf '%-10s %2d  %s: %s\n' "$outcome" "$n" "$file" "$invariant"
done <"$table"

echo "mutants: $killed killed, $survived survived, $equivalent equivalent"
[[ $survived == 0 ]]
