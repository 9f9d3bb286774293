#!/usr/bin/env bash
# The one-mechanism guards: every row of scripts/guards.tsv names a
# mechanism this codebase deliberately has exactly one of, and an ERE that
# matches the retired second one. A match anywhere under the row's paths,
# outside its exempt prefix, fails the run. CHANGES.md, ROADMAP.md and the
# ledger's bench/ are never searched: they may name what was removed.
#
#   scripts/guards.sh    # every row; prints the matches and exits 1 on any
#
# Columns (tab-separated, `-` for none): name, ERE, case flag (`-i`),
# paths (space-separated), exempt path prefix, and the change that
# removed the mechanism.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
rows=0
while IFS=$'\t' read -r name ere flag paths exempt removed; do
    [[ -z "$name" || "$name" == \#* ]] && continue
    rows=$((rows + 1))
    opts=(-rnIE)
    [[ "$flag" == -i ]] && opts+=(-i)
    # `paths` is a space-separated list: split it on purpose.
    # shellcheck disable=SC2086
    hits=$(grep "${opts[@]}" -e "$ere" -- $paths || true)
    if [[ "$exempt" != - ]]; then
        hits=$(grep -v "^$exempt" <<<"$hits" || true)
    fi
    if [[ -n "$hits" ]]; then
        echo "$hits"
        echo "guard '$name' failed: the retired second mechanism is back (removed by \"$removed\")" >&2
        status=1
    fi
done <scripts/guards.tsv

if [[ $status == 0 ]]; then
    echo "guards: $rows rows, no match"
fi
exit $status
