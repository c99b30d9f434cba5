#!/usr/bin/env sh
# Non-test Rust lines per crate: every line (code, comments, blanks) of
# crates/*/src/**/*.rs that is not inside a `#[cfg(test)]` item. The
# attribute line and the item it heads are dropped by brace matching —
# up to the `}` that closes the item's first `{`, or its `;` if it has
# no body. `tests/` and `benches/` are not under `src/` and so never
# counted. Each file is matched on its own: the state resets at every
# file boundary, so a miscount cannot carry into the next file. Braces
# in strings and comments are not understood; a test module whose
# strings leave braces unbalanced is counted right only because it is
# the last item of its file.
#
#   scripts/loc.sh                  every crate, then the total
#   scripts/loc.sh sim soc          those crates, then their total
#   scripts/loc.sh -C <tree> ...    the same for another checkout
#
# Reported, never gated on: a PR that says "net-negative" quotes parent
# and change from here.
set -eu

root="$(dirname "$0")/.."
if [ "${1:-}" = "-C" ]; then
    root="$2"
    shift 2
fi
cd "$root"

if [ "$#" -eq 0 ]; then
    set -- $(ls crates)
fi

total=0
for crate in "$@"; do
    n="$(find "crates/$crate/src" -name '*.rs' -exec awk '
        FNR == 1 { skipping = 0; opened = 0; depth = 0 }
        !skipping && /^[[:space:]]*#\[cfg\(test\)\]/ {
            skipping = 1; opened = 0; depth = 0
            sub(/^[[:space:]]*#\[cfg\(test\)\]/, "")
            if ($0 ~ /^[[:space:]]*$/) next
        }
        skipping && !opened {
            # Between the attribute and the item body (more attributes,
            # a signature spread over lines).
            if (index($0, "{")) opened = 1
            else { if ($0 ~ /;[[:space:]]*$/) skipping = 0; next }
        }
        skipping {
            line = $0
            depth += gsub(/\{/, "", line) - gsub(/\}/, "", line)
            if (depth <= 0) { skipping = 0; opened = 0 }
            next
        }
        { kept++ }
        END { print kept + 0 }
    ' {} + | awk '{ n += $1 } END { print n + 0 }')"
    printf '%-14s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-14s %6d\n' total "$total"
