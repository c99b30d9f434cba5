#!/usr/bin/env sh
# Mutation check of the differential oracle: breaks the simulator on
# purpose, one mutation of scripts/mutants.txt at a time, in a throwaway
# copy of the working tree, and runs only the oracle's test target
# (`cargo test -p craft-soc --test oracle`). A mutant is
#   caught        when the target fails and a failure names its field,
#   missed        when the target passes, or fails naming other fields,
#   build-failed  when the mutated tree does not compile,
# each printed with the seconds it took. The unmutated copy runs first
# and must pass. Exits non-zero unless every mutant is caught.
#
# Not a Tier-1 step: the copy builds the oracle's dependencies once
# (a few minutes on 2 cores), then each mutant rebuilds what its file
# feeds. Quote its output in a change that touches the contract.
#
#   scripts/mutants.sh                 every mutant in scripts/mutants.txt
#   scripts/mutants.sh <list>          the mutants of another list
#
# The copy goes under $TMPDIR (default /tmp) and is removed on exit.
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
list="${1:-$root/scripts/mutants.txt}"
work="$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")"
trap 'rm -rf "$work"' EXIT INT TERM

# The working tree as it stands, without build outputs or git.
(cd "$root" && tar -cf - --exclude=./.git --exclude=target .) | tar -xf - -C "$work"

log="$work/mutant.log"
oracle() {
    (cd "$work" && cargo test -q -p craft-soc --test oracle "$@") >"$log" 2>&1
}

start=$(date +%s)
if ! oracle --no-run || ! oracle; then
    tail -n 30 "$log"
    echo "the unmutated oracle does not pass; no mutant can be judged" >&2
    exit 1
fi
echo "baseline   $(($(date +%s) - start)) s  the unmutated tree passes"

# Applies one mutant to the copy, from the pristine file of the tree.
apply() {
    cp "$root/$file" "$work/$file"
    FIND="$find" REPLACE="$replace" perl -0777 -i -pe '
        BEGIN { ($f, $r) = @ENV{qw(FIND REPLACE)} }
        my $at = index($_, $f);
        die "not found\n" if $at < 0;
        die "not unique\n" if index($_, $f, $at + 1) >= 0;
        substr($_, $at, length $f) = $r;
    ' "$work/$file"
}

failed=0
run() {
    [ -n "$name" ] || return 0
    t0=$(date +%s)
    if ! apply; then
        verdict="bad-entry"
    elif ! oracle --no-run; then
        verdict="build-failed"
    elif oracle; then
        verdict="missed"
    elif grep -qF ": $field differs" "$log"; then
        verdict="caught"
    else
        verdict="missed"
    fi
    cp "$root/$file" "$work/$file"
    printf '%-12s %4s s  %s (%s)\n' "$verdict" "$(($(date +%s) - t0))" "$name" "$field"
    [ "$verdict" = caught ] || failed=$((failed + 1))
    name=""
}

name="" file="" find="" replace="" field=""
while IFS= read -r line || [ -n "$line" ]; do
    value="$(printf '%s' "${line#*:}" | sed 's/^ *//')"
    case "$line" in
        name:*) name="$value" ;;
        file:*) file="$value" ;;
        find:*) find="$value" ;;
        replace:*) replace="$value" ;;
        field:*) field="$value" ;;
        "") run ;;
    esac
done <"$list"
run

[ "$failed" -eq 0 ] || { echo "$failed mutant(s) not caught" >&2; exit 1; }
