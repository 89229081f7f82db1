#!/bin/sh
# `make check` / `make bench` must leave the working tree as they found
# it: a gate that rewrites a tracked file (timing noise in a results/
# record, a stale generated report) fails the gate, not the next reviewer.
#
#   tools/check-clean.sh snapshot   record the tree state
#   tools/check-clean.sh verify     compare against the record; print the
#                                   files that differ and exit 1 if any
#
# The state is `git status --porcelain` plus a checksum of `git diff` and
# of every modified or untracked file, so it works on an uncommitted tree
# too: only what the target itself changed shows up.
set -eu
cd "$(dirname "$0")/.."
before=target/tree-state.before
after=target/tree-state.after

state() {
    git status --porcelain
    echo "diff $(git diff | cksum)"
    git ls-files -m -o --exclude-standard | LC_ALL=C sort -u | while read -r f; do
        if [ -f "$f" ]; then cksum "$f"; fi
    done
}

mkdir -p target
case "${1:-}" in
snapshot)
    state > "$before"
    ;;
verify)
    state > "$after"
    if ! cmp -s "$before" "$after"; then
        echo "check-clean: FAILED — the working tree changed under this target:" >&2
        diff "$before" "$after" | grep '^[<>]' | grep -v '^[<>] diff ' >&2 || true
        exit 1
    fi
    echo "check-clean: working tree unchanged"
    ;;
*)
    echo "usage: $0 snapshot|verify" >&2
    exit 2
    ;;
esac
