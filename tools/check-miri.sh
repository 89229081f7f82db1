#!/bin/sh
# Run a curated set of unsafe-bearing test suites under Miri
# (`cargo +nightly miri test`), the strictest UB checker available for
# the SharedSlice / coeftab pointer code.
#
# Miri needs a nightly toolchain with the miri component. When either is
# missing (offline containers cannot `rustup component add miri`), the
# gate SKIPS with a visible warning instead of failing: the loom and TSan
# gates still cover the concurrency half, and Miri runs wherever the
# component exists (developer machines, CI with network).
#
# Usage: tools/check-miri.sh

set -eu
cd "$(dirname "$0")/.."

if ! command -v cargo >/dev/null 2>&1; then
    echo "check-miri: WARNING: cargo not found — SKIPPED" >&2
    exit 0
fi
if ! cargo +nightly miri --version >/dev/null 2>&1; then
    echo "check-miri: WARNING: 'cargo +nightly miri' unavailable (no nightly" >&2
    echo "check-miri: toolchain or miri component not installed) — SKIPPED." >&2
    echo "check-miri: install with: rustup +nightly component add miri" >&2
    exit 0
fi

# Curated: the suites that exercise unsafe code, kept small because Miri
# is ~100x slower than native. Isolation stays on (no files, no clocks
# needed by these tests beyond what -Zmiri-disable-isolation would give).
#
# One invocation per filter, and each must run at least one test: a
# filter that matches nothing (a renamed module, a deleted suite) fails
# the gate instead of passing vacuously.
log=$(mktemp)
trap 'rm -f "$log"' EXIT
miri_suite() {
    echo "check-miri: $*"
    MIRIFLAGS="-Zmiri-disable-isolation" cargo +nightly miri test "$@" >"$log" 2>&1 || {
        cat "$log"
        exit 1
    }
    cat "$log"
    if ! grep -Eq '^test result: ok\. [1-9][0-9]* passed' "$log"; then
        echo "check-miri: FAILED: 'miri test $*' did not pass a single test" >&2
        exit 1
    fi
}
miri_suite -p dagfact-rt shared::
miri_suite -p dagfact-rt sync::
miri_suite -p dagfact-kernels potrf
miri_suite -p dagfact-kernels gemm
# The triangular solve's read-only factor pins, with its columns in 1, 2
# and 4 groups on scoped threads (the table shrinks its problems under
# `cfg(miri)`).
miri_suite -p dagfact-core --test solve solve_table
echo "check-miri: clean"
