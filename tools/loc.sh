#!/bin/sh
# Non-test line counts per crate and per file (`make loc`).
#
# A file's non-test lines are the lines before its first `#[cfg(test)]`;
# only `crates/*/src/**/*.rs` counts (tests/ and benches/ are excluded).
# Written to results/loc.json — the standing "report non-test line delta
# per crate" gate of ROADMAP.md: diff it against the parent commit's.
set -eu
cd "$(dirname "$0")/.."
out=results/loc.json
find crates -path 'crates/*/src/*' -name '*.rs' | LC_ALL=C sort | while read -r f; do
    n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
    echo "$f $n"
done | awk '
    {
        split($1, part, "/"); crate = part[2]
        if (!(crate in total)) order[++ncrates] = crate
        total[crate] += $2; all += $2
        files[crate] = files[crate] sprintf("%s\n      \"%s\": %d", (files[crate] == "" ? "" : ","), $1, $2)
    }
    END {
        printf "{\n  \"non_test_lines\": %d,\n  \"crates\": {", all
        for (i = 1; i <= ncrates; i++) {
            c = order[i]
            printf "%s\n    \"%s\": {\"non_test_lines\": %d, \"files\": {%s\n    }}", (i > 1 ? "," : ""), c, total[c], files[c]
        }
        printf "\n  }\n}\n"
    }' > "$out"
awk -F'"' '/^    "[a-z]+": \{"non_test_lines"/ { split($0, a, ": "); sub(/,.*/, "", a[3]); printf "%-10s %6d\n", $2, a[3] }' "$out"
echo "wrote $out"
