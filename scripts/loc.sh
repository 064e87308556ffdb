#!/usr/bin/env bash
# Prints the line counts that simplification changes report, for the
# checkout at $1 (default: this repository):
#
#   program  lines of crates/*/src/**/*.rs outside src/bin, before each
#            file's first top-level `#[cfg(test)]`
#   tests    the rest of those files, plus crates/*/tests and tests/
#   bench    crates/*/src/bin and crates/*/benches
#
# Program lines are also broken down per crate. To report parent -> change,
# run it on the change and on a checkout of the parent, e.g.
#   git worktree add ../parent HEAD~1 && scripts/loc.sh ../parent; scripts/loc.sh
set -eu
cd "${1:-$(dirname "$0")/..}"

# Prints "<program> <test>" line totals over the given files.
split() {
    awk 'FNR == 1 { t = 0 } /^#\[cfg\(test\)\]/ { t = 1 } { if (t) test++; else prog++ }
         END { printf "%d %d\n", prog, test }' "$@" /dev/null
}
# Prints the total line count of every .rs file under the given paths.
count() {
    find "$@" -name '*.rs' -print0 2>/dev/null | xargs -0 cat /dev/null | wc -l
}

# Splits the library sources under the given src directories.
split_src() {
    local files
    mapfile -t files < <(find "$@" -name '*.rs' -not -path '*/src/bin/*' | sort)
    split "${files[@]}"
}

read -r program inline_tests < <(split_src crates/*/src)
tests=$((inline_tests + $(count crates/*/tests tests)))
bench=$(count crates/*/src/bin crates/*/benches)
printf 'program %d\ntests %d\nbench %d\n' "$program" "$tests" "$bench"
for crate in crates/*/; do
    read -r p _ < <(split_src "$crate/src")
    printf '  %-10s %d\n' "$(basename "$crate")" "$p"
done
