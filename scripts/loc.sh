#!/bin/sh
# Code lines per file, counted one way: lines that are neither blank nor
# `//` comments, up to (not including) a file's trailing `#[cfg(test)]
# mod tests`. This is the count CHANGES.md reports as "code lines
# before -> after".
#
#   scripts/loc.sh PATH...        one "count path" line each, then a total
#   scripts/loc.sh --crates       one "count crate" line per library crate
#                                 (every .rs file under crates/NAME/src),
#                                 largest first, then their total, then
#                                 crates/bench, which the total leaves out
set -eu

# Code lines of one file.
count() {
    awk '
        /^mod tests/ { if (cfg) n--; exit }
        { cfg = ($0 ~ /^#\[cfg\(test\)\]/) }
        /^[[:space:]]*(\/\/|$)/ { next }
        { n++ }
        END { print n + 0 }' "$1"
}

# Code lines of every .rs file under a directory.
count_tree() {
    n=0
    for f in $(find "$1" -name '*.rs' | sort); do
        n=$((n + $(count "$f")))
    done
    echo "$n"
}

if [ "${1:-}" = "--crates" ]; then
    [ $# -eq 1 ] || { echo "usage: scripts/loc.sh --crates" >&2; exit 2; }
    cd "$(dirname "$0")/.."
    for d in crates/*/src; do
        crate=${d#crates/}
        crate=${crate%/src}
        [ "$crate" != bench ] || continue
        printf '%6d %s\n' "$(count_tree "$d")" "$crate"
    done | sort -k1,1nr -k2,2 | awk '{ print; t += $1 } END { printf "%6d total\n", t }'
    printf '%6d bench (not in the total)\n' "$(count_tree crates/bench/src)"
    exit 0
fi

[ $# -gt 0 ] || { echo "usage: scripts/loc.sh PATH... | --crates" >&2; exit 2; }
total=0
for f in "$@"; do
    n=$(count "$f")
    printf '%6d %s\n' "$n" "$f"
    total=$((total + n))
done
[ $# -eq 1 ] || printf '%6d total\n' "$total"
