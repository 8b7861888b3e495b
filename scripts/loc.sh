#!/bin/sh
# Code lines per file, counted one way: lines that are neither blank nor
# `//` comments, up to (not including) a file's trailing `#[cfg(test)]
# mod tests`. This is the count CHANGES.md reports as "code lines
# before -> after".
#
#   scripts/loc.sh PATH...        one "count path" line each, then a total
set -eu
[ $# -gt 0 ] || { echo "usage: scripts/loc.sh PATH..." >&2; exit 2; }
total=0
for f in "$@"; do
    n=$(awk '
        /^mod tests/ { if (cfg) n--; exit }
        { cfg = ($0 ~ /^#\[cfg\(test\)\]/) }
        /^[[:space:]]*(\/\/|$)/ { next }
        { n++ }
        END { print n + 0 }' "$f")
    printf '%6d %s\n' "$n" "$f"
    total=$((total + n))
done
[ $# -eq 1 ] || printf '%6d total\n' "$total"
