#!/usr/bin/env bash
# Table-by-table comparison of two builds of `reproduce`: the gate for a change
# meant to leave every experiment's output alone.
#
#   reproduce_diff.sh <reproduce_A> <reproduce_B> <experiment>...
#
# A is the parent, B the change. Runs each binary once over the experiments
# with `--csv` into its own temporary directory, drops any `wall (s)` column
# (host wall clock) by its header, diffs the tables file by file, and exits 1
# on any difference — a table missing on one side included.
#
# A non-smoke gecko_query, merge_latency or multi_tenant rewrites the
# BENCH_*.json of the checkout each binary was built from (the path is
# compiled in): run it on clean checkouts and look at `git status` after.
set -euo pipefail
if [ "$#" -lt 3 ]; then
    sed -n '2,15p' "$0" >&2
    exit 2
fi
bin_a=$1 bin_b=$2
shift 2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for side in a b; do
    bin=$bin_a
    [ "$side" = b ] && bin=$bin_b
    "$bin" "$@" --csv "$tmp/$side" >/dev/null 2>"$tmp/$side.err" ||
        { cat "$tmp/$side.err" >&2; echo "$bin failed" >&2; exit 2; }
done

strip_wall() { # <csv> -> the table without its `wall (s)` column
    # Cells are not quoted and a variant name may hold a comma, so the
    # column is located by its distance from the end of the line.
    awk -F, '
        NR == 2 { for (i = 1; i <= NF; i++) if ($i == "wall (s)") from_end = NF - i + 1 }
        NR == 1 || !from_end { print; next }
        { line = ""; sep = ""
          for (i = 1; i <= NF; i++) if (i != NF - from_end + 1) { line = line sep $i; sep = "," }
          print line }' "$1"
}

differ=0
for table in $( (ls "$tmp/a"; ls "$tmp/b") | sort -u); do
    if [ ! -f "$tmp/a/$table" ] || [ ! -f "$tmp/b/$table" ]; then
        echo "DIFFERS  $table: written by one binary only"
        differ=1
    elif diff <(strip_wall "$tmp/a/$table") <(strip_wall "$tmp/b/$table") >"$tmp/diff"; then
        echo "=        $table"
    else
        echo "DIFFERS  $table"
        sed 's/^/    /' "$tmp/diff"
        differ=1
    fi
done
[ "$differ" = 0 ] && echo "every table equal ($# experiment(s))" || exit 1
