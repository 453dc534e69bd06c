#!/usr/bin/env bash
# Exact comparison of two builds of the repo benchmark on the simulated clock:
# the ten simulated end-to-end metrics are a function of the workload and the
# seed alone (the measured window is op-counted), so one short run of each
# binary per seed decides whether a change moved them — no pairs, no spread.
#
#   sim_diff.sh [--moving-metric <metric> | --bounds] <bench_dir_A> <binary_A> <bench_dir_B> <binary_B> <workload> <seed>... [<moving_workload>]
#
# A is the parent, B the change; build and copy the executables as for
# ab_pairs.sh. Prints, per seed, every simulated end-to-end metric old → new
# with the relative change, and exits 1 if any differs. A trailing workload
# name says which one workload the change is meant to move: on that workload a
# difference is the expected result and it is *no* difference that exits 1.
# --moving-metric names the one metric the change is meant to move: it exits 1
# if any other metric differs, or if <metric> differs on no seed.
# --bounds is for a change that re-blesses, so any metric may move: it marks
# and exits 1 on a metric worse than at A by more than its end_to_end bound in
# BENCHMARK.json, on any seed (no trailing workload name then).
set -euo pipefail
usage() { sed -n '2,18p' "$0" >&2; exit 2; }
moving_metric= bounds=
case ${1:-} in
--moving-metric)
    [ "$#" -ge 2 ] || usage
    moving_metric=$2
    shift 2
    ;;
--bounds)
    # "<metric> <better> <bound>" per end_to_end entry, one entry per line.
    bounds=$(awk -F'"' '/"bound"/ {
        for (i = 1; i < NF; i++) { if ($i == "name") n = $(i + 2); if ($i == "better") b = $(i + 2) }
        match($0, /"bound": *[0-9.]+/); v = substr($0, RSTART, RLENGTH); sub(/.*: */, "", v)
        print n, b, v }' "$(dirname "$0")/../BENCHMARK.json")
    [ -n "$bounds" ] || { echo "no end_to_end bounds in BENCHMARK.json" >&2; exit 2; }
    shift
    ;;
esac
[ "$#" -ge 6 ] || usage
dir_a=$1 bin_a=$2 dir_b=$3 bin_b=$4 workload=$5
shift 5
moving=
case ${!#} in
'' | *[!0-9]*)
    [ -z "$bounds" ] || usage
    moving=${!#}
    set -- "${@:1:$#-1}"
    ;;
esac
[ "$#" -ge 1 ] || { echo "no seed given" >&2; exit 2; }

run() { # <bench_dir> <binary> <seed> -> "metric value" lines
    GECKO_BENCH_DIR=$1 "$2" --workload "$workload" --seed "$3" --seconds 1 --trace 0 |
        awk '$1 ~ /^(sim_|write_amp$|ram_bytes$|recovery_sim_ms$)/ && NF == 3 { print $1, $2 }'
}

moved=0 metric_moved=0 beyond=0
for seed in "$@"; do
    echo "$workload seed $seed"
    a=$(run "$dir_a" "$bin_a" "$seed")
    b=$(run "$dir_b" "$bin_b" "$seed")
    [ -n "$a" ] && [ "$(wc -l <<<"$a")" = "$(wc -l <<<"$b")" ] ||
        { echo "the two binaries printed different metric sets" >&2; exit 2; }
    # Exit status: bit 0 = a metric other than --moving-metric differs,
    # bit 1 = --moving-metric differs, bit 2 = a metric is worse than its
    # bound (--bounds).
    rc=0
    paste -d' ' <(echo "$a") <(echo "$b") | awk -v named="$moving_metric" -v bounds="$bounds" '
        BEGIN { n = split(bounds, line, "\n")
                for (i = 1; i <= n; i++) { split(line[i], f, " "); better[f[1]] = f[2]; bound[f[1]] = f[3] } }
        { same = $2 "" == $4 "" # as printed, to the last digit
          change = $2 == 0 ? 0 : $4 / $2 - 1
          worse = better[$1] == "lower" ? change : -change
          over = !same && ($1 in bound) && worse > bound[$1]
          printf "  %-28s %-20s -> %-20s %s%s\n", $1, $2, $4,
              same ? "=" : sprintf("%+.2f %%", change * 100),
              over ? sprintf("  WORSE than its %g %% bound", bound[$1] * 100) : ""
          if (over) beyond = 4
          if (!same && $1 == named) hit = 2
          else if (!same) other = 1 }
        END { exit other + hit + beyond }' || rc=$?
    [ $((rc & 1)) = 0 ] || moved=1
    [ $((rc & 2)) = 0 ] || metric_moved=1
    [ $((rc & 4)) = 0 ] || beyond=1
done

if [ -n "$bounds" ]; then
    if [ "$beyond" = 1 ]; then
        echo "$workload: a simulated metric is worse than its BENCHMARK.json bound"
        exit 1
    fi
    echo "$workload: every simulated metric within its BENCHMARK.json bound on $# seed(s)"
elif [ -n "$moving_metric" ]; then
    if [ "$moved" = 1 ]; then
        echo "$workload: simulated metrics other than $moving_metric DIFFER"
        exit 1
    elif [ "$metric_moved" = 0 ]; then
        echo "$workload: expected $moving_metric to move, but it is equal on every seed"
        exit 1
    fi
    echo "$workload: only $moving_metric moved, as expected, on $# seed(s)"
elif [ "$moving" = "$workload" ]; then
    [ "$moved" = 1 ] && echo "$workload: moved, as expected" ||
        { echo "$workload: expected to move, but every simulated metric is equal"; exit 1; }
elif [ "$moved" = 1 ]; then
    echo "$workload: simulated metrics DIFFER"
    exit 1
else
    echo "$workload: every simulated metric equal on $# seed(s)"
fi
