#!/usr/bin/env bash
# Exact comparison of two builds of the repo benchmark on the simulated clock:
# the ten simulated end-to-end metrics are a function of the workload and the
# seed alone (the measured window is op-counted), so one short run of each
# binary per seed decides whether a change moved them — no pairs, no spread.
#
#   sim_diff.sh [--moving-metric <metric>] <bench_dir_A> <binary_A> <bench_dir_B> <binary_B> <workload> <seed>... [<moving_workload>]
#
# A is the parent, B the change; build and copy the executables as for
# ab_pairs.sh. Prints, per seed, every simulated end-to-end metric old → new
# with the relative change, and exits 1 if any differs. A trailing workload
# name says which one workload the change is meant to move: on that workload a
# difference is the expected result and it is *no* difference that exits 1.
# --moving-metric names the one metric the change is meant to move: it exits 1
# if any other metric differs, or if <metric> differs on no seed.
set -euo pipefail
usage() { sed -n '2,15p' "$0" >&2; exit 2; }
moving_metric=
if [ "${1:-}" = --moving-metric ]; then
    [ "$#" -ge 2 ] || usage
    moving_metric=$2
    shift 2
fi
[ "$#" -ge 6 ] || usage
dir_a=$1 bin_a=$2 dir_b=$3 bin_b=$4 workload=$5
shift 5
moving=
case ${!#} in
'' | *[!0-9]*)
    moving=${!#}
    set -- "${@:1:$#-1}"
    ;;
esac
[ "$#" -ge 1 ] || { echo "no seed given" >&2; exit 2; }

run() { # <bench_dir> <binary> <seed> -> "metric value" lines
    GECKO_BENCH_DIR=$1 "$2" --workload "$workload" --seed "$3" --seconds 1 --trace 0 |
        awk '$1 ~ /^(sim_|write_amp$|ram_bytes$|recovery_sim_ms$)/ && NF == 3 { print $1, $2 }'
}

moved=0 metric_moved=0
for seed in "$@"; do
    echo "$workload seed $seed"
    a=$(run "$dir_a" "$bin_a" "$seed")
    b=$(run "$dir_b" "$bin_b" "$seed")
    [ -n "$a" ] && [ "$(wc -l <<<"$a")" = "$(wc -l <<<"$b")" ] ||
        { echo "the two binaries printed different metric sets" >&2; exit 2; }
    # Exit status: bit 0 = a metric other than --moving-metric differs,
    # bit 1 = --moving-metric differs.
    rc=0
    paste -d' ' <(echo "$a") <(echo "$b") | awk -v named="$moving_metric" '
        { same = $2 "" == $4 "" # as printed, to the last digit
          printf "  %-28s %-20s -> %-20s %s\n", $1, $2, $4,
              same ? "=" : sprintf("%+.2f %%", ($4 / $2 - 1) * 100)
          if (!same && $1 == named) hit = 2
          else if (!same) other = 1 }
        END { exit other + hit }' || rc=$?
    [ $((rc & 1)) = 0 ] || moved=1
    [ $((rc & 2)) = 0 ] || metric_moved=1
done

if [ -n "$moving_metric" ]; then
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
