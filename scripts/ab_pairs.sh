#!/usr/bin/env bash
# Interleaved A/B of two builds of the repo benchmark on one end-to-end
# metric (choosing-metrics §8): one `--trace 0` run of each binary per seed,
# the side that runs first alternating pair by pair, because this sandbox
# drifts ±15 % over minutes and only neighbouring runs compare.
#
#   ab_pairs.sh <bench_dir_A> <binary_A> <bench_dir_B> <binary_B> <workload> <pairs> <first_seed> \
#       [<metric> [higher|lower]]
#
# A is the parent, B the change. Build each commit's `benchmark/` into its own
# `--target-dir` and copy the executables first; a bench_dir is the scratch
# directory that side's binary gets as GECKO_BENCH_DIR. The metric is a name
# the benchmark prints (default `host_ops_per_s`) and the direction says which
# way is better (default `higher`; `host_peak_rss_mb lower`). Prints every run,
# each side's median and quartiles, the pairs B won, and the verdict:
# "resolved" when B won at least nine tenths of the pairs (ties count for
# neither) and B's median is better than A's by more than A's interquartile
# range.
set -euo pipefail
if [ "$#" -lt 7 ] || [ "$#" -gt 9 ]; then
    sed -n '2,18p' "$0" >&2
    exit 2
fi
dir_a=$1 bin_a=$2 dir_b=$3 bin_b=$4 workload=$5 pairs=$6 first_seed=$7
metric=${8:-host_ops_per_s}
case ${9:-higher} in
higher) sign=1 ;;
lower) sign=-1 ;;
*)
    echo "direction must be 'higher' or 'lower', not '$9'" >&2
    exit 2
    ;;
esac
seconds=10 # BENCHMARK.json's run_seconds: run length is the benchmark's to set

run() { # <bench_dir> <binary> <seed> -> the metric's value
    local value
    value=$(GECKO_BENCH_DIR=$1 "$2" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 |
        awk -v metric="$metric" '$1 == metric { print $2 }')
    [ -n "$value" ] || { echo "the benchmark printed no '$metric'" >&2; exit 2; }
    echo "$value"
}

a_runs=() b_runs=() won=0 lost=0
for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    if ((i % 2 == 0)); then
        a=$(run "$dir_a" "$bin_a" "$seed")
        b=$(run "$dir_b" "$bin_b" "$seed")
        order="A first"
    else
        b=$(run "$dir_b" "$bin_b" "$seed")
        a=$(run "$dir_a" "$bin_a" "$seed")
        order="B first"
    fi
    case $(awk "BEGIN { print $sign * (($b > $a) - ($b < $a)) }") in
    1) won=$((won + 1)) ;;
    -1) lost=$((lost + 1)) ;;
    esac
    printf 'pair %2d  seed %-5d %s  A %.6g  B %.6g  B/A %.3f\n' \
        $((i + 1)) "$seed" "$order" "$a" "$b" "$(awk "BEGIN { print $b / $a }")"
    a_runs+=("$a") b_runs+=("$b")
done

# Each side's runs in ascending order, then quartiles by linear interpolation.
{
    printf 'A %s\n' "${a_runs[@]}"
    printf 'B %s\n' "${b_runs[@]}"
} | sort -k2,2g | awk -v won="$won" -v lost="$lost" -v pairs="$pairs" -v workload="$workload" \
    -v metric="$metric" -v sign="$sign" '
    function quantile(v, n, q,    pos, lo) {
        pos = 1 + (n - 1) * q; lo = int(pos)
        return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
    }
    $1 == "A" { a[++n] = $2 }
    $1 == "B" { b[++m] = $2 }
    END {
        a_med = quantile(a, n, 0.5); b_med = quantile(b, m, 0.5)
        a_iqr = quantile(a, n, 0.75) - quantile(a, n, 0.25)
        printf "A  median %.6g  quartiles %.6g .. %.6g  (IQR %.6g)\n", a_med, quantile(a, n, 0.25), quantile(a, n, 0.75), a_iqr
        printf "B  median %.6g  quartiles %.6g .. %.6g\n", b_med, quantile(b, m, 0.25), quantile(b, m, 0.75)
        printf "B won %d of %d pairs (%d lost, %d tied); median gap %.6g = x%.3f of A\n", won, pairs, lost, pairs - won - lost, b_med - a_med, b_med / a_med
        verdict = (won * 10 >= pairs * 9 && sign * (b_med - a_med) > a_iqr) ? "resolved" : "unresolved"
        printf "%s on %s (%s is better): %s\n", metric, workload, (sign > 0 ? "higher" : "lower"), verdict
    }'
