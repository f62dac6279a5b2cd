#!/bin/sh
# Alternating parent/change pairs of one benchmark workload.
#
#   scripts/pairs.sh <parent-rev> <workload> <n> [seconds [metric...]]
#
# Builds <parent-rev> from a `git archive` copy under target/pairs/<sha>/
# (kept for the next call; an archive leaves the repository's own state
# untouched, where a worktree would register itself in it) and the working
# tree as it is, then runs <n> pairs of single-workload benchmark children,
#
#   p2pmal-benchmark --workload <workload> --seed 2006 --seconds <seconds> --trace 0
#
# (<seconds> defaults to 15, the benchmark's own budget), alternating which
# side goes first. It prints each pair's change/parent ratio of the six
# end-to-end metrics with both children's repeat counts, then per metric
# the median and quartiles of each side, the median ratio and how many
# pairs point each way, and whether every child's trajectory digest
# agrees. A child that repeats
# its collection more raises its own peak RSS, so peak_rss_mb is also given
# over the pairs whose repeat counts are equal. Per-layer metrics named
# after <seconds> (netsim.scheduler_s, core.report_s, ...) get the same
# summary as the six. Children's full output is kept in target/pairs/runs/.
set -eu

if [ $# -lt 3 ]; then
    echo "usage: $0 <parent-rev> <workload> <n> [seconds [metric...]]" >&2
    exit 2
fi
parent=$1
workload=$2
n=$3
seconds=${4:-15}
shift $(($# < 4 ? 3 : 4))
metrics="setup_s run_s total_s peak_rss_mb app_bytes_per_node ok_share $*"

root=$(git rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --verify "$parent^{commit}")
copy=$root/target/pairs/$rev
runs=$root/target/pairs/runs
bench=benchmark/target/release/p2pmal-benchmark

if [ ! -x "$copy/$bench" ]; then
    rm -rf "$copy"
    mkdir -p "$copy"
    git -C "$root" archive "$rev" | tar -x -C "$copy"
    echo "building parent $rev" >&2
    cargo build --release --offline -q --manifest-path "$copy/benchmark/Cargo.toml"
fi
echo "building the working tree" >&2
cargo build --release --offline -q --manifest-path "$root/benchmark/Cargo.toml"
mkdir -p "$runs"

# One child: its metric, repeat and digest lines go to $runs/<side>-<i>.txt.
run_child() {
    side=$1
    i=$2
    case $side in
        parent) bin=$copy/$bench ;;
        *) bin=$root/$bench ;;
    esac
    "$bin" --workload "$workload" --seed 2006 --seconds "$seconds" --trace 0 \
        > "$runs/$workload-$side-$i.txt" 2> /dev/null ||
        { echo "the $side child of pair $i failed" >&2; exit 1; }
}

i=1
while [ "$i" -le "$n" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run_child parent "$i"
        run_child change "$i"
    else
        run_child change "$i"
        run_child parent "$i"
    fi
    echo "pair $i of $n done" >&2
    i=$((i + 1))
done

i=1
while [ "$i" -le "$n" ]; do
    for side in parent change; do
        awk -v side="$side" -v pair="$i" -v w="$workload" '
            $1 == "metric" && $2 == w { print pair, side, $3, $4 }
            $1 == w && $2 == "trajectory_digest" { print pair, side, "digest", $3 }
            $1 == "detail" {
                if (match($0, /"repeats":[0-9]+/)) {
                    print pair, side, "repeats", substr($0, RSTART + 10, RLENGTH - 10)
                }
            }' "$runs/$workload-$side-$i.txt"
    done
    i=$((i + 1))
done | awk -v n="$n" -v w="$workload" -v metrics="$metrics" '
    # The p-quantile of a space-separated list, interpolated between the
    # two nearest ranks (p = 0.5 is the median).
    function quantile(list, p,    v, m, a, b, t, x, i) {
        m = split(list, v, " ")
        if (m == 0) return "-"
        for (a = 2; a <= m; a++) {
            t = v[a] + 0
            for (b = a - 1; b >= 1 && v[b] + 0 > t; b--) v[b + 1] = v[b]
            v[b + 1] = t
        }
        x = 1 + (m - 1) * p
        i = int(x)
        return (i < m) ? v[i] + (x - i) * (v[i + 1] - v[i]) : v[m]
    }
    function spread(list) {
        return sprintf("%.6g [%.6g, %.6g]", quantile(list, 0.5), quantile(list, 0.25), quantile(list, 0.75))
    }
    { val[$1, $2, $3] = $4 }
    END {
        count = split(metrics, names, " ")
        printf "%s: change / parent per pair (repeats parent/change)\n", w
        digests = val[1, "parent", "digest"]
        agree = 1
        for (p = 1; p <= n; p++) {
            line = sprintf("pair %2d  repeats %s/%s ", p, val[p, "parent", "repeats"], val[p, "change", "repeats"])
            for (k = 1; k <= count; k++) {
                m = names[k]; a = val[p, "parent", m]; b = val[p, "change", m]
                r = (a + 0 == 0) ? 1 : b / a
                ratios[m] = ratios[m] " " r
                side_a[m] = side_a[m] " " a
                side_b[m] = side_b[m] " " b
                if (r < 1) lower[m]++
                else if (r > 1) higher[m]++
                line = line sprintf(" %s %.4f", m, r)
            }
            if (val[p, "parent", "repeats"] == val[p, "change", "repeats"]) {
                r = val[p, "change", "peak_rss_mb"] / val[p, "parent", "peak_rss_mb"]
                equal_peak = equal_peak " " r
                equal++
            }
            for (s = 1; s <= 2; s++) {
                side = (s == 1) ? "parent" : "change"
                if (val[p, side, "digest"] != digests) agree = 0
            }
            print line
        }
        printf "\nper metric: median [quartiles] of each side, median per-pair ratio, pairs lower / higher\n"
        for (k = 1; k <= count; k++) {
            m = names[k]
            printf "%-19s parent %-34s change %-34s ratio %.4f  %d / %d\n", m, spread(side_a[m]),
                spread(side_b[m]), quantile(ratios[m], 0.5), lower[m], higher[m]
        }
        printf "peak_rss_mb over the %d pairs with equal repeat counts: median ratio %s\n",
            equal, (equal ? sprintf("%.4f", quantile(equal_peak, 0.5)) : "-")
        if (agree) printf "trajectory digests: all %d children agree (%s)\n", 2 * n, digests
        else print "trajectory digests: DIFFER (see target/pairs/runs/)"
    }'
