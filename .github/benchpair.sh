#!/usr/bin/env bash
# The perf guard: runs the repository benchmark (vpbench/run.sh, as each
# checkout has it) on two checkouts in alternating pairs and fails when HEAD
# is worse than BASE.
#
#   bash .github/benchpair.sh BASE_DIR HEAD_DIR
#
# For every workload BASE_DIR's BENCHMARK.json names, it runs PAIRS pairs of
# RUN_SECONDS each. Both sides of a pair take the same seed, and the side
# that runs first flips every pair, so host drift hits both alike. The guard
# fails when
#
#   - an end-to-end metric's median per-pair relative change, taken in the
#     metric's worse direction, exceeds the metric's bound in BENCHMARK.json;
#   - either side reports "correct": false;
#   - HEAD fails a larger share of its operations than BASE.
#
# It then runs one traced pair (--trace 1) and prints every per-layer metric
# for both sides, so a failure can be traced to a layer. The traced pair is
# not gated: at these run lengths its toggle rows can read negative.
#
# Standard output holds the per-metric table (base and head median [q1, q3],
# the median change and the pairs head won) and the verdict; its last line
# is one JSON record of the same figures. Progress goes to standard error.
# Needs bash, git, jq and what vpbench/run.sh needs (go).
set -euo pipefail

# Sized from A/A runs (the same tree on both sides) on a shared 2-vCPU VM:
# one pair of 8-s runs read anywhere from 0.62x to 1.68x, while the median
# ratio of 10 alternating 2-s pairs stayed within 0.875-1.062 for every
# end-to-end metric. Ten A/A runs of this script all passed; the widest
# median change, +24% on table2's setup_s, came closest to a 0.25 bound. A
# planted 40% slowdown of every CPU quantum failed ten runs of ten. The
# pairs assume an otherwise idle host: a run that overlapped a compile on
# the same VM read firmware 40% apart.
readonly PAIRS=10
readonly RUN_SECONDS=2

if [ $# -ne 2 ]; then
	echo "usage: benchpair.sh BASE_DIR HEAD_DIR" >&2
	exit 2
fi
base_dir="$(cd "$1" && pwd)"
head_dir="$(cd "$2" && pwd)"
for d in "$base_dir" "$head_dir"; do
	if [ ! -f "$d/vpbench/run.sh" ]; then
		echo "benchpair: $d is not a checkout with vpbench/run.sh" >&2
		exit 2
	fi
done
bench="$base_dir/BENCHMARK.json"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
runs="$work/runs.jsonl"
: >"$runs"

# run SIDE WORKLOAD SEED TRACE runs vpbench in SIDE's checkout and appends
# its JSON record, tagged with the side, workload, seed, trace, host record
# and failed checks of the run, to $runs. A run that exits non-zero or ends
# without a record fails the guard at once.
run() {
	local side=$1 wl=$2 seed=$3 trace=$4 dir=$base_dir out
	[ "$side" = head ] && dir=$head_dir
	out="$work/$side-$wl-$seed-$trace"
	echo "benchpair: $side $wl seed $seed trace $trace" >&2
	if ! (cd "$dir" && bash vpbench/run.sh --workload "$wl" --seed "$seed" \
		--seconds "$RUN_SECONDS" --trace "$trace") >"$out.out" 2>"$out.err"; then
		echo "benchpair: FAIL: the $side run of $wl (seed $seed, trace $trace) exited non-zero:"
		tail -n 20 "$out.err"
		exit 1
	fi
	if ! tail -n 1 "$out.out" | jq -ce --arg side "$side" --arg wl "$wl" \
		--argjson seed "$seed" --argjson trace "$trace" \
		--arg host "$(sed -n 's/^host: //p' "$out.out" | head -n 1)" \
		--argjson fails "$(grep -a '^FAILED: ' "$out.out" | jq -Rsc 'split("\n") | map(select(. != ""))')" \
		'. + {side: $side, workload: $wl, seed: $seed, trace: $trace, host: $host, fails: $fails}' \
		>>"$runs" 2>/dev/null; then
		echo "benchpair: FAIL: the $side run of $wl (seed $seed, trace $trace) printed no JSON record"
		exit 1
	fi
}

# Build each side's benchmark before the first pair, so that a cold build
# never runs between the two runs of a pair.
workloads="$(jq -r '.workloads[].name' "$bench")"
traced="$(head -n 1 <<<"$workloads")"
for d in "$base_dir" "$head_dir"; do
	echo "benchpair: building the benchmark in $d" >&2
	(cd "$d" && bash vpbench/run.sh --workload "$traced" --seconds 1 --trace 0) >/dev/null 2>"$work/build.err" ||
		{ echo "benchpair: FAIL: the benchmark in $d does not run:"; tail -n 20 "$work/build.err"; exit 1; }
done

for wl in $workloads; do
	for ((i = 1; i <= PAIRS; i++)); do
		if ((i % 2)); then
			run base "$wl" "$i" 0
			run head "$wl" "$i" 0
		else
			run head "$wl" "$i" 0
			run base "$wl" "$i" 0
		fi
	done
done
run base "$traced" 1 1
run head "$traced" 1 1

rev() { git -C "$1" rev-parse --short HEAD 2>/dev/null || echo "$1"; }

record="$(jq -sc --slurpfile bench "$bench" --argjson pairs "$PAIRS" \
	--argjson seconds "$RUN_SECONDS" --arg base "$(rev "$base_dir")" --arg head "$(rev "$head_dir")" '
	# Median and quartiles, the quartiles with the "exclusive" interpolation
	# vpbench prints (Python statistics.quantiles(n=4)).
	def median: sort as $x | ($x | length) as $n |
		if $n % 2 == 1 then $x[($n - 1) / 2] else ($x[$n / 2 - 1] + $x[$n / 2]) / 2 end;
	def quart($i): sort as $x | ($x | length) as $n |
		if $n == 1 then $x[0] else
			([([($i * ($n + 1) / 4 | floor), 1] | max), $n - 1] | min) as $j |
			($i * ($n + 1) - $j * 4) as $d |
			($x[$j - 1] * (4 - $d) + $x[$j] * $d) / 4
		end;
	def spread: {median: median, q1: quart(1), q3: quart(3)};
	def share: (map(.failed) | add) / ([(map(.attempted) | add), 1] | max);
	def pct: . * 1000 | round / 10 | tostring + "%";
	. as $runs | $bench[0] as $b |
	{
		host: $runs[0].host, pairs: $pairs, seconds: $seconds, base: $base, head: $head,
		workloads: ([$b.workloads[].name | . as $wl |
			($runs | map(select(.trace == 0 and .workload == $wl)) | sort_by(.seed)) as $wr |
			($wr | map(select(.side == "base"))) as $bs | ($wr | map(select(.side == "head"))) as $hs |
			{key: $wl, value: ($b.end_to_end | map(. as $m |
				[$bs[].metrics[$m.name].value] as $bv | [$hs[].metrics[$m.name].value] as $hv |
				[range($bv | length) as $k | ($hv[$k] - $bv[$k]) / $bv[$k] |
					if $m.better == "lower" then . else -. end] as $worse |
				{key: $m.name, value: {unit: $m.unit, better: $m.better, bound: $m.bound,
					base: ($bv | spread), head: ($hv | spread), worse_by: ($worse | median),
					head_wins: ($worse | map(select(. < 0)) | length)}}) | from_entries)}] | from_entries),
		failed_frac: {base: ($runs | map(select(.side == "base")) | share),
			head: ($runs | map(select(.side == "head")) | share)}
	} |
	.failures = (
		[$runs[] | select(.correct | not) |
			"\(.side) \(.workload) seed \(.seed) trace \(.trace) reports correct: false" +
			(.fails | map("\n  " + .) | join(""))] +
		[.workloads | to_entries[] | .key as $wl | .value | to_entries[] |
			select(.value.worse_by > .value.bound) |
			"\($wl) \(.key): head is worse by \(.value.worse_by | pct) (median of \($pairs) pairs), over the \(.value.bound | pct) bound"] +
		(if .failed_frac.head > .failed_frac.base then
			["head fails \(.failed_frac.head | pct) of its operations, base \(.failed_frac.base | pct)"]
		else [] end)) |
	.pass = (.failures | length == 0)' "$runs")"

echo "benchpair: base $(jq -r .base <<<"$record"), head $(jq -r .head <<<"$record"), host $(jq -r .host <<<"$record")"
echo "$PAIRS pairs of $RUN_SECONDS s per workload, seeds 1-$PAIRS, order flipped every pair;"
echo "worse_by is the median per-pair change in the metric's worse direction"
row='%-9s %-12s %-5s %-30s %-30s %9s %6s %5s\n'
printf "$row" workload metric unit "base median [q1, q3]" "head median [q1, q3]" worse_by bound wins
jq -r --argjson pairs "$PAIRS" '
	def f: . * 1000 | round / 1000 | tostring;
	def s: "\(.median | f) [\(.q1 | f), \(.q3 | f)]";
	.workloads | to_entries[] | .key as $wl | .value | to_entries[] |
	[$wl, .key, .value.unit, (.value.base | s), (.value.head | s),
		"\(.value.worse_by * 1000 | round / 10)%", "\(.value.bound * 100)%",
		"\(.value.head_wins)/\($pairs)"] | @tsv' <<<"$record" |
	while IFS=$'\t' read -r -a cols; do printf "$row" "${cols[@]}"; done

echo
echo "traced pair ($traced, seed 1, not gated): per-layer metrics"
printf '%-40s %-6s %-6s %14s %14s\n' metric unit better base head
jq -sr --slurpfile bench "$bench" '
	(map(select(.trace == 1 and .side == "base"))[0].metrics) as $bm |
	(map(select(.trace == 1 and .side == "head"))[0].metrics) as $hm |
	$bench[0].per_layer[] |
	[.name, .unit, .better, ($bm[.name].value // "nan"), ($hm[.name].value // "nan")] | @tsv' "$runs" |
	while IFS=$'\t' read -r -a cols; do printf '%-40s %-6s %-6s %14.6g %14.6g\n' "${cols[@]}"; done

echo
jq -r '.failures[] | "FAIL: " + .' <<<"$record"
if jq -e .pass <<<"$record" >/dev/null; then
	echo "benchpair: PASS"
else
	echo "benchpair: FAIL"
fi
echo "$record"
jq -e .pass <<<"$record" >/dev/null
