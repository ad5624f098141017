#!/usr/bin/env bash
# Same-host A/B of the repository's benchmark: this checkout (the change)
# against a checkout of the parent commit, as bench/README.md prescribes.
#
#	scripts/bench-ab.sh <parent-checkout> [pairs]     (make bench-ab REF=<commit>)
#
# Each side's benchmark is built once, before the first pair, in the
# environment its bench/run.sh builds in, and that binary runs from its own
# checkout for every pair: an edit made while the A/B runs reaches no run.
# Every pair is one full set (all five workloads, seed = pair number) on each
# side, back to back; odd pairs run the parent first, even pairs the change.
# One traced set per side follows (the per-layer ladder and the exact sim.*
# comparison). The runs are merged into .bench_build/ab/{parent,change}.json
# and handed to `bench -compare`, whose table is printed and kept in
# compare.txt below the sha256 of both binaries.
set -euo pipefail

parent=$(cd "${1:?usage: bench-ab.sh <parent-checkout> [pairs]}" && pwd)
pairs=${2:-10}
cd "$(dirname "$0")/.."
change=$PWD
if [ "$pairs" -lt 10 ]; then
	echo "bench-ab: $pairs pairs cannot settle a claim; bench/README.md asks for at least 10" >&2
	exit 2
fi
command -v jq >/dev/null || { echo "bench-ab: jq is needed to merge the result files" >&2; exit 2; }
[ -f "$parent/bench/run.sh" ] || { echo "bench-ab: $parent has no bench/run.sh" >&2; exit 2; }

out=$change/.bench_build/ab
rm -rf "$out/runs"
mkdir -p "$out/runs"

# checkout <parent|change>: the side's checkout.
checkout() {
	if [ "$1" = parent ]; then echo "$parent"; else echo "$change"; fi
}

# build <parent|change>: the side's benchmark, built as its bench/run.sh
# builds it, into $out/<side>.bin.
build() {
	local dir
	dir=$(checkout "$1")
	(cd "$dir" && GOCACHE="$dir/.bench_build/gocache" GOPATH="$dir/.bench_build/gopath" \
		GOFLAGS=-buildvcs=false GOTOOLCHAIN=local go build -o "$out/$1.bin" ./bench) ||
		{ echo "bench-ab: building the $1 benchmark failed" >&2; exit 1; }
}

# side <parent|change> <name> <bench arguments...>
side() {
	(cd "$(checkout "$1")" && "$out/$1.bin" "${@:3}" -out "$out/runs/$1.$2.json") >"$out/runs/$1.$2.log" 2>&1 ||
		{ echo "bench-ab: $1 run $2 failed; see $out/runs/$1.$2.log" >&2; exit 1; }
}

build parent
build change

for i in $(seq 1 "$pairs"); do
	order="parent change"
	[ $((i % 2)) -eq 0 ] && order="change parent"
	echo "pair $i/$pairs: $order"
	for s in $order; do
		side "$s" "$i" -seed "$i"
	done
done
echo "traced sets: parent change"
side parent layers -seed 1 -layers
side change layers -seed 1 -layers

for s in parent change; do
	files=()
	for i in $(seq 1 "$pairs") layers; do
		files+=("$out/runs/$s.$i.json")
	done
	jq -s '.[0] + {runs: (map(.runs) | add)}' "${files[@]}" >"$out/$s.json"
done
{
	for s in parent change; do
		echo "$s $(sha256sum <"$out/$s.bin" | cut -d' ' -f1) $(checkout "$s")"
	done
	"$out/change.bin" -compare "$out/parent.json" "$out/change.json"
} | tee "$out/compare.txt"
