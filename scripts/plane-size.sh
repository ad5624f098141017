#!/usr/bin/env bash
# ROADMAP aim 2: "a control plane no larger than the simulator it schedules".
# Counts the lines of non-test, non-generated Go on each side and fails when
# the plane is the larger.
#
#	scripts/plane-size.sh
set -euo pipefail
cd "$(dirname "$0")/.."

plane="internal/dist internal/exp internal/chaos cmd/ilsim-sweep cmd/ilsim-workerd"
simulator="internal/emu internal/timing internal/mem"

# lines <dir>...: total lines of the hand-written, non-test .go files.
lines() {
	find "$@" -name '*.go' ! -name '*_test.go' | while read -r f; do
		grep -q '^// Code generated' "$f" || cat "$f"
	done | wc -l
}

p=$(lines $plane)
s=$(lines $simulator)
echo "control plane ($plane): $p lines"
echo "simulator     ($simulator): $s lines"
if [ "$p" -gt "$s" ]; then
	echo "plane-size: the control plane is $((p - s)) lines larger than the simulator it schedules" >&2
	exit 1
fi
