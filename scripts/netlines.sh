#!/usr/bin/env bash
# Report the added, deleted and net lines of program Go code between a base
# ref and the working tree: commits since the base plus uncommitted edits.
# Test files (*_test.go) and anything under a testdata/ directory do not
# count. The script only reports: whatever the numbers, it exits 0 (2 on
# an unknown base ref).
#
# Usage: scripts/netlines.sh [base]    (base defaults to HEAD~1)
#
#   scripts/netlines.sh origin/main
#   non-test .go lines vs origin/main: +57 -214, net -157
set -euo pipefail

cd "$(dirname "$0")/.."
base=${1:-HEAD~1}
if ! git rev-parse --verify --quiet "$base^{commit}" >/dev/null; then
	echo "netlines: unknown base ref $base" >&2
	exit 2
fi

git diff --numstat "$base" -- '*.go' ':(exclude)*_test.go' ':(exclude)**/testdata/**' |
	awk -v base="$base" '
		{ add += $1; del += $2 }
		END {
			net = add - del
			printf "non-test .go lines vs %s: +%d -%d, net %s%d\n", base, add, del, (net > 0 ? "+" : ""), net
		}'
