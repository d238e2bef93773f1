#!/usr/bin/env bash
# Prints the net non-test Go line count the ROADMAP tracks: `wc -l`
# over every tracked Go file that is not a _test.go file, excluding the
# examples/ walkthroughs and the perfbench/ harness module.
#
# Usage: bash scripts/netlines.sh
set -euo pipefail

cd "$(dirname "$0")/.."
git ls-files -z -- '*.go' ':!:*_test.go' ':!:examples/' ':!:perfbench/' |
	xargs -0 cat | wc -l
