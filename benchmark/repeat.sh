#!/usr/bin/env bash
# Does the benchmark agree with itself?
#
#   benchmark/repeat.sh [SETS] [RUNS] [--workload NAME] [--seed N]
#
# Runs every workload SETS x RUNS times (default 2 x 3) on the same code,
# prints per workload and end-to-end metric the median of each set and
# their relative difference beside the bound, and exits non-zero when two
# sets disagree by more than the bound.
set -euo pipefail
sets="${1:-2}"
runs="${2:-3}"
shift $(( $# < 2 ? $# : 2 ))
exec bash "$(dirname "$0")/run.sh" --repeat "$sets" "$runs" "$@"
