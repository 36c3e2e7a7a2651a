#!/usr/bin/env bash
# The repository benchmark. Builds the standalone package offline, then:
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of standard output is the result object
#   benchmark/run.sh [--seed N] [--workload NAME] [--seconds S]
#       every workload (or the one named) untraced and traced, every
#       metric by name and unit; non-zero exit if any output is wrong
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
