#!/usr/bin/env bash
# Format, lint and unit-test the standalone package. The root
# tools/ci.sh cannot see it: it is a workspace of its own.
set -euo pipefail
cd "$(dirname "$0")"
export CARGO_NET_OFFLINE=true
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline
