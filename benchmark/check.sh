#!/usr/bin/env bash
# The benchmark package's own gate: format, lints, unit tests, smoke run.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --release --all-targets --offline -- -D warnings
cargo test --release --offline --quiet
cd ..
cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- --smoke
