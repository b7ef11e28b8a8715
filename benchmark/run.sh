#!/usr/bin/env bash
# The benchmark's one command. Builds the benchmark package (untimed),
# then hands every argument to it:
#
#   benchmark/run.sh [--seed N] [--workload NAME] [--traced] [--selfcheck]
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# See benchmark/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
    echo "benchmark/run.sh: no repository around benchmark/ (Cargo.toml, crates/): nothing to measure" >&2
    exit 3
fi

# The benchmark is a workspace of its own, so Cargo takes its build
# profile from benchmark/Cargo.toml, not from the root manifest. Both have
# no [profile.*] table today. If the root ever gains one, the benchmark
# would silently measure a different build: refuse until it is mirrored.
profiles() {
    awk '/^\[/ { keep = ($0 ~ /^\[profile[.\]]/) } keep && NF' "$1"
}
if [ "$(profiles Cargo.toml)" != "$(profiles benchmark/Cargo.toml)" ]; then
    echo "benchmark/run.sh: the [profile.*] tables of Cargo.toml and benchmark/Cargo.toml differ;" >&2
    echo "copy the root's into benchmark/Cargo.toml so the benchmark measures the build users get" >&2
    exit 3
fi

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/pipebench" "$@"
