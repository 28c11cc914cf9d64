#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Cargo's output goes to stderr, so the last
# stdout line is the benchmark's JSON result.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
# One thread per request: measured on a 2-core host, the default of one
# thread per core made latency spread too far to gate.
export BCONV_THREADS=1
# A fixed mmap threshold (glibc's default value, without its dynamic
# raising): every buffer of 128 KiB or more gets its own mapping, so its
# placement does not depend on what the process freed before. With the
# dynamic threshold, that history moved sr-stream's latency by ~30% on a
# 2-vCPU x86-64 VM.
export MALLOC_MMAP_THRESHOLD_=131072
exec "$target/release/perfbench" "$@"
