#!/bin/sh
# Regenerates every experiment (DESIGN.md S3 / EXPERIMENTS.md) in one go.
# --jobs N runs the E16 seed sweeps on N worker threads (default 1; the
# sweep output is byte-identical for any N, only the wall clock changes).
set -e

JOBS=1
while [ $# -gt 0 ]; do
  case "$1" in
    --jobs)
      JOBS="$2"
      shift 2
      ;;
    *)
      echo "usage: $0 [--jobs N]" >&2
      exit 2
      ;;
  esac
done

cmake -B build -S .
cmake --build build
ctest --test-dir build
for b in build/bench/*; do
  case "$b" in
    */sweeper) ;;  # parameterized; driven explicitly below
    *) "$b" ;;
  esac
done

# E16: seed sweeps across all eight scenarios.
for scenario in chaos flash rampup metro durable directory psim psim_tcp; do
  ./build/bench/sweeper --scenario "$scenario" --seeds 1-8 --jobs "$JOBS"
done
