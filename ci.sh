#!/bin/sh
# CI entry point: build + test three times — a plain RelWithDebInfo tree,
# an ASan+UBSan tree (HPOP_SANITIZE=ON), and a TSan tree
# (HPOP_SANITIZE=thread). The sanitized runs catch the memory, UB, and
# data-race bugs the deterministic simulator would otherwise mask; TSan
# specifically exercises the parallel sweep runner's threads.
set -e

# same_stdout LABEL CMD CMD...: runs each command and fails unless every
# one prints the first one's stdout byte for byte. The outputs stay in
# /tmp/LABEL.0, /tmp/LABEL.1, ... for the greps and cats that follow.
same_stdout() {
  label=$1
  shift
  n=0
  for cmd in "$@"; do
    eval "$cmd" > "/tmp/$label.$n"
    [ "$n" -eq 0 ] || diff "/tmp/$label.0" "/tmp/$label.$n"
    n=$((n + 1))
  done
}

# lane DIR TIMEOUT CMAKE_ARG...: configures and builds one tree and runs the
# tier-1 suite in it. --timeout: no single test may wedge the suite
# (overload/chaos scenarios drive long simulated horizons but must stay
# fast in wall-clock terms; the sanitized lanes get longer).
lane() {
  dir=$1
  timeout=$2
  shift 2
  cmake -B "$dir" -S . "$@"
  cmake --build "$dir" -j
  ctest --test-dir "$dir" --output-on-failure --timeout "$timeout"
}

# -Werror: the plain build is warning-free, and a new warning fails CI.
lane build 120 -DCMAKE_CXX_FLAGS=-Werror

# Fixed-seed determinism gate: the chaos suite's same-seed scenario must be
# byte-identical in-process, and a full seeded chaos run must print the same
# report across two separate processes. Like every verdict bench,
# bench_chaos_recovery exits non-zero when a verdict fails.
./build/tests/test_chaos \
  --gtest_filter='ChaosScenario.SameSeedChaosRunsAreByteIdentical'
same_stdout chaos_run ./build/bench/bench_chaos_recovery \
  ./build/bench/bench_chaos_recovery

# Overload gate (E14, smoke scale): admission control must beat the
# admission-off baseline (the bench exits non-zero when its verdicts fail),
# and two same-seed runs must print byte-identical reports.
./build/tests/test_overload \
  --gtest_filter='OverloadChaos.SameSeedFlashCrowdRunsAreByteIdentical'
same_stdout flash_run './build/bench/bench_flash_crowd --smoke' \
  './build/bench/bench_flash_crowd --smoke'
cat /tmp/flash_run.0

# Rearm-path determinism: the TCP ramp-up bench exercises the persistent
# RTO/delayed-ACK timers that now rearm in place (Simulator::reschedule);
# two same-seed runs must print byte-identical reports.
same_stdout rampup_run ./build/bench/bench_tcp_rampup \
  ./build/bench/bench_tcp_rampup

# Parallel-sweep determinism gate (E16): the sweeper's stdout must be
# byte-identical for any --jobs value — one Simulator per seed, results
# merged in seed order, nothing shared between workers.
sweep=./build/bench/sweeper
same_stdout sweep_chaos "$sweep --scenario chaos --seeds 1-8 --jobs 1" \
  "$sweep --scenario chaos --seeds 1-8 --jobs 4"
same_stdout sweep_flash "$sweep --scenario flash --seeds 1-4 --jobs 1" \
  "$sweep --scenario flash --seeds 1-4 --jobs 4"
same_stdout sweep_rampup "$sweep --scenario rampup --seeds 1-8 --jobs 1" \
  "$sweep --scenario rampup --seeds 1-8 --jobs 4"
same_stdout sweep_metro "$sweep --scenario metro --seeds 1-4 --jobs 1" \
  "$sweep --scenario metro --seeds 1-4 --jobs 4"

# Recovery-determinism gate (E18): the durable chaos scenario — node
# crashes plus torn-write/partial-flush faults against the WAL-backed
# attic — must recover with zero acked-write loss and be byte-identical
# same-seed: twice in-process (the gtest runs the full scenario twice and
# diffs state fingerprints and telemetry), and across processes (the
# sweeper's durable scenario diffed serial-vs-parallel and run-vs-rerun).
./build/tests/test_durable --gtest_filter='DurableChaos.*'
same_stdout sweep_durable "$sweep --scenario durable --seeds 1-8 --jobs 1" \
  "$sweep --scenario durable --seeds 1-8 --jobs 4" \
  "$sweep --scenario durable --seeds 1-8 --jobs 1"

# Directory-cluster determinism gate (E19): the sharded directory day —
# lease churn, a shard crash, and a network partition — must be
# jobs-invariant in the sweeper and byte-identical run to rerun.
same_stdout sweep_directory \
  "$sweep --scenario directory --seeds 1-4 --jobs 1" \
  "$sweep --scenario directory --seeds 1-4 --jobs 4" \
  "$sweep --scenario directory --seeds 1-4 --jobs 1"

# Sharded-parallel determinism gate (E20 + E21): the psim metro day must
# print byte-identical telemetry for any worker count — conservative
# lookahead, fixed-order crossing drain at barrier epochs, per-PoP
# partitioning that does not depend on how many threads execute it.
# bench_psim runs both the chunk day (E20) and the TCP/MPTCP day (E21,
# real transport whose segments cross shard boundaries) and self-gates
# serial-vs-sharded in-process; the diff below additionally pins the
# 1-worker and 4-worker processes to the same stdout for BOTH days, and
# the sweeper checks each engine nested inside sweep worker threads.
same_stdout psim_run './build/bench/bench_psim --smoke --workers 1' \
  './build/bench/bench_psim --smoke --workers 4'
grep -q '^# E21:' /tmp/psim_run.1  # the TCP day is in the diffed output
cat /tmp/psim_run.1
same_stdout sweep_psim "$sweep --scenario psim --seeds 42-45 --jobs 1" \
  "$sweep --scenario psim --seeds 42-45 --jobs 2"
same_stdout sweep_psim_tcp "$sweep --scenario psim_tcp --seeds 42-45 --jobs 1" \
  "$sweep --scenario psim_tcp --seeds 42-45 --jobs 4"

# Durability gate (E18, smoke scale): bench_durability self-gates on WAL
# replay rebuilding byte-identical state, snapshot compaction bounding
# recovery to the post-snapshot tail, and the incremental-backup session
# shipping < 10% of the whole-object bytes for a 1%-churn day. Two runs
# must print byte-identical reports.
same_stdout durability_run './build/bench/bench_durability --smoke' \
  './build/bench/bench_durability --smoke'
cat /tmp/durability_run.0

# Directory gate (E19, smoke scale): bench_directory self-gates on lookup
# availability (>= 99%), bounded p99, zero acked-registration loss, no
# stale advert served past lease expiry, anti-entropy catch-up after the
# crash, and the chaos schedule actually firing; two same-seed runs must
# print byte-identical reports.
same_stdout directory_run './build/bench/bench_directory --smoke' \
  './build/bench/bench_directory --smoke'
cat /tmp/directory_run.0

# Metro smoke gate (E17): build a 10k-home metro, run the short diurnal
# slice twice, and diff the telemetry — the generator, workload draws, and
# driver stats must be byte-identical run to run. The bench also self-gates
# on the bytes-per-home budget and the cross-PoP routing slice.
same_stdout metro_run './build/bench/bench_metro --smoke' \
  './build/bench/bench_metro --smoke'
cat /tmp/metro_run.0

# Examples: each narrative run must exit 0 and print the same story twice.
# The quickstart is the only program outside gtest that boots an
# appliance, registers it with the directory and looks it up.
examples="quickstart health_records nocdn_site detour_streaming
  neighborhood_cache"
for example in $examples; do
  same_stdout "example_$example" "./build/examples/$example" \
    "./build/examples/$example"
done

# Hot-path perf gate (E15, smoke scale): bench_core exits non-zero unless
# the event engine allocates nothing per event on its hot loop or per op
# on its timer churn and runs the hot loop at >= 5 M events/s, every
# workload delivers in full, the data plane stays within its allocation
# budgets (packet hop <= 0.1 alloc/pkt; TCP bulk <= 0.1 alloc/segment on
# the smoke run, <= 0.6 on the full run, whose transfer recovers from
# loss through SACK), burst link service holds a >= 1.2x median speedup
# over interleaved A/B pairs, a datagram crossing idle links costs one
# event per hop, the metro seed sweep is byte-identical
# (plus >= 3x faster where 8 hardware threads exist), and the parallel TCP
# metro section is byte-identical across 1/2/4 workers and stays within
# its peak live bytes per home at 4 workers. The committed
# BENCH_CORE.json baseline must also have been produced by a passing run.
./build/bench/bench_core --smoke --out /tmp/BENCH_CORE.json
# Every gate must read true. The hardware-armed speedup gates read true
# where the box has >= 8 hardware threads and the explicit string
# "skipped" where it does not; a bare false, or a baseline produced with
# the gate disarmed and then hand-edited, fails the grep either way.
gates="gates_passed scheduler_allocs_ok scheduler_events_per_sec_ok
  delivery_ok packet_hop_allocs_ok tcp_bulk_allocs_ok sweep_identical_ok
  metro_build_ok bytes_per_home_ok durability_recovery_ok
  durability_compaction_ok durability_incremental_ok directory_lookup_ok
  directory_no_loss_ok directory_no_stale_ok directory_sync_ok
  burst_speedup_ok idle_hop_events_per_hop_ok parallel_metro_identical_ok
  parallel_tcp_metro_identical_ok parallel_tcp_metro_bytes_per_home_ok"
hw_gates="sweep_speedup_ok parallel_metro_speedup_ok
  parallel_tcp_metro_speedup_ok"
for gate_file in /tmp/BENCH_CORE.json BENCH_CORE.json; do
  for gate in $gates; do
    grep -q "\"$gate\": true" "$gate_file"
  done
  for gate in $hw_gates; do
    grep -Eq "\"$gate\": (true|\"skipped\")" "$gate_file"
  done
done

# LeakSanitizer stays on: every test and bench run below must free what it
# allocates, transport connections and MPTCP sessions included.
lane build-asan 240 -DHPOP_SANITIZE=ON
# Metro under ASan: a 1000-home build plus the smoke diurnal day, checking
# for memory errors at scale. --no-gate because redzones inflate the
# bytes-per-home numbers the plain lane gates on.
./build-asan/bench/bench_metro --homes 1000 --smoke --no-gate > /dev/null
# Durability under ASan: WAL encode/scan/truncate and the device's torn
# prefix arithmetic are exactly the byte-twiddling ASan is for.
./build-asan/bench/bench_durability --smoke > /dev/null
# Directory under ASan: shard crash + partition teardown is where dangling
# connection/mux references would live (a crash destroys the shard's
# TransportMux while peers still hold connections into it).
./build-asan/bench/bench_directory --smoke > /dev/null
# Sharded engine under ASan: cross-shard packets detach from one shard's
# pool and re-enter another's, and link queues can still hold pooled
# packets at the horizon — teardown ordering bugs here are exactly what
# ASan catches (and has caught). bench_psim also runs the TCP day (E21):
# per-home muxes are destroyed while shard simulators still hold armed
# RTO/delayed-ACK timers, and SACK CowVec bodies re-home across pools.
./build-asan/bench/bench_psim --smoke --workers 4 > /dev/null
# Examples under ASan, LSan on: the appliance's directory registration
# holds renewal timers and a control connection per replica until the
# appliance dies.
for example in $examples; do
  "./build-asan/examples/$example" > /dev/null
done

# TSan lane: the whole tier-1 suite once under ThreadSanitizer. The
# simulator itself is single-threaded; this lane guards the thread_local
# telemetry and log-clock state, the Symbol intern table, and the sweep
# runner's seed counter against races as the parallel surface grows.
lane build-tsan 480 -DHPOP_SANITIZE=thread
# Directory sweep under TSan: four seeds across four worker threads — the
# sweeper's one-Simulator-per-seed isolation must hold for the new
# scenario too.
./build-tsan/bench/sweeper --scenario directory --seeds 1-4 --jobs 4 \
  > /dev/null
# Sharded metro day under TSan: four workers appending packets to the
# crossings' epoch buffers and waiting at the barrier epochs — the
# generation/arrival counters that order every push before the barrier's
# drain are the exact surface this lane exists for. The TCP day (E21,
# also inside bench_psim) adds full TCP/MPTCP endpoint state on each
# worker thread:
# any connection state accidentally shared across a shard cut is a race
# TSan sees directly.
./build-tsan/bench/bench_psim --smoke --workers 4 > /dev/null
# TCP-day sweep under TSan: nested parallelism — each sweep worker thread
# spins up a 2-worker sharded engine with live TCP timers inside it.
./build-tsan/bench/sweeper --scenario psim_tcp --seeds 42-43 --jobs 2 \
  > /dev/null
# Engine hand-off under TSan, many times over: the persistent workers'
# spin, park and wake paths, engine teardown with parked workers, and the
# TCP day at 1/2/4 workers, repeated so each path runs thousands of epochs.
./build-tsan/tests/test_psim --gtest_repeat=20 \
  --gtest_filter='PsimEngine.*:PsimTcpDay.*' > /dev/null
