#!/bin/bash
# Runs every bench binary. Human-readable output accumulates in
# bench_output.txt; machine-readable results land next to it as
# BENCH_<name>.json:
#   * figure benches (fig5/fig6/fig7/fig8/fig9/fig10) write flat
#     {query -> median ns} maps through bench_common.h's BenchJson
#     (driven by POSEIDON_BENCH_JSON_DIR),
#   * bench_pmem_micro writes google-benchmark's JSON schema via
#     --benchmark_out (includes the batched-scan prefetch on/off entries).
#
# `run_benches.sh --check` instead runs the static lint, builds the
# sanitizer configurations, and runs the sensitive test subsets:
#   * tools/lint_pptr_stores.py: raw stores through pool-derived pointers
#     outside the sanctioned Psan* helpers (plus clang-tidy when installed);
#   * build-tsan/ (POSEIDON_TSAN): the race-sensitive suites (ctest -L tsan)
#     — MVTO, commit pipeline, concurrency — plus the read-path scalability
#     suite (ctest -L readpath): snapshot publication, rts coalescing and
#     sharded tx-slot registration under concurrent readers and writers, and
#     the overload-governance suite (ctest -L overload): cross-thread
#     cancellation, admission-gate sheds and watermark denials race-checked;
#   * build-asan/ (POSEIDON_ASAN, ASan+UBSan): the fault-injection suites
#     (ctest -L fault) — crash-point exploration, corrupt-segment recovery,
#     diskgraph fault paths — where a missed bounds check on crafted-garbage
#     input becomes a memory error — plus the online-scrubbing suite
#     (ctest -L scrub): randomized media faults, repair and quarantine,
#     where repairs that dereference corrupt offsets become wild accesses;
#   * build-psan/ (POSEIDON_PSAN): the persist-order sanitizer suites
#     (ctest -L psan) — seeded-bug detection plus the commit pipeline and
#     crash explorer re-run with durability-ordering checks armed.
# Every stage fails the check on violations (set -e).

if [ "${1:-}" = "--check" ]; then
  set -e
  (cd /root/repo && python3 tools/lint_pptr_stores.py)
  echo "LINT CHECK DONE"
  cmake -B /root/repo/build-tsan -S /root/repo -DPOSEIDON_TSAN=ON
  cmake --build /root/repo/build-tsan -j"$(nproc)" --target \
      concurrency_test mvto_test commit_pipeline_test tx_edge_test \
      adjacency_cache_test readpath_scaling_test overload_test \
      jit_lifetime_test scan_kernel_test morsel_dispatch_test jit_test
  ctest --test-dir /root/repo/build-tsan -L tsan --output-on-failure
  ctest --test-dir /root/repo/build-tsan -L readpath --output-on-failure
  ctest --test-dir /root/repo/build-tsan -L overload --output-on-failure
  echo "TSAN CHECK DONE"
  # fig11 smoke: a ~2 s closed-loop run of the throughput bench on the
  # regular build. Catches read-path regressions (snapshot publication
  # stalls, fallback storms) that unit tests are too short to surface;
  # PSAN violation accounting is asserted inside the bench itself.
  cmake --build /root/repo/build -j"$(nproc)" --target bench_fig11_throughput
  POSEIDON_BENCH_FIG11_MS=100 POSEIDON_BENCH_FIG11_ABLATE_MS=150 \
  POSEIDON_BENCH_FIG11_THREADS=1,4 POSEIDON_BENCH_FIG11_ABLATE_THREADS=4 \
  POSEIDON_BENCH_FIG11_MODES=aot POSEIDON_BENCH_JSON_DIR="" \
      timeout 120 /root/repo/build/bench/bench_fig11_throughput
  echo "FIG11 SMOKE DONE"
  cmake -B /root/repo/build-asan -S /root/repo -DPOSEIDON_ASAN=ON
  cmake --build /root/repo/build-asan -j"$(nproc)" --target \
      crash_explorer_test fault_injection_test crash_property_test \
      media_fault_test overload_test
  ctest --test-dir /root/repo/build-asan -L fault --output-on-failure
  ctest --test-dir /root/repo/build-asan -L scrub --output-on-failure
  ctest --test-dir /root/repo/build-asan -L overload --output-on-failure
  echo "ASAN FAULT CHECK DONE"
  cmake -B /root/repo/build-psan -S /root/repo -DPOSEIDON_PSAN=ON
  cmake --build /root/repo/build-psan -j"$(nproc)" --target \
      psan_test latency_model_test commit_pipeline_test crash_explorer_test \
      media_fault_test overload_test
  ctest --test-dir /root/repo/build-psan -L psan --output-on-failure
  echo "PSAN CHECK DONE"
  exit 0
fi

export POSEIDON_BENCH_PERSONS=${POSEIDON_BENCH_PERSONS:-1000}
export POSEIDON_BENCH_RUNS=${POSEIDON_BENCH_RUNS:-50}
export POSEIDON_BENCH_THREADS=${POSEIDON_BENCH_THREADS:-2}
out=${1:-/root/repo/bench_output.txt}
json_dir=${2:-$(dirname "$out")}
export POSEIDON_BENCH_JSON_DIR="$json_dir"
: > "$out"
for b in /root/repo/build/bench/bench_*; do
  [ -x "$b" ] || continue
  name=$(basename "$b")
  echo "===== $name =====" | tee -a "$out"
  if [ "$name" = bench_pmem_micro ]; then
    timeout 1200 "$b" --benchmark_out_format=json \
        --benchmark_out="$json_dir/BENCH_pmem_micro.json" >> "$out" 2>&1 \
        || echo "FAILED: $b" | tee -a "$out"
  else
    timeout 1200 "$b" >> "$out" 2>&1 || echo "FAILED: $b" | tee -a "$out"
  fi
  echo >> "$out"
done
echo "ALL BENCHES DONE"
