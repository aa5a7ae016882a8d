#!/usr/bin/env bash
# Pre-merge gate:
#
#   1. tier-1: build + ctest.
#   2. sanitizers: ASan/UBSan builds of test_common (the ByteQueue FIFO
#      under TCP and the record layer: offset reads, compaction, storage
#      freed on drain), of test_crypto (the BigNum limb kernels, Knuth D
#      and Montgomery, index raw limb buffers; the T-table AES, the
#      unrolled SHA-1, the keyed HMAC state and the in-place CBC index
#      tables and rolling buffers; their differential tests against the
#      bit-serial BigNum and the plain SHA-1/HMAC/PRF/CBC references run
#      here), of test_issl and test_cryptocell (attacker-controlled records
#      reach the per-direction HMAC state, the T-table decrypt into the
#      payload buffer and the in-place padding checks there, and the crypto
#      engine's use of AesFast and hmac_sha1), of test_net and test_edges
#      (the TCP tick list and demultiplexing indexes, erased while lookups
#      run, the send buffer's in-flight offsets, the bulk receive copy, and
#      the 16k-connect port-wrap test), of the interpreter's tests —
#      test_dispatch, test_rabbit, test_rabbit_isa and test_aes_port (the
#      fast loop indexes its decode page from a running physical PC, so a
#      fetch off the page would be a heap overflow; the fast-vs-legacy
#      differentials, every encoding's fall-through included, and the real
#      AES images run here) — and of the soak and fault benches —
#      E9 (wire faults), E10 (board deaths), E11 (resumption), E12 (trace
#      audit), E14 (the engine record gate), E15 (hostile peers + fuzz),
#      E16 (reduced-scale slab churn in quarantine/poison mode) and E17
#      (SLO timeline) — so every corruption, teardown, recovery, parse and
#      tracing path runs sanitizer-clean. E16's reduced-scale JSON, E12's
#      Chrome trace + pcap, and E17's timeseries CSV double-run here for
#      byte-reproducibility.
#   3. snapshots: scripts/run_benches.sh runs every bench (Release) into a
#      scratch directory, and each BENCH_*.json except BENCH_CRYPTO.json
#      (google-benchmark wall-clock) must equal its committed
#      bench/snapshots/ counterpart byte for byte, host_ms stripped from
#      both sides. A bench without a committed snapshot fails. The E12
#      trace and pcap and the E17 CSV, too large to commit, must match the
#      SHA-256 digests in bench/snapshots/ARTIFACTS.sha256. A deliberate
#      behaviour change refreshes the snapshots (and, if those three
#      artifacts move, the digests) in the same change, so the rebaseline
#      lands as a readable diff.
#   4. dispatch matrix: the same E1/E2 run under RMC_DISPATCH=legacy must
#      equal the snapshot too (step 3 ran the default fast interpreter).
#   5. perfbench determinism: perfbench/run.py builds the repo benchmark
#      into a scratch directory and runs one unit of each of its four
#      workloads on seeds 1-3; the twelve `determinism {...}` lines (every
#      count and board-clock metric the benchmark pins per seed) must equal
#      bench/snapshots/PERFBENCH_DETERMINISM.txt. A change that means to
#      move them refreshes that file in the same change. onboard_aes, the
#      workload that runs Rabbit code, runs seeds 1-3 again under
#      RMC_DISPATCH=legacy, and those three lines must equal the fast
#      interpreter's pinned ones.
#
# Usage:
#   scripts/check.sh
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
snap_dir="$repo_root/bench/snapshots"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# The one way this script compares bench JSON: byte for byte, minus the
# wall-clock host_ms field (the only one that varies run to run).
strip_host_ms() { sed -E 's/"host_ms":[0-9]+,//' "$1"; }
same_json() {
  cmp -s <(strip_host_ms "$1") <(strip_host_ms "$2") && return
  echo "$1 differs from $2 (host_ms stripped)" >&2
  return 1
}

echo "== tier-1: build + ctest =="
cmake -B "$repo_root/build" -S "$repo_root" >/dev/null
cmake --build "$repo_root/build" -j >/dev/null
(cd "$repo_root/build" && ctest --output-on-failure -j)

echo
echo "== sanitizers: ASan+UBSan test_common/crypto/issl/cryptocell/net/edges + interpreter tests + E9-E12 + E14-E17 =="
san_dir="$repo_root/build-san"
cmake -B "$san_dir" -S "$repo_root" \
  -DCMAKE_BUILD_TYPE=Debug -DRMC_SANITIZE=address,undefined >/dev/null
cmake --build "$san_dir" -j --target test_common --target test_crypto \
  --target test_issl --target test_cryptocell \
  --target test_net --target test_edges \
  --target test_dispatch --target test_rabbit \
  --target test_rabbit_isa --target test_aes_port \
  --target bench_fault_soak --target bench_crash_soak \
  --target bench_resumption --target bench_trace_audit \
  --target bench_crypto_offload --target bench_abuse_soak \
  --target bench_mem_churn --target bench_slo_timeline >/dev/null
# UBSan reports are recoverable by default; halt so one fails the run.
# Four gtest shards in parallel: single-threaded, the differential tests
# against the bit-serial oracle take over two minutes under the sanitizers.
shard_pids=()
for shard in 0 1 2 3; do
  GTEST_TOTAL_SHARDS=4 GTEST_SHARD_INDEX=$shard \
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    "$san_dir/tests/test_crypto" --gtest_brief=1 &
  shard_pids+=($!)
done
for pid in "${shard_pids[@]}"; do wait "$pid"; done
for t in test_common test_issl test_cryptocell test_net test_edges \
         test_dispatch test_rabbit test_rabbit_isa test_aes_port; do
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    "$san_dir/tests/$t" --gtest_brief=1
done
"$san_dir/bench/bench_fault_soak" --seed 233
"$san_dir/bench/bench_crash_soak" --seed 233
"$san_dir/bench/bench_resumption"
# E12: two traced runs must produce byte-identical Chrome trace JSON and
# pcap.
for run in a b; do
  "$san_dir/bench/bench_trace_audit" \
    --trace "$tmp/e12$run.trace.json" --pcap "$tmp/e12$run.pcap" >/dev/null
done
cmp "$tmp/e12a.trace.json" "$tmp/e12b.trace.json"
cmp "$tmp/e12a.pcap" "$tmp/e12b.pcap"
echo "E12: trace and pcap identical"
# E14 is the engine record gate: wire identity with software, clean
# fallback, and the engine >=5x cheaper per record than the C port priced
# from measured kernels; a nonzero exit here fails the check either way.
"$san_dir/bench/bench_crypto_offload"
# E15 likewise: never-wedge, zero corruption, full flight-recorder
# attribution, legit goodput under attack — plus the fuzz phase, which
# under this build feeds every mutated input to ASan/UBSan-checked parsers.
"$san_dir/bench/bench_abuse_soak" --seed 233
# E16 under sanitizers runs the whole churn in quarantine/poison mode with
# reduced cycle counts (full scale is the snapshot's job): every
# alloc/free/poison-audit path executes with ASan watching the backing
# store, and the deliberate double-free/use-after-free demo must be caught
# by the slab's own detection (the slab never hands the stale bytes to the
# host allocator, so ASan stays quiet and the named-fault gate does the
# asserting).
e16_flags=(--seed 233 --churn-cycles 20000 --quarantine-cycles 5000
           --sessions 40 --fault-sessions 8 --min-cycles 1 --quarantine 1)
for run in a b; do
  "$san_dir/bench/bench_mem_churn" "${e16_flags[@]}" \
    --json "$tmp/e16$run.json" >/dev/null
done
same_json "$tmp/e16a.json" "$tmp/e16b.json"
echo "E16: reduced-scale json identical"
# E17 runs both legs (bare + instrumented) of its partition/power-cut soak,
# so the sampler scrape, delta rings, percentile math, SLO evaluation, and
# the byte-identity signature comparison all execute under ASan/UBSan.
for run in a b; do
  "$san_dir/bench/bench_slo_timeline" --seed 563 \
    --csv "$tmp/e17$run.csv" >/dev/null
done
cmp "$tmp/e17a.csv" "$tmp/e17b.csv"
echo "E17: timeseries csv identical"

echo
echo "== snapshots: every bench json == bench/snapshots (host_ms stripped) =="
"$repo_root/scripts/run_benches.sh" "$tmp/benches" >/dev/null
compared=0
failed=()
for fresh in "$tmp/benches"/BENCH_*.json; do
  name="$(basename "$fresh")"
  [[ "$name" == BENCH_CRYPTO.json || "$name" == *.trace.json ]] && continue
  id="${name#BENCH_}" id="${id%.json}"
  compared=$((compared + 1))
  if [[ ! -f "$snap_dir/$name" ]]; then
    echo "$id: no committed snapshot"
    failed+=("$id")
  elif ! same_json "$fresh" "$snap_dir/$name" 2>/dev/null; then
    echo "$id: differs from bench/snapshots/$name (snapshot <, fresh >):"
    diff <(strip_host_ms "$snap_dir/$name" | tr ',' '\n') \
         <(strip_host_ms "$fresh" | tr ',' '\n') | head -40 || true
    failed+=("$id")
  else
    echo "$id: matches snapshot"
  fi
done
# sha256sum names each file, OK or FAILED.
if ! (cd "$tmp/benches" && sha256sum -c "$snap_dir/ARTIFACTS.sha256"); then
  failed+=(ARTIFACTS.sha256)
fi
if ((${#failed[@]})); then
  echo "snapshot gate FAILED for: ${failed[*]}" >&2
  exit 1
fi
echo "$compared artifacts + ARTIFACTS.sha256 match bench/snapshots"

echo
echo "== dispatch matrix: RMC_DISPATCH=legacy E1/E2 == snapshot =="
# The predecoded fast interpreter must be an execution-order no-op. Both
# legs run Rabbit code: E1 hand assembly and dcc-built AES, E2 the dcc AES
# under every optimization setting, with CycleProfiler attribution (the
# StepSink path) on each. A bench that never executes a Rabbit instruction
# would check nothing here.
for entry in E1:bench_aes_asm_vs_c E2:bench_optimizations; do
  id="${entry%%:*}" bin="${entry#*:}"
  RMC_DISPATCH=legacy "$repo_root/build-bench/bench/$bin" \
    --json "$tmp/${id}_legacy.json" >/dev/null
  same_json "$tmp/${id}_legacy.json" "$snap_dir/BENCH_$id.json"
  echo "$id: legacy == snapshot"
done

echo
echo "== perfbench determinism: 4 workloads x seeds 1-3 == snapshot, onboard_aes legacy too =="
# One unit per run (--seconds 0.01): the determinism line holds per-unit
# counts, so a longer run prints the same line. run.py's build output goes
# to a log that is shown if a build or a run fails.
perfbench_line() {
  local workload="$1" seed="$2" out
  if ! out="$(CARGO_TARGET_DIR="$tmp/perfbench" python3 \
      "$repo_root/perfbench/run.py" --workload "$workload" --seed "$seed" \
      --seconds 0.01 2>>"$tmp/perfbench.log")"; then
    tail -20 "$tmp/perfbench.log" >&2
    echo "perfbench $workload seed $seed failed" >&2
    return 1
  fi
  echo "$workload seed $seed: $(grep '^determinism ' <<<"$out")"
}
for workload in psk_churn rsa_churn bulk_stream onboard_aes; do
  for seed in 1 2 3; do
    perfbench_line "$workload" "$seed"
  done
done >"$tmp/perfbench_determinism.txt"
if ! diff "$snap_dir/PERFBENCH_DETERMINISM.txt" \
    "$tmp/perfbench_determinism.txt"; then
  echo "perfbench determinism lines differ from" \
    "bench/snapshots/PERFBENCH_DETERMINISM.txt (snapshot <, fresh >)" >&2
  exit 1
fi
echo "perfbench: 12 determinism lines match the snapshot"
# The benchmark's own Rabbit workload under the reference interpreter.
for seed in 1 2 3; do
  RMC_DISPATCH=legacy perfbench_line onboard_aes "$seed"
done >"$tmp/perfbench_legacy.txt"
if ! diff <(grep '^onboard_aes ' "$snap_dir/PERFBENCH_DETERMINISM.txt") \
    "$tmp/perfbench_legacy.txt"; then
  echo "RMC_DISPATCH=legacy onboard_aes determinism lines differ from" \
    "bench/snapshots/PERFBENCH_DETERMINISM.txt (snapshot <, legacy >)" >&2
  exit 1
fi
echo "perfbench: 3 legacy onboard_aes lines match the fast interpreter's"

echo
echo "check.sh: all gates passed"
