#!/usr/bin/env bash
# Pre-merge gate:
#
#   1. tier-1: build + ctest.
#   2. sanitizers: ASan/UBSan builds of the soak and fault benches — E9
#      (wire faults), E10 (board deaths), E11 (resumption), E12 (trace
#      audit), E14 (crypto offload), E15 (hostile peers + fuzz), E16
#      (reduced-scale slab churn in quarantine/poison mode) and E17 (SLO
#      timeline) — so every corruption, teardown, recovery, parse and
#      tracing path runs sanitizer-clean. The artifacts no snapshot covers
#      double-run here for byte-reproducibility: E16's reduced-scale JSON,
#      E12's Chrome trace + pcap, and E17's timeseries CSV.
#   3. snapshots: scripts/run_benches.sh runs every bench (Release) into a
#      scratch directory, and each BENCH_*.json except BENCH_CRYPTO.json
#      (google-benchmark wall-clock) must equal its committed
#      bench/snapshots/ counterpart byte for byte, host_ms stripped from
#      both sides. A bench without a committed snapshot fails. A deliberate
#      behaviour change refreshes the snapshots in the same change, so the
#      rebaseline is a diff a reviewer reads.
#   4. dispatch matrix: the same E1/E9 run under RMC_DISPATCH=legacy must
#      equal the snapshot too (step 3 ran the default fast interpreter).
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
echo "== sanitizers: ASan+UBSan E9-E12 + E14-E17 =="
san_dir="$repo_root/build-san"
cmake -B "$san_dir" -S "$repo_root" \
  -DCMAKE_BUILD_TYPE=Debug -DRMC_SANITIZE=address,undefined >/dev/null
cmake --build "$san_dir" -j --target bench_fault_soak --target bench_crash_soak \
  --target bench_resumption --target bench_trace_audit \
  --target bench_crypto_offload --target bench_abuse_soak \
  --target bench_mem_churn --target bench_slo_timeline >/dev/null
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
# E14 carries its own PASS/FAIL gate (engine wire identity + >=5x per
# record); a nonzero exit here fails the check either way.
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
if ((${#failed[@]})); then
  echo "snapshot gate FAILED for: ${failed[*]}" >&2
  exit 1
fi
echo "$compared artifacts match bench/snapshots"

echo
echo "== dispatch matrix: RMC_DISPATCH=legacy E1/E9 == snapshot =="
# The predecoded fast interpreter must be an execution-order no-op. E1 is
# the interpreter-heavy artifact, E9 the SimNet-heavy one.
for entry in E1:bench_aes_asm_vs_c E9:bench_fault_soak; do
  id="${entry%%:*}" bin="${entry#*:}"
  extra=()
  [[ "$id" == E9 ]] && extra=(--seed 233)
  RMC_DISPATCH=legacy "$repo_root/build-bench/bench/$bin" "${extra[@]}" \
    --json "$tmp/${id}_legacy.json" >/dev/null
  same_json "$tmp/${id}_legacy.json" "$snap_dir/BENCH_$id.json"
  echo "$id: legacy == snapshot"
done

echo
echo "check.sh: all gates passed"
