#!/usr/bin/env bash
# Build Release and run every experiment with --json, collecting the stable
# BENCH_*.json artifacts at the repo root (schema: schema_version / bench /
# params / results / profiles / metrics — see bench/bench_util.h).
#
# Every bench runs even if an earlier one fails; failures are collected and
# a per-bench PASS/FAIL table is printed at the end — and also written as
# machine-readable SUMMARY.json next to the artifacts — and the script exits
# non-zero if there were any failures. A half-written artifact from a failed
# bench is removed so stale JSON never masquerades as a fresh result.
#
# E12 (bench_trace_audit) additionally writes the tracing artifacts — the
# Chrome trace JSON and the pcap — next to its BENCH_E12.json.
#
# Usage:
#   scripts/run_benches.sh [out_dir]      # default: repo root
#
# bench_crypto_primitives is google-benchmark based and exports through that
# framework's own --benchmark_format=json instead of the shared schema.
set -uo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
out_dir="${1:-$repo_root}"
build_dir="$repo_root/build-bench"
mkdir -p "$out_dir"

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$build_dir" -j >/dev/null

ran=()
failures=()

run() {
  local id="$1" bin="$2"
  shift 2
  echo "== $id: $bin $* =="
  ran+=("$id")
  if ! "$build_dir/bench/$bin" "$@" --json "$out_dir/BENCH_$id.json"; then
    echo "!! $id FAILED" >&2
    rm -f "$out_dir/BENCH_$id.json"
    failures+=("$id")
  fi
}

run E1 bench_aes_asm_vs_c
run E2 bench_optimizations
run E3 bench_code_size
run E4 bench_connections
run E5 bench_ssl_throughput
run E6 bench_handshake
run E7 bench_memory
run E9 bench_fault_soak --seed 233
run E10 bench_crash_soak --seed 233
run E11 bench_resumption
run E12 bench_trace_audit \
  --trace "$out_dir/BENCH_E12.trace.json" --pcap "$out_dir/BENCH_E12.pcap"
run E14 bench_crypto_offload
run E15 bench_abuse_soak --seed 233
run E16 bench_mem_churn --seed 233
# E17 also writes the timeseries CSV next to its JSON (the same curves the
# JSON "timeseries" section carries, in spreadsheet-friendly form).
run E17 bench_slo_timeline --seed 563 --csv "$out_dir/BENCH_E17.timeline.csv"
run ABLATION bench_ablation_record

echo "== CRYPTO: bench_crypto_primitives (google-benchmark JSON) =="
ran+=(CRYPTO)
if ! "$build_dir/bench/bench_crypto_primitives" \
  --benchmark_format=json >"$out_dir/BENCH_CRYPTO.json"; then
  echo "!! CRYPTO FAILED" >&2
  rm -f "$out_dir/BENCH_CRYPTO.json"
  failures+=(CRYPTO)
fi

echo
echo "artifacts:"
ls -l "$out_dir"/BENCH_* || true

echo
echo "bench     result"
echo "--------  ------"
summary_json="$out_dir/SUMMARY.json"
{
  echo '{'
  echo '  "schema_version": 1,'
  echo '  "benches": ['
  sep=''
  for id in "${ran[@]}"; do
    verdict=PASS
    for f in "${failures[@]:-}"; do
      [[ "$f" == "$id" ]] && verdict=FAIL
    done
    printf '%s    {"id": "%s", "result": "%s"}' "$sep" "$id" "$verdict"
    sep=$',\n'
  done
  echo
  echo '  ],'
  echo "  \"failed\": ${#failures[@]}"
  echo '}'
} >"$summary_json"
for id in "${ran[@]}"; do
  verdict=PASS
  for f in "${failures[@]:-}"; do
    [[ "$f" == "$id" ]] && verdict=FAIL
  done
  printf '%-8s  %s\n' "$id" "$verdict"
done
echo "summary: $summary_json"

if ((${#failures[@]})); then
  echo
  echo "FAILED benches: ${failures[*]}" >&2
  exit 1
fi
