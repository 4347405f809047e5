#!/usr/bin/env bash
# Tier-1 verification under sanitizers: builds the repo and runs ctest
# with AddressSanitizer and UndefinedBehaviorSanitizer instrumentation
# (see the WEDGE_SANITIZE option in the top-level CMakeLists.txt),
# re-runs the crypto/Merkle suites with hardware crypto disabled (the
# scalar SHA-256 backend must stay byte-identical), and finishes with the
# hot-path performance smoke test (tools/perf_smoke.sh) and the chaos and
# observability smokes.
#
# Every step runs even when an earlier one fails; the script then exits
# non-zero and lists the failed steps.
#
# Usage: tools/check.sh [sanitizer ...]
#   Default sanitizers: address undefined. "thread" is also accepted.
set -uo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
sanitizers=("$@")
if [ ${#sanitizers[@]} -eq 0 ]; then
  sanitizers=(address undefined)
fi

failed=()

# step <name> <command...>: runs one step and records it if it fails.
step() {
  local name="$1"
  shift
  echo "==> [$name] running"
  if "$@"; then
    echo "==> [$name] OK"
  else
    echo "==> [$name] FAILED"
    failed+=("$name")
  fi
}

# sanitizer_tests <sanitizer> [ctest args...]: configure, build, ctest.
sanitizer_tests() {
  local san="$1"
  shift
  local build_dir="$repo_root/build-$san"
  cmake -B "$build_dir" -S "$repo_root" -DWEDGE_SANITIZE="$san" >/dev/null &&
    cmake --build "$build_dir" -j "$(nproc)" >/dev/null &&
    ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" "$@"
}

for san in "${sanitizers[@]}"; do
  step "$san" sanitizer_tests "$san"
done

# The heavily multi-threaded subsystems get a dedicated ThreadSanitizer
# pass even in the default run: the telemetry registry and tracer (sharded
# histograms, concurrent Append workers), the TCP RPC stack (epoll
# workers, pipelined client reader threads, wire_test/rpc_test), the
# sharded multi-tenant engine (admission controller + epoch aggregator
# hit from concurrent RPC workers, shard_test/shard_rpc_test), the
# segmented store's leader-based group commit (concurrent
# AppendPrepare/WaitDurable cohorts, segstore_test), and the process-wide
# known-signer cache (promotions, hits and evictions from many threads,
# crypto_test). A full-suite TSan run can still be requested explicitly
# with `tools/check.sh thread`.
if [[ ! " ${sanitizers[*]} " =~ " thread " ]]; then
  step "thread (concurrent subset)" sanitizer_tests thread \
    -R 'telemetry|stage2_submitter|chain_test|integration|wire_test|rpc_test|shard|fault_transport|fleet_router|agg_journal|chaos_test|trace_propagation|admin_http|fleet_merge|core_test|segstore|crypto_test'
fi

first_build="$repo_root/build-${sanitizers[0]}"

# Crypto equivalence under the forced-portable configuration: the same
# tests that pin each backend also run with hardware crypto disabled, so
# the scalar path is exercised even on SHA-NI/AVX2 machines.
scalar_rerun() {
  WEDGE_DISABLE_HWCRYPTO=1 ctest --test-dir "$first_build" \
    --output-on-failure -R 'crypto_test|merkle_test'
}
step scalar scalar_rerun

# EC equivalence with the precomputed tables forced off: every public
# scalar-multiplication entry point routes to the naive double-and-add
# reference, so secp256k1/ecdsa/equivalence tests prove the slow path
# still produces byte-identical signatures (and core_test exercises the
# signer pool on top of it). ec_equiv_test also checks VerifySigner
# against RecoverSigner on this backend.
ec_reference_rerun() {
  WEDGE_EC_BACKEND=reference ctest --test-dir "$first_build" \
    --output-on-failure -R 'crypto_test|ec_equiv_test|core_test'
}
step ec-reference ec_reference_rerun

step "perf smoke" "$repo_root/tools/perf_smoke.sh"

# Chaos smoke: a short scripted kill + partition + recover run against
# real wedgeblockd processes (see tools/chaos.sh). Fails the check if any
# client-acked entry is lost or flunks two-level verification. Reuses the
# first sanitizer build, so the daemons run instrumented.
chaos_smoke() {
  local work rc
  work="$(mktemp -d /tmp/wedge-chaos-check-XXXXXX)" || return 1
  BUILD_DIR="$first_build" "$repo_root/tools/chaos.sh" \
    --work-dir "$work" --batches 4 --tenants 4 --audit-timeout-s 90
  rc=$?
  rm -rf "$work"
  return $rc
}
step "chaos smoke" chaos_smoke

# Observability smoke: 2-process fleet with live admin endpoints — merged
# fleetmon counters must equal the loadgen ground truth and at least one
# trace must stitch client + daemon spans end to end (tools/obs_smoke.sh).
step "observability smoke" env BUILD_DIR="$first_build" \
  "$repo_root/tools/obs_smoke.sh"

if [ ${#failed[@]} -gt 0 ]; then
  echo "==> FAILED steps (${#failed[@]}):"
  for name in "${failed[@]}"; do echo "    - $name"; done
  exit 1
fi
echo "==> All steps passed: ${sanitizers[*]} thread(concurrent subset)," \
  "scalar, ec-reference, perf smoke, chaos smoke, observability smoke"
