#!/usr/bin/env bash
# Deterministic-replay check.
#
# Builds the repo twice -- telemetry ON (the default) and telemetry OFF --
# and runs tools/determinism_probe in each configuration. The probe prints
# `state_digest <hex16>` after a fixed seeded scenario. One digest is pinned
# (PINNED below), and this script fails unless every one of these prints it:
#   (a) two runs of the sequential engine in the same build (nondeterminism
#       within a build: wall-clock leak, unseeded randomness,
#       unordered-container ordering), and one in the telemetry-OFF build
#       (telemetry recording must not change simulation behaviour);
#   (b) the sharded parallel engine at worker thread counts 1, 2, 4 and 8
#       (`--threads=N`; engine identity: every engine runs the one delivery
#       path, so each computes the exact same world);
#   (c) every index backend (MIND_BACKEND=sorted|bitmap|adaptive) --
#       backends are physical layout only (docs/BACKENDS.md) and must be
#       invisible to the simulation;
#   (d) an MSN1 snapshot save/load cycle (`--snapshot-roundtrip`: the
#       restore's internal digest gate plus the printed pre-snapshot
#       digest), sequential and at threads=4 -- week-long campaigns must
#       resume bit-identically.
# Separately, (e) the front-end-driven scenario (`--frontend`: streaming
# ingest + admission-controlled query service) must agree run to run and
# across MIND_TELEMETRY settings.
#
# Usage: tools/check_determinism.sh [build-dir]   (default: build-determinism)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build-determinism}"

digest() {  # digest <binary> [flags...]  -> prints the hex digest
  local bin="$1"; shift
  local out
  out="$("${bin}" "$@" | grep '^state_digest ' | awk '{print $2}')"
  if [[ -z "${out}" ]]; then
    echo "error: ${bin} $* printed no state_digest" >&2
    exit 1
  fi
  echo "${out}"
}

echo "== configure + build (telemetry ON) =="
cmake -B "${BUILD}/on" -S . -DMIND_TELEMETRY=ON >/dev/null
cmake --build "${BUILD}/on" --target determinism_probe -j >/dev/null

echo "== configure + build (telemetry OFF) =="
cmake -B "${BUILD}/off" -S . -DMIND_TELEMETRY=OFF >/dev/null
cmake --build "${BUILD}/off" --target determinism_probe -j >/dev/null

PINNED="83a37054ff6b7be4"
probe="${BUILD}/on/tools/determinism_probe"
fail=0

check() {  # check <label> <digest>
  printf '%-30s %s\n' "$1:" "$2"
  if [[ "$2" != "${PINNED}" ]]; then
    echo "FAIL: $1 printed $2, not the pinned ${PINNED} -- the replay" \
         "changed behaviour or an engine/build/backend leg diverged" >&2
    fail=1
  fi
}

echo "== replay (pinned ${PINNED}) =="
check "run 1 (telemetry on)" "$(digest "${probe}")"
check "run 2 (telemetry on)" "$(digest "${probe}")"
check "run 3 (telemetry off)" "$(digest "${BUILD}/off/tools/determinism_probe")"

echo
echo "== engine identity (parallel thread counts) =="
for t in 1 2 4 8; do
  check "threads=${t}" "$(digest "${probe}" --threads="${t}")"
done

echo
echo "== backend identity (MIND_BACKEND replay legs) =="
for b in sorted bitmap adaptive; do
  check "MIND_BACKEND=${b}" "$(MIND_BACKEND="${b}" digest "${probe}")"
done

echo
echo "== snapshot roundtrip (MSN1 save/load must preserve the digest) =="
check "serial through save/load" "$(digest "${probe}" --snapshot-roundtrip)"
check "threads=4 through save/load" \
      "$(digest "${probe}" --threads=4 --snapshot-roundtrip)"

echo
echo "== front-end replay (ingest pipeline + admission-controlled queries) =="
fe1="$(digest "${probe}" --frontend)"
fe2="$(digest "${probe}" --frontend)"
fe_off="$(digest "${BUILD}/off/tools/determinism_probe" --frontend)"
echo "frontend run 1 (telemetry on):  ${fe1}"
echo "frontend run 2 (telemetry on):  ${fe2}"
echo "frontend run 3 (telemetry off): ${fe_off}"
if [[ "${fe1}" != "${fe2}" ]]; then
  echo "FAIL: two front-end runs diverged -- src/frontend leaked" \
       "nondeterminism (unordered lane/queue iteration?)" >&2
  fail=1
fi
if [[ "${fe1}" != "${fe_off}" ]]; then
  echo "FAIL: front-end digests differ across MIND_TELEMETRY settings --" \
       "a frontend.* recording call changes simulation state" >&2
  fail=1
fi

if [[ "${fail}" -ne 0 ]]; then
  exit 1
fi
echo
echo "OK: deterministic replay verified (pinned ${PINNED})"
