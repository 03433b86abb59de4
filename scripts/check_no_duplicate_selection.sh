#!/usr/bin/env bash
# Duplication guard: the paper's selection/partition machinery must exist
# in exactly one place. All top-k partitioning goes through
# core::partition_top / common::IncrementalSelect; if `std::nth_element`
# or `IncrementalSelect` usage reappears anywhere else under src/, some
# variant has grown its own copy of Algorithm 1/2 logic again and this
# check fails the build.
#
# Allowlist:
#   src/common/select.hpp   — defines IncrementalSelect (and its
#                             nth_element bail-out)
#   src/qmax/core.hpp       — runs IncrementalSelect twice: stepped in
#                             ParityEngine, and to completion in
#                             partition_top; it calls no nth_element
#   src/qmax/invariants.hpp — keeps an independent nth_element as the
#                             Theorem-1 cross-check oracle, deliberately
#                             not sharing code with what it audits
set -euo pipefail
cd "$(dirname "$0")/.."

pattern='std::nth_element|IncrementalSelect'
allowlist='^src/(common/select\.hpp|qmax/core\.hpp|qmax/invariants\.hpp):'

matches=$(grep -rnE "$pattern" src/ | grep -vE "$allowlist" || true)

if [[ -n "$matches" ]]; then
  echo "FAIL: selection/partition logic found outside core.hpp/select.hpp:" >&2
  echo "$matches" >&2
  echo "Route it through qmax::core::partition_top instead." >&2
  exit 1
fi
echo "OK: selection/partition logic lives only in the allowlisted files."
