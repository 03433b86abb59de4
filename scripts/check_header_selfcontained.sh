#!/usr/bin/env bash
# Header self-containment check: every public header under src/ must
# compile as its own translation unit (all of its includes in place, no
# hidden ordering dependencies). Compiles each header standalone with
# -fsyntax-only; any failure lists the offending header.
#
# Headers are checked in the dialect the build uses (CMakeLists.txt pins
# C++20), once with the QMAX_TELEMETRY gate off and once with it on, so
# the gate-on branches (real instruments, the flight recorder) are
# checked standalone too.
#
# Usage: scripts/check_header_selfcontained.sh [compiler]
set -euo pipefail
cd "$(dirname "$0")/.."

CXX="${1:-${CXX:-c++}}"
FLAGS=(-std=c++20 -fsyntax-only -Wall -Wextra -I src)

err="$(mktemp)"
trap 'rm -f "$err"' EXIT

fail=0
count=0
for gate in "" "-DQMAX_TELEMETRY=1"; do
  while IFS= read -r header; do
    count=$((count + 1))
    if ! "$CXX" "${FLAGS[@]}" $gate -x c++-header "$header" \
         2>"$err"; then
      echo "FAIL: $header is not self-contained${gate:+ ($gate)}:" >&2
      sed 's/^/    /' "$err" >&2
      fail=1
    fi
  done < <(find src -name '*.hpp' | sort)
done

if [[ "$fail" -ne 0 ]]; then
  exit 1
fi
echo "OK: all $((count / 2)) headers compile standalone, gate off and on."
