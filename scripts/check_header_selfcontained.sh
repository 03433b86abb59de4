#!/usr/bin/env bash
# Header self-containment check: every public header under src/ must
# compile as its own translation unit (all of its includes in place, no
# hidden ordering dependencies). Compiles each header standalone with
# -fsyntax-only; any failure lists the offending header.
#
# Headers are checked in the dialect the build uses (CMakeLists.txt pins
# C++20).
#
# Usage: scripts/check_header_selfcontained.sh [compiler]
set -euo pipefail
cd "$(dirname "$0")/.."

CXX="${1:-${CXX:-c++}}"
FLAGS=(-std=c++20 -fsyntax-only -Wall -Wextra -I src)

fail=0
count=0
while IFS= read -r header; do
  count=$((count + 1))
  if ! "$CXX" "${FLAGS[@]}" -x c++-header "$header" 2>/tmp/hdr_check_err.$$; then
    echo "FAIL: $header is not self-contained:" >&2
    sed 's/^/    /' /tmp/hdr_check_err.$$ >&2
    fail=1
  fi
done < <(find src -name '*.hpp' | sort)
rm -f /tmp/hdr_check_err.$$

if [[ "$fail" -ne 0 ]]; then
  exit 1
fi
echo "OK: all $count headers compile standalone."
