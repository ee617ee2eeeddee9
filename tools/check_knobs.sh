#!/usr/bin/env bash
# Checks that README.md documents exactly the environment knobs the library
# reads.
#
# Usage: bash tools/check_knobs.sh   (no flags; works from any directory)
#
# The knobs read are the "HYTAP_*" string literals under src/. The knobs
# documented are the HYTAP_* names in README.md, minus the CMake options
# -DHYTAP_TSAN and -DHYTAP_ASAN, which are not environment knobs. Fails,
# listing the names, when a knob read under src/ is missing from README.md
# or when README.md documents a knob that src/ no longer reads.
set -euo pipefail

cd "$(dirname "$0")/.."

read_knobs="$(grep -rhoE '"HYTAP_[A-Z0-9_]+"' src | tr -d '"' | sort -u)"
documented="$(grep -oE 'HYTAP_[A-Z0-9_]+' README.md |
  grep -vxE 'HYTAP_(TSAN|ASAN)' | sort -u)"

undocumented="$(comm -23 <(echo "$read_knobs") <(echo "$documented"))"
unread="$(comm -13 <(echo "$read_knobs") <(echo "$documented"))"

status=0
if [[ -n "$undocumented" ]]; then
  echo "read under src/ but missing from README.md:" >&2
  echo "$undocumented" | sed 's/^/  /' >&2
  status=1
fi
if [[ -n "$unread" ]]; then
  echo "documented in README.md but not read under src/:" >&2
  echo "$unread" | sed 's/^/  /' >&2
  status=1
fi
if [[ $status -eq 0 ]]; then
  echo "knobs: $(echo "$read_knobs" | wc -l) read under src/, all documented"
fi
exit $status
