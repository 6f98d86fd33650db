#!/usr/bin/env bash
# Lists library functions that no shipped binary reaches, so dead code is
# found and stays deleted.
#
# The shipped binaries are every executable under tools/ and bench/ of the
# main build, plus perfbench (built from perfbench/).
# Tests do not count: a function only a test calls is not shipped.
#
# Recipe: build the shipped binaries at -O0 -fno-inline (so every call keeps
# its callee) with -fkeep-inline-functions (so every inline member defined
# in a header is emitted too) and -ffunction-sections -fdata-sections, link
# them with -Wl,--gc-sections (so the linker drops every function nothing
# calls), take the external (nm type T) and inline (type W) functions of the
# src/ libraries and subtract every symbol (T, t, W or w) some binary kept.
# Only names in the ca5g:: namespace count, which leaves out the std::
# template instances the libraries emit; constructors and destructors are
# left out too, since an implicit one is emitted wherever its class is
# used. NDEBUG is defined as in the default build, so code reached only
# from CA5G_DCHECKs does not count either.
#
# What is left must be on tools/unreached_allowlist.txt, one demangled
# signature per line followed by " # <reason>". The script prints every
# unreached symbol that is not on the list and every list entry that is not
# (or no longer) an unreached symbol, and exits 1 if there is either.
#
# Usage:
#   tools/unreached_symbols.sh            # build trees in build-unreached/
#   BUILD_DIR=/tmp/u tools/unreached_symbols.sh
#
# Needs cmake, ninja, nm and c++filt. A cold run builds two -O0 trees.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS=${JOBS:-$(nproc)}
BUILD_DIR=${BUILD_DIR:-build-unreached}
ALLOWLIST=tools/unreached_allowlist.txt
FLAGS="-O0 -fno-inline -fkeep-inline-functions -ffunction-sections -fdata-sections -DNDEBUG"

run() { echo "+ $*" >&2; "$@"; }

configure() {  # <source dir> <build dir>
  run cmake -S "$1" -B "$2" -G Ninja -DCMAKE_BUILD_TYPE=Probe \
    "-DCMAKE_CXX_FLAGS=$FLAGS" \
    -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections >/dev/null
}

configure . "$BUILD_DIR/main"
configure perfbench "$BUILD_DIR/perfbench"

# Every executable target under tools/ and bench/.
mapfile -t SHIPPED < <(ninja -C "$BUILD_DIR/main" -t targets all |
  sed -n 's/^\(\(tools\|bench\)\/[^:]*\): CXX_EXECUTABLE_LINKER.*/\1/p' | sort -u)
if ((${#SHIPPED[@]} == 0)); then
  echo "unreached_symbols.sh: found no shipped executables" >&2
  exit 2
fi
run ninja -C "$BUILD_DIR/main" -j "$JOBS" "${SHIPPED[@]}" >/dev/null
run ninja -C "$BUILD_DIR/perfbench" -j "$JOBS" perfbench >/dev/null

mapfile -t LIBS < <(find "$BUILD_DIR/main/src" -name 'libca5g_*.a' | sort)
BINS=("${SHIPPED[@]/#/$BUILD_DIR/main/}" "$BUILD_DIR/perfbench/perfbench")
echo "unreached_symbols.sh: ${#LIBS[@]} libraries, ${#BINS[@]} shipped binaries" >&2

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
nm -g --defined-only "${LIBS[@]}" 2>/dev/null | awk '$2 == "T" || $2 == "W" { print $3 }' |
  sort -u >"$TMP/defined"
for bin in "${BINS[@]}"; do
  nm --defined-only "$bin" | awk '$2 ~ /^[TtWw]$/ { print $3 }'
done | sort -u >"$TMP/kept"
# Keep ca5g:: names, minus constructors and destructors: they demangle to
# "...::Name::Name(" or "...::Name::~Name(" (class template arguments, if
# any, after the first Name).
comm -23 "$TMP/defined" "$TMP/kept" | c++filt |
  sed -nE '/^ca5g::/{/(^|::)([A-Za-z_][A-Za-z0-9_]*)(<.*>)?::~?\2\(/!p}' |
  sort -u >"$TMP/unreached"

# Allowlist entries: "<demangled signature> # <reason>"; blank lines and
# lines starting with '#' are comments.
: >"$TMP/allowed"
status=0
while IFS= read -r line; do
  [[ -z "${line// /}" || "$line" == \#* ]] && continue
  if [[ "$line" != *" # "?* ]]; then
    echo "allowlist entry without a reason: $line" >&2
    status=1
    continue
  fi
  echo "${line%% # *}" >>"$TMP/allowed"
done <"$ALLOWLIST"
sort -u -o "$TMP/allowed" "$TMP/allowed"

echo "unreached_symbols.sh: $(wc -l <"$TMP/defined") library functions," \
  "$(wc -l <"$TMP/unreached") unreached, $(wc -l <"$TMP/allowed") allowed" >&2
if comm -23 "$TMP/unreached" "$TMP/allowed" | grep . >"$TMP/new"; then
  echo "Functions no shipped binary reaches (delete them, or allowlist them with a reason):"
  sed 's/^/  /' "$TMP/new"
  status=1
fi
if comm -13 "$TMP/unreached" "$TMP/allowed" | grep . >"$TMP/stale"; then
  echo "Allowlist entries that are not unreached library functions (remove them):"
  sed 's/^/  /' "$TMP/stale"
  status=1
fi
exit "$status"
