#!/usr/bin/env bash
# Run clang-tidy (config: .clang-tidy at the repo root) over the first-party
# sources using the compile_commands.json of an existing build tree.
#
# Usage:
#   tools/run_clang_tidy.sh [build-dir] [clang-tidy-args...]
#
# The build dir defaults to ./build and must have been configured already
# (the root CMakeLists.txt always exports compile_commands.json).
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build}
shift || true

if ! command -v clang-tidy >/dev/null 2>&1; then
  echo "run_clang_tidy.sh: clang-tidy not found on PATH — install LLVM/clang tooling" >&2
  exit 127
fi

if [[ ! -f "$BUILD_DIR/compile_commands.json" ]]; then
  echo "run_clang_tidy.sh: $BUILD_DIR/compile_commands.json missing — configure first:" >&2
  echo "  cmake -B $BUILD_DIR -S ." >&2
  exit 1
fi

# First-party translation units only; the compile database also covers
# GTest/benchmark-internal TUs we do not want to lint.
mapfile -t SOURCES < <(find src tools tests bench -name '*.cpp' | sort)

if command -v run-clang-tidy >/dev/null 2>&1; then
  run-clang-tidy -p "$BUILD_DIR" -quiet "$@" "${SOURCES[@]}"
else
  for src in "${SOURCES[@]}"; do
    echo "== $src"
    clang-tidy -p "$BUILD_DIR" --quiet "$@" "$src"
  done
fi
