#!/usr/bin/env bash
# Linker listing of the library functions that no shipped binary links
# (ROADMAP item 13, "Delete the library surface that nothing ships").
#
# Method:
#   1. configure a Release tree with tests off, every function and datum
#      in its own section, and the linker dropping unreferenced sections:
#        -DIMPATIENCE_BUILD_TESTS=OFF
#        -DCMAKE_CXX_FLAGS='-ffunction-sections -fdata-sections'
#        -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
#   2. list the strong (`T`) symbols of the libraries, src/*.a;
#   3. subtract every symbol that a shipped binary still defines after
#      --gc-sections. The shipped binaries are the executables the build
#      puts in apps/, bench/ and examples/.
# It prints the count with every shipped binary, and again without
# micro_benchmarks, whose only reason to link a function is to time it.
#
# Some entries are false positives: private helpers that the compiler
# inlined into every caller in their own translation unit keep a `T`
# symbol in the archive but leave none in a binary.
#
# Not wired into ctest: it needs a full build (several minutes on 4
# cores).
#
# Usage:
#   scripts/unshipped_symbols.sh                  # build in build-symbols/
#   scripts/unshipped_symbols.sh --build-dir DIR  # build elsewhere
#   scripts/unshipped_symbols.sh --list           # also print the symbols
set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD="$ROOT/build-symbols"
LIST=0

while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) BUILD="$2"; shift ;;
    --list) LIST=1 ;;
    *) echo "unshipped_symbols.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
  shift
done

cmake -S "$ROOT" -B "$BUILD" -DCMAKE_BUILD_TYPE=Release \
      -DIMPATIENCE_BUILD_TESTS=OFF \
      -DCMAKE_CXX_FLAGS='-ffunction-sections -fdata-sections' \
      -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections >/dev/null
cmake --build "$BUILD" -j"$(nproc)" >/dev/null

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# Mangled names, so overloads count apart.
nm --defined-only "$BUILD"/src/*.a 2>/dev/null |
  awk '$2 == "T" { print $3 }' | sort -u >"$WORK/library"

BINARIES=()
for dir in apps bench examples; do
  while IFS= read -r bin; do
    BINARIES+=("$bin")
  done < <(find "$BUILD/$dir" -maxdepth 1 -type f -perm -u+x | sort)
done
if [[ ${#BINARIES[@]} -eq 0 ]]; then
  echo "unshipped_symbols.sh: no shipped binaries under $BUILD" >&2
  exit 1
fi

: >"$WORK/all"
: >"$WORK/no_micro"
for bin in "${BINARIES[@]}"; do
  nm --defined-only "$bin" | awk '{ print $3 }' >"$WORK/one"
  cat "$WORK/one" >>"$WORK/all"
  if [[ "$(basename "$bin")" != micro_benchmarks ]]; then
    cat "$WORK/one" >>"$WORK/no_micro"
  fi
done
sort -u -o "$WORK/all" "$WORK/all"
sort -u -o "$WORK/no_micro" "$WORK/no_micro"

comm -23 "$WORK/library" "$WORK/all" >"$WORK/unshipped"
comm -23 "$WORK/library" "$WORK/no_micro" >"$WORK/unshipped_no_micro"

total=$(wc -l <"$WORK/library")
echo "shipped binaries: ${#BINARIES[@]}"
echo "unshipped: $(wc -l <"$WORK/unshipped") of $total strong library functions"
echo "unshipped without micro_benchmarks:" \
     "$(wc -l <"$WORK/unshipped_no_micro") of $total"
if [[ "$LIST" == 1 ]]; then
  c++filt <"$WORK/unshipped"
fi
