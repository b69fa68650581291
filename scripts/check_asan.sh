#!/usr/bin/env bash
# Builds the library, the replicationd/replfeed binaries and every test
# under AddressSanitizer + UndefinedBehaviorSanitizer and runs the full
# ctest suite. UBSan findings are fatal twice over: the build passes
# -fno-sanitize-recover=undefined (CMakeLists.txt) and UBSAN_OPTIONS asks
# for halt_on_error, so any report fails the test that triggered it. The
# mmap PagedTraceReader decode, the LEB128 varints and the lenient line
# parsers are the code this sweep exists for.
#
# Equivalent presets flow (CMake >= 3.21):
#   cmake --preset asan-ubsan && cmake --build --preset asan-ubsan -j \
#     && ctest --preset asan-ubsan
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-asan
cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DIMPATIENCE_SANITIZE=address,undefined \
  -DIMPATIENCE_BUILD_BENCH=OFF \
  -DIMPATIENCE_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"
echo "full test suite clean under AddressSanitizer + UndefinedBehaviorSanitizer"
