#!/usr/bin/env bash
# Lists the library functions that no program calls.
#
#   tools/uncalled_functions.sh
#
# Builds the whole project into build-scan/ at -O0 with one section per
# function, links every executable with --gc-sections, and also links
# perfbench/sim_bench.cpp the same way. A strong text symbol ('T') defined
# in a liboo_*.a archive that no linked executable keeps has no caller in
# any example, bench, test or the perfbench binary. The script prints each
# such function and exits 1 if there is any, 0 if there is none.
#
# Tests count as callers. Functions defined inline in headers are emitted as
# weak symbols where they are used, so they are outside the scan; so are
# file-local functions, which the compiler already warns about when unused.
set -euo pipefail
export LC_ALL=C  # one collation for sort and comm

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD="$ROOT/build-scan"
JOBS="$(nproc 2>/dev/null || echo 2)"

cmake -S "$ROOT" -B "$BUILD" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS_DEBUG="-O0" \
  -DCMAKE_CXX_FLAGS="-ffunction-sections" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >/dev/null
cmake --build "$BUILD" -j "$JOBS" >/dev/null

mapfile -t archives < <(find "$BUILD/src" -name 'liboo_*.a' | sort)
if [ "${#archives[@]}" -eq 0 ]; then
  echo "uncalled_functions: no liboo_*.a archives under $BUILD/src" >&2
  exit 2
fi

# perfbench/ builds the libraries on its own; link its binary here against
# the scan's archives so it counts as a caller too.
CXX="$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "$BUILD/CMakeCache.txt")"
"$CXX" -std=c++20 -O0 -ffunction-sections -I"$ROOT/src" \
  -DOO_BUILD_TYPE='"scan"' -DOO_COMPILER='"scan"' \
  -c "$ROOT/perfbench/sim_bench.cpp" -o "$BUILD/sim_bench.o"
"$CXX" -Wl,--gc-sections "$BUILD/sim_bench.o" \
  -Wl,--start-group "${archives[@]}" -Wl,--end-group -pthread \
  -o "$BUILD/sim_bench_scan"

is_elf_executable() {
  [ -x "$1" ] && [ "$(head -c 4 "$1" | tr -d '\0')" = $'\x7fELF' ]
}

executables=()
while IFS= read -r f; do
  if is_elf_executable "$f"; then executables+=("$f"); fi
done < <(find "$BUILD" -path '*/CMakeFiles' -prune -o -type f -print | sort)

defined="$BUILD/library_text_symbols.txt"
kept="$BUILD/kept_text_symbols.txt"
for a in "${archives[@]}"; do
  nm --defined-only "$a" 2>/dev/null | awk '$2 == "T" { print $3 }'
done | sort -u >"$defined"
for e in "${executables[@]}"; do
  nm --defined-only "$e" | awk '$2 ~ /^[TtWw]$/ { print $3 }'
done | sort -u >"$kept"

uncalled="$(comm -23 "$defined" "$kept" | c++filt | sort)"
if [ -n "$uncalled" ]; then
  echo "Library functions no executable calls (${#executables[@]} linked):"
  printf '%s\n' "$uncalled"
  exit 1
fi
echo "No uncalled library functions (${#executables[@]} executables linked)."
