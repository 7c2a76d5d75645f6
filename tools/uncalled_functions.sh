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
# The executables are the EXECUTABLE targets CMake's file API lists for the
# current tree, so a binary an older build left in build-scan/ (a target
# since deleted) is not counted as a caller.
#
# Tests count as callers. Functions defined inline in headers are emitted as
# weak symbols where they are used, so they are outside the scan; so are
# file-local functions, which the compiler already warns about when unused.
set -euo pipefail
export LC_ALL=C  # one collation for sort and comm

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD="$ROOT/build-scan"
JOBS="$(nproc 2>/dev/null || echo 2)"

# Ask the file API for the code model before configuring.
mkdir -p "$BUILD/.cmake/api/v1/query"
touch "$BUILD/.cmake/api/v1/query/codemodel-v2"
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

# The artifact of every EXECUTABLE target in the code model, plus the
# perfbench binary linked above.
targets="$(python3 - "$BUILD" <<'PY'
import glob, json, os, sys
build = sys.argv[1]
reply = os.path.join(build, ".cmake", "api", "v1", "reply")
def load(name):
    with open(os.path.join(reply, name)) as f:
        return json.load(f)
index = load(os.path.basename(max(glob.glob(os.path.join(reply, "index-*.json")))))
model = load(index["reply"]["codemodel-v2"]["jsonFile"])
paths = []
for t in model["configurations"][0]["targets"]:
    target = load(t["jsonFile"])
    if target["type"] == "EXECUTABLE":
        paths += [os.path.join(build, a["path"]) for a in target["artifacts"]]
if not paths:
    sys.exit("uncalled_functions: the code model lists no executable")
print("\n".join(sorted(paths)))
PY
)"
mapfile -t executables <<<"$targets"
executables+=("$BUILD/sim_bench_scan")
for e in "${executables[@]}"; do
  if [ ! -x "$e" ]; then
    echo "uncalled_functions: $e was not built" >&2
    exit 2
  fi
done

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
