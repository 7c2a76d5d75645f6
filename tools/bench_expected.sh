#!/usr/bin/env bash
# Rewrites bench/expected/<name>.txt, the committed stdout of every paper
# bench, from the binaries of a build.
#
#   tools/bench_expected.sh [BUILD_DIR]     # default: build/
#
# The paper benches are the oo_add_paper_bench(<name>) lines of
# bench/CMakeLists.txt. Each ctest bench.<name> runs its bench once and
# fails when the bench exits non-zero (a failed claim) or when its stdout
# differs from bench/expected/<name>.txt by a single byte. A change that
# moves a row on purpose reruns this script and commits the diff with its
# reason. Exits 1 if a bench exits non-zero; its file is left unchanged.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD="${1:-$ROOT/build}"
mkdir -p "$ROOT/bench/expected"

mapfile -t names < <(sed -n 's/^oo_add_paper_bench(\([a-z0-9_]*\))$/\1/p' \
  "$ROOT/bench/CMakeLists.txt")
if [ "${#names[@]}" -eq 0 ]; then
  echo "bench_expected: no oo_add_paper_bench lines found" >&2
  exit 2
fi

status=0
for name in "${names[@]}"; do
  out="$(mktemp)"
  if "$BUILD/bench/$name" >"$out"; then
    mv "$out" "$ROOT/bench/expected/$name.txt"
    echo "bench/expected/$name.txt"
  else
    echo "bench_expected: $name exited non-zero" >&2
    rm -f "$out"
    status=1
  fi
done
exit "$status"
