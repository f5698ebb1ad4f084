#!/usr/bin/env bash
# Build the odb binary and the benchmark from this source checkout,
# then run the benchmark.  Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload oltp --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
for f in lib bin perfbench/dune-project perfbench/src/dune; do
  if [ ! -e "$f" ]; then
    echo "perfbench: $root is not a source checkout of the project ($f missing)" >&2
    exit 2
  fi
done
if command -v dune >/dev/null 2>&1; then
  dune=(dune)
elif command -v opam >/dev/null 2>&1; then
  dune=(opam exec -- dune)
else
  echo "perfbench: dune not found" >&2
  exit 2
fi
# The benchmark is a dune project of its own.  Its tree holds copies
# of the checkout's lib/ and bin/, so the build never touches _build
# or the enclosing project.
tree=.bench_build/tree
mkdir -p "$tree"
rm -rf "$tree/lib" "$tree/bin" "$tree/perfbench"
cp -R lib bin "$tree/"
cp -R perfbench/src "$tree/perfbench"
cp perfbench/dune-project "$tree/dune-project"
"${dune[@]}" build --root "$tree" --profile release \
  ./bin/odb.exe ./perfbench/main.exe 1>&2
exec "$tree/_build/default/perfbench/main.exe" \
  --odb "$tree/_build/default/bin/odb.exe" "$@"
