#!/bin/sh
# Build incdbd and the benchmark program e2e.exe from source, then run it:
#
#   sh e2ebench/run.sh --workload kernels --seed 1 --seconds 36 --trace 0
#
# Run it from the repository root.  Everything a run writes stays in the
# checkout: build output in _build/, and results, Chrome traces, the
# server socket and the server's spill directories in .e2ebench/.
set -e
out=.e2ebench
mkdir -p "$out/tmp"
TMPDIR="$PWD/$out/tmp"
export TMPDIR
DUNE_CACHE=disabled
export DUNE_CACHE
dune build --root . --display quiet bin/incdbd.exe e2ebench/e2e.exe 1>&2
exec ./_build/default/e2ebench/e2e.exe run \
  --incdbd ./_build/default/bin/incdbd.exe --out "$out" "$@"
