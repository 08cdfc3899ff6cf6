#!/bin/sh
# One-command gate: `dune build @check` (build, simlint, the full test
# suite, and every output-identity gate in scripts/gates.sh), then the
# machine-readable lint surface — `simlint --json` must emit a
# well-formed, here empty, findings array — and the benchmark harness,
# which rewrites BENCH_1.json from the micro rows.
set -eu
cd "$(dirname "$0")/.."
dune build @check
test "$(dune exec bin/simlint_cli.exe -- --json lib 2>/dev/null)" = "[]"
dune exec bench/main.exe
