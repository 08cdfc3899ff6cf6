#!/bin/sh
# One-command gate: `dune build @check` (build, simlint, the full test
# suite, and every output-identity gate in scripts/gates.sh — which
# already runs and diffs every experiment section), then the
# machine-readable lint surface — `simlint --json` must emit a
# well-formed, here empty, findings array.
set -eu
cd "$(dirname "$0")/.."
dune build @check
test "$(dune exec bin/simlint_cli.exe -- --json lib 2>/dev/null)" = "[]"
