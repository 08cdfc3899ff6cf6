#!/bin/sh
# The output-identity gates, each listed once. Every gate runs a
# bin/figures.exe section twice and requires byte-identical stdout
# (and, for sections that export artefacts, byte-identical files):
#
#   twice    run-to-run determinism under fixed seeds;
#   sanitize LAUBERHORN_SANITIZE=1 arms the runtime protocol sanitizers
#            (pool discipline, event-loop monotonicity, coherence
#            generations, sched-mirror convergence) in fail-fast mode:
#            zero trips, and the checkers observe without perturbing;
#   shards   stepping through Shard_engine's conservative lookahead
#            windows (LAUBERHORN_SHARDS=4) must not move the output;
#   wheel    the timing-wheel scheduler must replay the heap's exact
#            event order.
#
# Then every shipped steering program must pass the static verifier,
# E16 (which asserts per-host identity across domain counts itself)
# must run clean, and every section with a test/baseline snapshot must
# reproduce it byte for byte.
#
# Usage, from the repository root (or from _build/default, as the
# @check alias does):
#   sh scripts/gates.sh _build/default/bin/figures.exe \
#     _build/default/bin/steer_verify.exe
set -eu
figures=$1
steer_verify=$2

a=$(mktemp) b=$(mktemp) da=$(mktemp -d) db=$(mktemp -d)
trap 'rm -rf "$a" "$b" "$da" "$db"' EXIT

# same SECTION ENV_A ENV_B [ARTEFACT_DIR_VAR]: run SECTION under each
# space-separated list of environment assignments and diff the outputs.
# With ARTEFACT_DIR_VAR, each run writes its artefacts to a fresh
# directory named by that variable, and the directories are diffed too.
same() {
  if [ $# -gt 3 ]; then
    rm -rf "$da"/* "$db"/*
    env $2 "$4=$da" "$figures" "$1" > "$a"
    env $3 "$4=$db" "$figures" "$1" > "$b"
    diff "$a" "$b"
    for f in "$da"/*; do diff "$f" "$db/$(basename "$f")"; done
  else
    env $2 "$figures" "$1" > "$a"
    env $3 "$figures" "$1" > "$b"
    diff "$a" "$b"
  fi
}

san=LAUBERHORN_SANITIZE=1
s1=LAUBERHORN_SHARDS=1
s4=LAUBERHORN_SHARDS=4
heap=LAUBERHORN_SCHED=heap
wheel=LAUBERHORN_SCHED=wheel

# gate      section    run A        run B        artefacts
# -- twice
same        losssweep  ""           ""
same        trace      ""           ""           E14_OUT_DIR
same        failover   ""           ""
same        rack       ""           ""
same        obstrace   ""           ""           E18_OUT_DIR
same        chaossoak  ""           ""
same        steering   ""           ""
# -- sanitize
same        fig2       ""           "$san"
same        losssweep  ""           "$san"
same        failover   ""           "$san"
# -- shards
same        fig2       "$s1"        "$s4 $san"
same        losssweep  "$s1"        "$s4 $san"
same        failover   "$s1"        "$s4 $san"
same        rack       "$s1 $san"   "$s4 $san"
same        obstrace   "$s1"        "$s4"        E18_OUT_DIR
same        chaossoak  "$s1 $san"   "$s4 $san"
same        steering   "$s1 $san"   "$s4 $san"
# -- wheel
same        fig2       "$heap"      "$wheel"
same        losssweep  "$heap"      "$wheel"
same        failover   "$heap"      "$wheel"

"$steer_verify"
"$figures" parallel > "$a"

for f in test/baseline/*.txt; do
  "$figures" "$(basename "$f" .txt)" > "$a" 2>/dev/null
  diff "$f" "$a"
done
