#!/bin/sh
# The output-identity gates, each listed once. Every gate runs a
# bin/figures.exe section twice and requires byte-identical stdout
# (and, for sections that export artefacts, byte-identical files):
#
#   twice    run-to-run determinism under fixed seeds;
#   sanitize LAUBERHORN_SANITIZE=1 arms the runtime protocol sanitizers
#            (pool discipline, event-loop monotonicity, coherence
#            generations, sched-mirror convergence) in fail-fast mode:
#            zero trips, and the checkers observe without perturbing.
#
# Two more gates each run two sections in one process, the later one in
# Sections.all order first, and require their two snapshots: no run
# leaves state behind that changes the next one.
#
# Then every shipped steering program must pass the static verifier,
# and every section with a test/baseline snapshot must reproduce it
# byte for byte.
#
# Every run also checks its sections' paper claims: bin/figures.exe
# exits non-zero when one does not hold and names it on stderr, which
# stays in the gate log, and set -e makes that exit a gate failure.
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
    diff -r "$da" "$db"
  else
    env $2 "$figures" "$1" > "$a"
    env $3 "$figures" "$1" > "$b"
    diff "$a" "$b"
  fi
}

san=LAUBERHORN_SANITIZE=1

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
same        loadsweep  ""           "$san"
same        losssweep  ""           "$san"
same        trace      ""           "$san"       E14_OUT_DIR
same        failover   ""           "$san"
same        rack       ""           "$san"
same        obstrace   ""           "$san"       E18_OUT_DIR
same        chaossoak  ""           "$san"
same        steering   ""           "$san"
# -- one process: both draw Zipf ranks and build stacks
"$figures" steering dynamic > "$a"
cat test/baseline/steering.txt test/baseline/dynamic.txt | diff - "$a"
# -- one process: both build their chaos runs through Common.lossy_run
"$figures" failover losssweep > "$a"
cat test/baseline/failover.txt test/baseline/losssweep.txt | diff - "$a"

"$steer_verify"

for f in test/baseline/*.txt; do
  "$figures" "$(basename "$f" .txt)" > "$a"
  diff "$f" "$a"
done
