#!/bin/sh
# Build the collection server and the load generator from source, then
# run the generator with this script's arguments, from the repository
# root:
#
#   sh bench/load/run.sh --workload journey --seed 1 --seconds 15 --trace 0
#
# Build output goes to standard error, so the last line of standard output
# is the generator's JSON result.
set -e
dune build --root . bin/pet.exe bench/load/load.exe >&2
exec ./_build/default/bench/load/load.exe "$@"
