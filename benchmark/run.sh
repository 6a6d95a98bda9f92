#!/usr/bin/env bash
# The benchmark's one entry point, run from the root of a checkout:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh --check        # BENCHMARK.json against what the runner prints
#   bash benchmark/run.sh --repeat <n>   # n sets of runs; do they agree within the bounds?
#
# Builds the package offline first (a no-op when it is up to date). The last
# line of standard output of a run is its JSON result; everything else goes to
# standard error.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)

# The driver names the target directory relative to the checkout; cargo would
# resolve it against benchmark/, where it has to run to find .cargo/config.toml.
target=${CARGO_TARGET_DIR:-$here/target}
case $target in /*) ;; *) target=$PWD/$target ;; esac
export CARGO_TARGET_DIR=$target
# Cargo's own lock and cache files stay inside the checkout too.
export CARGO_HOME=$target/cargo-home

(cd "$here" && cargo build --release --offline --quiet) >&2
bin=$target/release

case ${1:-} in
--check | --repeat)
    exec python3 "$here/ledger.py" "$@"
    ;;
esac

trace=0
args=()
while (($#)); do
    case $1 in
    --trace)
        trace=$2
        shift 2
        ;;
    *)
        args+=("$1")
        shift
        ;;
    esac
done

case $trace in
0) exec "$bin/bench" "${args[@]}" ;;
1) exec "$bin/bench-trace" "${args[@]}" --out "$here/out" ;;
*)
    echo "run.sh: --trace takes 0 or 1" >&2
    exit 2
    ;;
esac
