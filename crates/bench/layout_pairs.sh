#!/usr/bin/env bash
# Engine timing under sampled code layouts: two revisions of this repository,
# each linked under K section-shuffle seeds, run interleaved.
#
#   bash crates/bench/layout_pairs.sh [--k 8] [--rounds 3] [--iters 30] \
#       [--work DIR] <ref-rev> <head-rev>
#
# Where the linker puts `awsm::exec::run` decides whether the executor's
# dispatch block straddles a 64-byte line, and that alone moves every
# guest's run time by about 20 %. One build per side therefore compares two
# layouts as much as two revisions. This script builds both revisions from
# one absolute path (`DIR/src`, so paths baked into the binaries do not
# differ), relinks `table2_exec` K times per side with
# `--shuffle-sections=.text*=<seed>`, and runs the 2K binaries interleaved
# for R rounds (`table2_exec --iters N` each). Per app it prints each side's
# median and quartiles of the per-run `sledge avg`, per-layout medians,
# whether each layout's dispatch block crosses a 64-byte line (as the
# checkout's `dispatch_block` helper reads it), and how often
# the head beat the ref on the same seed and round (with a two-sided sign
# test's p).
#
# DIR (default: $TMPDIR/layout-pairs) must lie outside this checkout: cargo
# reads `.cargo/config.toml` from every parent directory, so a build under
# the checkout would take the checkout's rustflags whatever the revision.
# The relink passes its flags to rustc through `cargo rustc`, never through
# `RUSTFLAGS`, which would replace the revision's own rustflags.
set -euo pipefail

k=8 rounds=3 iters=30 work=${TMPDIR:-/tmp}/layout-pairs
while (($#)); do
    case $1 in
    --k) k=$2; shift 2 ;;
    --rounds) rounds=$2; shift 2 ;;
    --iters) iters=$2; shift 2 ;;
    --work) work=$2; shift 2 ;;
    -*) echo "layout_pairs.sh: unknown flag $1" >&2; exit 2 ;;
    *) break ;;
    esac
done
if (($# != 2)); then
    echo "usage: layout_pairs.sh [--k K] [--rounds R] [--iters N] [--work DIR] <ref-rev> <head-rev>" >&2
    exit 2
fi
repo=$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)
mkdir -p "$work"
work=$(cd "$work" && pwd)
case $work/ in "$repo"/*)
    echo "layout_pairs.sh: --work $work is inside $repo, whose .cargo/config.toml would apply to both sides" >&2
    exit 2
    ;;
esac
# The classifier the tier-1 guard uses, built from this checkout.
(cd "$repo" && CARGO_TARGET_DIR=$work/tool cargo build --offline --quiet -p sledge-bench --bin dispatch_block) >&2
classify=$work/tool/debug/dispatch_block
sysroot=$(rustc --print sysroot)
gcc_ld=$sysroot/lib/rustlib/x86_64-unknown-linux-gnu/bin/gcc-ld
export CARGO_TARGET_DIR=$work/target
mkdir -p "$work/bin"

declare -A rev=([ref]=$1 [head]=$2)
for side in ref head; do
    sha=$(git -C "$repo" rev-parse --short "${rev[$side]}")
    echo "# $side = ${rev[$side]} ($sha)" >&2
    rm -rf "$work/src"
    mkdir -p "$work/src"
    # `-m` stamps each file with the time it is extracted, not its commit's:
    # cargo judges freshness by modification time, so the second side's
    # sources, if committed before the first side was built, would
    # otherwise reuse the first side's artifacts.
    git -C "$repo" archive "${rev[$side]}" | tar -x -m -C "$work/src"
    for seed in $(seq 1 "$k"); do
        (cd "$work/src" && cargo rustc --release --offline --quiet -p sledge-bench --bin table2_exec -- \
            -C link-arg=-fuse-ld=lld -C link-arg=-B"$gcc_ld" \
            -C link-arg=-Wl,--shuffle-sections=.text*="$seed") >&2
        cp "$CARGO_TARGET_DIR/release/table2_exec" "$work/bin/$side-$seed"
    done
done

# One line per run: round seed side app ms
runs=$work/runs.tsv
: >"$runs"
for round in $(seq 1 "$rounds"); do
    for seed in $(seq 1 "$k"); do
        # Alternate which side runs first.
        order="ref head"
        (((round + seed) % 2)) && order="head ref"
        for side in $order; do
            "$work/bin/$side-$seed" --iters "$iters" |
                awk -v r="$round" -v s="$seed" -v side="$side" -F'|' '
                    NF == 4 && $1 !~ /^app/ {
                        split($3, t, " "); v = t[1]
                        ms = v ~ /ms$/ ? v + 0 : v ~ /µs$/ ? v / 1000 : v ~ /ns$/ ? v / 1e6 : v * 1000
                        gsub(/ /, "", $1); print r, s, side, $1, ms
                    }' >>"$runs"
        done
    done
    echo "# round $round/$rounds done" >&2
done

python3 - "$work" "$k" "$rounds" "$iters" "${rev[ref]}" "${rev[head]}" "$classify" <<'EOF'
import math, statistics, subprocess, sys
work, k, rounds, iters, ref_rev, head_rev, classify = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4]), sys.argv[5], sys.argv[6], sys.argv[7]

def block(path):
    """(start, end, crosses) of the dispatch loop's block, as `dispatch_block`
    prints it. A revision from before the one-executor change also holds the
    naive tier's `run`, which is no loop head: the classifier then still
    prints the loop's block but exits 1, which does not matter here."""
    out = subprocess.run([classify, path], capture_output=True, text=True).stdout.split()
    if len(out) != 4:
        raise SystemExit(f"{path}: no single dispatch loop head in {out}")
    _, start, end, fits = out
    return int(start, 16), int(end, 16), fits == "crosses"

runs = {}
for line in open(f"{work}/runs.tsv"):
    r, s, side, app, ms = line.split()
    runs.setdefault(app, {})[(side, int(s), int(r))] = float(ms)

def quart(v):
    q = statistics.quantiles(v, n=4)
    return f"{statistics.median(v):7.3f} [{q[0]:.3f}, {q[2]:.3f}]"

def sign_p(wins, n):
    lo = min(wins, n - wins)
    return min(1.0, 2 * sum(math.comb(n, i) for i in range(lo + 1)) / 2 ** n)

print(f"# Layout-sampled engine pairs: table2_exec `sledge avg` per run, ms")
print(f"# ref = {ref_rev}, head = {head_rev}; K = {k} link seeds "
      f"(--shuffle-sections=.text*=<seed>), R = {rounds} interleaved rounds, --iters {iters}")
print("# dispatch block of the dispatch loop in `awsm::exec::run` per layout (start..end, one line or crossing):")
crosses = {}
for side in ("ref", "head"):
    row = []
    for s in range(1, k + 1):
        b, e, crosses[(side, s)] = block(f"{work}/bin/{side}-{s}")
        row.append(f"{s}:{b:#x}+{e - b}{' CROSSES' if crosses[(side, s)] else ''}")
    print(f"#   {side:<4} " + "  ".join(row))
for app in runs:
    d = runs[app]
    print(f"\n{app}")
    for side in ("ref", "head"):
        v = [d[(side, s, r)] for s in range(1, k + 1) for r in range(1, rounds + 1)]
        per = [statistics.median(d[(side, s, r)] for r in range(1, rounds + 1)) for s in range(1, k + 1)]
        one = [m for s, m in zip(range(1, k + 1), per) if not crosses[(side, s)]]
        cross = [m for s, m in zip(range(1, k + 1), per) if crosses[(side, s)]]
        cls = (f"one line {statistics.median(one):.3f} ({len(one)})" if one else "one line - (0)") + ", " + \
              (f"crossing {statistics.median(cross):.3f} ({len(cross)})" if cross else "crossing - (0)")
        print(f"  {side:<4} median [q1, q3] {quart(v)}  | per layout " +
              " ".join(f"{m:.3f}{'x' if crosses[(side, s)] else ''}" for s, m in zip(range(1, k + 1), per)) +
              f"  | slowest/fastest layout {max(per) / min(per):.3f}  | median by class: {cls}")
    n = k * rounds
    wins = sum(d[("head", s, r)] < d[("ref", s, r)] for s in range(1, k + 1) for r in range(1, rounds + 1))
    print(f"  head faster in {wins}/{n} same-seed same-round pairs, sign test p = {sign_p(wins, n):.2g}")
print("\n# per layout: median over the rounds; 'x' marks a layout whose dispatch block crosses a 64-byte line")
EOF
