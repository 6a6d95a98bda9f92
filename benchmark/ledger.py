#!/usr/bin/env python3
"""Self-checks of the benchmark, run through `run.sh` from the checkout root.

  run.sh --check        BENCHMARK.json is well-formed and declares exactly the
                        metrics the runner prints, with the same units; the
                        ladder is monotone.
  run.sh --repeat N     N sets of runs (per workload 3 untraced runs on seeds 1-3
                        and a traced one); prints per workload x end-to-end
                        metric the relative gap between the sets' medians
                        beside its bound and fails if a gap exceeds it, if a
                        fuel count differs between sets, or if the ladder of
                        the sets' medians is not monotone. A run during which
                        the host stole over 1 % of the CPU is run again.
"""

import json
import pathlib
import re
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
MANIFEST = HERE.parent / "BENCHMARK.json"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = ["ping", "cifar10", "echo64k", "ping_routed"]
KEYS = ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
# Each rung adds a layer to the one before, so it cannot be faster. The socket
# rungs are 50 to 250 us apart. The cifar10 rungs are 18 ms of the same
# interpreter plus 0.1 to 0.3 ms of a layer, measured seconds apart, and two
# runs of one rung differ by more than that: there only a clear inversion counts.
SOCKET_LADDER = ["env.loopback_rtt_us", "core.healthz_p50_us", "ping.sparse_p50_us", "ping_routed.sparse_p50_us"]
CIFAR10_LADDER = ["awsm.exec_us.cifar10", "core.invoke_p50_us.cifar10"]
CIFAR10_SLACK = 1.1
# Untraced runs per workload in one set of `--repeat`.
SET_RUNS = 3
# `--repeat` runs a run again, at most STEAL_RETRIES times, while the host took
# more than this share of the machine's CPU time during it (0.05 is usual here).
STEAL_LIMIT_PCT = 1.0
STEAL_RETRIES = 2


def steal_jiffies():
    """(stolen, total) jiffies of the whole machine since boot."""
    fields = [int(f) for f in open("/proc/stat").readline().split()[1:9]]
    return fields[7], sum(fields)


def run(workload, seed, seconds, trace):
    """One run; returns the parsed result line, plus the share of CPU time the
    host stole while it ran (the harness keeps the cores busy, so what the host
    takes shows up as steal)."""
    cmd = ["bash", str(HERE / "run.sh"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    stolen, total = steal_jiffies()
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True).stdout
    stolen, total = [after - before for after, before in zip(steal_jiffies(), (stolen, total))]
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload}: {result['failed']} of {result['attempted']} operations failed")
    result["steal_pct"] = 100 * stolen / max(total, 1)
    return result


def undisturbed_run(workload, seed, seconds, trace):
    """`run`, again while the host stole more than STEAL_LIMIT_PCT of the CPU
    during it: such a run measured the neighbours, not the program."""
    for attempt in range(STEAL_RETRIES + 1):
        result = run(workload, seed, seconds, trace)
        if result["steal_pct"] <= STEAL_LIMIT_PCT:
            break
        print(f"{workload} seed {seed} trace {trace}: host stole {result['steal_pct']:.1f}% of the CPU"
              + (", running it again" if attempt < STEAL_RETRIES else ", keeping it"), file=sys.stderr)
    return result["metrics"]


def load_manifest():
    manifest = json.loads(MANIFEST.read_text())
    errors = []
    if list(manifest) != KEYS:
        errors.append(f"keys are {list(manifest)}, want exactly {KEYS}")
    if manifest.get("paths") != ["benchmark"]:
        errors.append(f"paths is {manifest.get('paths')}, want ['benchmark']")
    if not (isinstance(manifest.get("run_seconds"), int) and 1 <= manifest["run_seconds"] <= 60):
        errors.append("run_seconds is not a whole number from 1 to 60")
    if [w.get("name") for w in manifest.get("workloads", [])] != WORKLOADS:
        errors.append(f"workloads are not {WORKLOADS}")
    for w in manifest.get("workloads", []):
        if sorted(w) != ["name", "why"] or "\n" in w["why"] or len(w["why"]) > 200:
            errors.append(f"workload {w.get('name')}: wants exactly name and a one-line why")
    names = [w.get("name") for w in manifest.get("workloads", [])]
    for section, limit, keys in [("end_to_end", 16, ["better", "bound", "name", "unit"]),
                                 ("per_layer", 128, ["better", "name", "unit"])]:
        metrics = manifest.get(section, [])
        if not 1 <= len(metrics) <= limit:
            errors.append(f"{section} has {len(metrics)} metrics, limit {limit}")
        for m in metrics:
            if sorted(m) != keys:
                errors.append(f"{section} {m.get('name')}: keys {sorted(m)}, want {keys}")
                continue
            names.append(m["name"])
            if not UNIT.match(m["unit"]):
                errors.append(f"{m['name']}: unit {m['unit']!r}")
            if m["better"] not in ("lower", "higher"):
                errors.append(f"{m['name']}: better is {m['better']!r}")
            if "bound" in m and not 0 < m["bound"] <= 0.25:
                errors.append(f"{m['name']}: bound {m['bound']} is not in (0, 0.25]")
    for n in names:
        if not isinstance(n, str) or not NAME.match(n):
            errors.append(f"name {n!r} is outside [A-Za-z0-9_.-]{{1,64}}")
    if len(set(names)) != len(names):
        errors.append("a name is used twice")
    setup = [m for m in manifest.get("end_to_end", []) if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        errors.append("end_to_end lacks setup_s in s, lower is better")
    if MANIFEST.stat().st_size > 64 << 10:
        errors.append("BENCHMARK.json is over 64 KiB")
    if errors:
        sys.exit("BENCHMARK.json: " + "; ".join(errors))
    return manifest


def compare(section, declared, printed):
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in printed.items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        sys.exit(f"{section}: declared but not printed {missing}; printed but not declared {extra}; "
                 f"unit differs {units}")


def ladder_errors(metrics, workload):
    # The top rung of the cifar10 ladder is the traced run's own sparse phase.
    cifar10 = CIFAR10_LADDER + (["client.sparse_p50_us"] if workload == "cifar10" else [])
    errors = []
    for ladder, slack in [(SOCKET_LADDER, 1.0), (cifar10, CIFAR10_SLACK)]:
        values = [metrics[name]["value"] for name in ladder]
        if any(a >= slack * b for a, b in zip(values, values[1:])):
            errors.append("not monotone: " + " < ".join(f"{n}={v:.1f}" for n, v in zip(ladder, values)))
    return errors


def check():
    manifest = load_manifest()
    seconds = manifest["run_seconds"]
    compare("end_to_end", manifest["end_to_end"], run("ping", 1, seconds, 0)["metrics"])
    traced = run("ping", 1, seconds, 1)["metrics"]
    compare("per_layer", manifest["per_layer"], traced)
    errors = ladder_errors(traced, "ping")
    if errors:
        sys.exit("; ".join(errors))
    if not (HERE / "out" / "trace-ping.json").is_file():
        sys.exit("the traced run left no span file")
    print(f"BENCHMARK.json: {len(manifest['workloads'])} workloads, {len(manifest['end_to_end'])} end-to-end "
          f"and {len(manifest['per_layer'])} per-layer metrics, all printed with the declared units; "
          "ladder monotone")


def repeat(sets):
    manifest = load_manifest()
    seconds = manifest["run_seconds"]
    # A set is what the bounds are about in small: per workload the median of
    # SET_RUNS untraced runs on different seeds, and one traced run.
    results = [{w: ([undisturbed_run(w, seed, seconds, 0) for seed in range(1, SET_RUNS + 1)],
                    undisturbed_run(w, 1, seconds, 1)) for w in WORKLOADS}
               for _ in range(sets)]
    failures = []
    print(f"median of {SET_RUNS} runs per set")
    print(f"{'workload':<12} {'metric':<16} " + " ".join(f"{'set ' + str(i + 1):>12}" for i in range(sets))
          + f" {'gap':>7} {'bound':>6}")
    for w in WORKLOADS:
        for m in manifest["end_to_end"]:
            values = [statistics.median(u[m["name"]]["value"] for u in r[w][0]) for r in results]
            gap = (max(values) - min(values)) / min(values)
            flag = "" if gap <= m["bound"] else "  <-- over"
            print(f"{w:<12} {m['name']:<16} " + " ".join(f"{v:12.4f}" for v in values)
                  + f" {gap:7.3f} {m['bound']:6.2f}{flag}")
            if flag:
                failures.append(f"{w} {m['name']}")
        traced = [r[w][1] for r in results]
        fuel = [n for n in traced[0] if n.startswith("awsm.fuel_per_req.")]
        varying = [n for n in fuel if len({t[n]["value"] for t in traced}) != 1]
        failures += [f"{w} {n} does not repeat" for n in varying]
        # The ladder of the sets' medians: one disturbed rung in one run is not
        # a layer that got faster than the one under it.
        medians = {n: {"value": statistics.median(t[n]["value"] for t in traced)} for n in traced[0]}
        failures += [f"{w}: {e}" for e in ladder_errors(medians, w)]
        steal = ", ".join(f"{t['env.steal_pct']['value']:.2f}" for t in traced)
        overhead = ", ".join(f"{t['trace.overhead_pct']['value']:.1f}" for t in traced)
        print(f"{w:<12} traced: env.steal_pct {steal}; trace.overhead_pct {overhead}; "
              f"{len(fuel) - len(varying)} of {len(fuel)} fuel counts repeat exactly")
    if failures:
        sys.exit("disagree beyond the bound: " + "; ".join(failures))


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        check()
    elif len(sys.argv) == 3 and sys.argv[1] == "--repeat" and sys.argv[2].isdigit() and int(sys.argv[2]) >= 2:
        repeat(int(sys.argv[2]))
    else:
        sys.exit(__doc__)
