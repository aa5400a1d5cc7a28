#!/usr/bin/env python3
"""Build srm_perf and run the layered benchmark (see bench/perf/README.md).

One run of one workload (the interface BENCHMARK.json names):

    python3 bench/perf/run.py --workload cells --seed 7 --seconds 20 --trace 0

prints every metric by name and unit, then one JSON line with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics (and a span file under build-perf/) with
--trace 1.

Other modes, each building first:

    run.py [--seed N]           every workload in its own process, untraced
                                then traced; writes build-perf/perf-results.json
    run.py --smoke              every workload at toy sizes; records nothing
    run.py --check-counts       deterministic counts at the default seed
                                against bench/perf/baseline.json
    run.py --spread N [--sets K] [--workload W]
                                K sets of N seeds per workload; medians,
                                quartiles and spreads per metric ->
                                build-perf/perf-spread.json
    run.py --record FILE        the baseline file: the last --spread's sets,
                                one traced run per workload, the counts

Runs from any directory; builds into build-perf/ at the repository root.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build-perf"
BINARY = BUILD / "srm_perf"
WORKLOADS = ["cells", "paper_sweep", "triage", "dashboard"]
DEFAULT_SEED = 20240624
MAX_LAG_MS = 5.0
MAX_ATTEMPTS = 3  # runs of one seed before --spread gives up on it

# Names the benchmark must never use: it measures the default path users
# get, so a later change can delete the result-identity forks unchanged.
FORK_SYMBOLS = re.compile(
    r"\b(" + "|".join(["vectori" + "zed", "chain_" + "lanes", "LaneGibbs" + "Model",
                       "lane_" + "kernels", "detection_" + "simd",
                       "supports_" + r"\w+"]) + r")\b")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def check_api_surface():
    for path in sorted(HERE.iterdir()):
        if path.suffix not in (".cpp", ".hpp") and path.name != "CMakeLists.txt":
            continue
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if FORK_SYMBOLS.search(line):
                fail(f"{path.name}:{number} names a result-identity fork: {line.strip()}")


def build():
    check_api_surface()
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "srm_perf",
                  "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (see {log})")


def srm_perf(workload, seed, seconds, trace=None, smoke=False):
    """Runs srm_perf once and returns its parsed result object."""
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds),
               "--reference", str(HERE / "reference.json"),
               "--scratch", str((BUILD / "scratch").relative_to(ROOT))]
    if trace:
        command += ["--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        fail(f"srm_perf --workload {workload} exited with {done.returncode}")
    return json.loads(lines[-1])


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def check_layer_map(spec):
    """layer_map.json names, for every per-layer metric of BENCHMARK.json,
    the end-to-end metrics and workloads it should move."""
    moves = json.loads((HERE / "layer_map.json").read_text())["moves"]
    names = {m["name"] for m in spec["per_layer"]}
    if set(moves) != names:
        fail(f"layer_map.json and BENCHMARK.json per_layer differ: "
             f"{sorted(set(moves) ^ names)}")
    targets = {m["name"] for m in spec["end_to_end"]}
    for name, moved in moves.items():
        for target in moved:
            metric, _, workload = target.partition("@")
            if metric not in targets or workload not in WORKLOADS:
                fail(f"layer_map.json: {name} names an unknown target {target}")


def print_metrics(workload, metrics):
    for name, metric in sorted(metrics.items()):
        print(f"{workload:12s} {name:48s} {metric['value']:.6g} {metric['unit']}")


def lag_warning(result):
    lag = result["layers"].get("loadgen.max_lag_ms")
    if lag is not None and lag["value"] > MAX_LAG_MS:
        print(f"warning: load generator ran {lag['value']:.2f} ms late "
              f"(> {MAX_LAG_MS} ms): this dashboard run is invalid", file=sys.stderr)
        return True
    return False


def one_run(args):
    """The BENCHMARK.json interface: one workload, one result line."""
    spec = benchmark_spec()
    traced = args.trace == "1"
    trace_file = BUILD / f"trace-{args.workload}.jsonl" if traced else None
    result = srm_perf(args.workload, args.seed, args.seconds, trace_file)
    if args.workload == "dashboard" and not traced:
        lag_warning(result)
    names = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
    source = result["layers" if traced else "metrics"]
    if sorted(names) != sorted(source):
        fail(f"metric names differ from BENCHMARK.json: "
             f"missing {sorted(set(names) - set(source))}, "
             f"extra {sorted(set(source) - set(names))}")
    metrics = {name: source[name] for name in names}
    print_metrics(args.workload, metrics)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def plain_and_traced(workload, seed, seconds):
    """An untraced and a traced run at one seed, and the tracing overhead:
    traced / untraced wall_s (p50_ms for dashboard)."""
    plain = srm_perf(workload, seed, seconds)
    traced = srm_perf(workload, seed, seconds, BUILD / f"trace-{workload}.jsonl")
    key = "p50_ms" if workload == "dashboard" else "wall_s"
    overhead = {key: traced["metrics"][key]["value"] / plain["metrics"][key]["value"]}
    return plain, traced, overhead


def full_set(args):
    results = {}
    for workload in WORKLOADS:
        plain, traced, overhead = plain_and_traced(workload, args.seed, args.seconds)
        print_metrics(workload, plain["metrics"])
        print_metrics(workload, traced["layers"])
        for key, ratio in overhead.items():
            print(f"{workload:12s} {'tracing overhead (' + key + ')':48s} {ratio:.4f} ratio")
        results[workload] = {"correct": plain["correct"] and traced["correct"],
                             "metrics": plain["metrics"], "layers": traced["layers"],
                             "counts": plain["counts"], "trace": traced["trace"],
                             "trace_overhead": overhead,
                             "lag_invalid": lag_warning(plain)}
    out = BUILD / "perf-results.json"
    out.write_text(json.dumps({"seed": args.seed, "seconds": args.seconds,
                               "machine": machine(plain), "workloads": results},
                              indent=2) + "\n")
    print(f"wrote {out}")
    if not all(r["correct"] for r in results.values()):
        fail("a correctness check failed")


def smoke(args):
    for workload in WORKLOADS:
        result = srm_perf(workload, args.seed, args.seconds, smoke=True)
        print(f"{workload:12s} smoke correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        if not result["correct"] or result["failed"]:
            fail(f"smoke run of {workload} failed: {result['violations']}")


def check_counts(args):
    expected = json.loads((HERE / "baseline.json").read_text())["counts"]
    measured = srm_perf("counts", DEFAULT_SEED, args.seconds)
    mismatches = [f"{name}: expected {expected.get(name)!r}, measured {value!r}"
                  for name, value in sorted(measured["counts"].items())
                  if expected.get(name) != value]
    mismatches += [f"{name}: expected {value!r}, not measured"
                   for name, value in sorted(expected.items())
                   if name not in measured["counts"]]
    for line in mismatches:
        print(line)
    if mismatches or not measured["correct"]:
        fail("deterministic counts differ from baseline.json")
    print(f"{len(expected)} counts identical to baseline.json")


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def spread(args):
    """K sets of N seeds per workload, as BENCHMARK.json's acceptance runs."""
    spec = benchmark_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [args.workload] if args.workload else WORKLOADS
    sets = []
    for k in range(args.sets):
        values = {w: {} for w in workloads}
        lag_invalid = {w: 0 for w in workloads}
        for i in range(args.spread):
            seed = 1 + k * args.spread + i
            for workload in workloads:
                # A dashboard run whose generator fell behind is invalid: it
                # is rerun at the same seed and kept out of the quartiles.
                for _ in range(MAX_ATTEMPTS):
                    result = srm_perf(workload, seed, args.seconds)
                    if not result["correct"]:
                        fail(f"{workload} seed {seed}: {result['violations']}")
                    if not lag_warning(result):
                        break
                    lag_invalid[workload] += 1
                else:
                    fail(f"{workload} seed {seed}: {MAX_ATTEMPTS} invalid runs")
                for name, metric in result["metrics"].items():
                    values[workload].setdefault(name, []).append(metric["value"])
        summary = {w: {n: dict(quartiles(v), values=v) for n, v in m.items()}
                   for w, m in values.items()}
        sets.append({"seeds": [1 + k * args.spread + i for i in range(args.spread)],
                     "metrics": summary, "lag_invalid_runs": lag_invalid})
        for workload in workloads:
            for name, q in sorted(summary[workload].items()):
                bound = bounds[name]
                flag = "" if name == "setup_s" or q["spread"] <= bound / 3 else "  <-- spread"
                print(f"set {k + 1} {workload:12s} {name:14s} median {q['median']:.6g} "
                      f"spread {q['spread']:.4f} (bound {bound}){flag}")
    out = BUILD / "perf-spread.json"
    out.write_text(json.dumps(sets, indent=2) + "\n")
    print(f"wrote {out}")
    if len(sets) > 1:
        for workload in workloads:
            for name in sorted(sets[0]["metrics"][workload]):
                first = sets[0]["metrics"][workload][name]["median"]
                second = sets[1]["metrics"][workload][name]["median"]
                better = next(m["better"] for m in spec["end_to_end"] if m["name"] == name)
                worse = (second - first) / first * (1 if better == "lower" else -1)
                flag = "" if worse <= bounds[name] else "  <-- drift"
                print(f"sets 1->2 {workload:12s} {name:14s} worse by {worse:+.4f} "
                      f"(bound {bounds[name]}){flag}")


def record(args):
    """The baseline file: the last --spread's sets, one traced run per
    workload with its tracing overhead, the counts, and the machine."""
    sets = json.loads((BUILD / "perf-spread.json").read_text())
    traced = {}
    for workload in WORKLOADS:
        _, run, overhead = plain_and_traced(workload, DEFAULT_SEED, args.seconds)
        if not run["correct"]:
            fail(f"traced {workload} run failed: {run['violations']}")
        traced[workload] = {
            "layers": {n: m["value"] for n, m in run["layers"].items()},
            "self_s": run["trace"]["self_s"], "overhead": overhead}
    counts = srm_perf("counts", DEFAULT_SEED, args.seconds)
    if not counts["correct"]:
        fail(f"counts run failed: {counts['violations']}")
    baseline = {
        "commit": commit(),
        "run_seconds": args.seconds,
        "machine": machine(counts),
        "sets": [{"seeds": s["seeds"], "lag_invalid_runs": s["lag_invalid_runs"],
                  "metrics": {w: {n: {k: q[k] for k in ("median", "q1", "q3", "spread")}
                                  for n, q in m.items()}
                              for w, m in s["metrics"].items()}}
                 for s in sets],
        "traced": traced,
        "counts": counts["counts"],
    }
    Path(args.record).write_text(json.dumps(baseline, indent=2) + "\n")
    print(f"wrote {args.record}")


def commit():
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def machine(result):
    info = dict(result["machine"])
    info["nproc"] = os.cpu_count()
    try:
        cpus = Path("/proc/cpuinfo").read_text().splitlines()
        info["cpu"] = next(l.split(":", 1)[1].strip() for l in cpus if l.startswith("model name"))
    except (OSError, StopIteration):
        info["cpu"] = "unknown"
    return info


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--check-counts", action="store_true")
    parser.add_argument("--spread", type=int, default=0, metavar="N")
    parser.add_argument("--sets", type=int, default=1, metavar="K")
    parser.add_argument("--record", metavar="FILE")
    args = parser.parse_args()
    spec = benchmark_spec()
    check_layer_map(spec)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    build()
    if args.spread:
        spread(args)
    elif args.record:
        record(args)
    elif args.workload:
        one_run(args)
    elif args.smoke:
        smoke(args)
    elif args.check_counts:
        check_counts(args)
    else:
        full_set(args)


if __name__ == "__main__":
    main()
