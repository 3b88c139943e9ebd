#!/usr/bin/env python3
"""Benchmark of the mockeis command line, end to end and layer by layer.

    python3 perfbench/run.py --workload family --seed 1 --seconds 40 --trace 0

``--trace 0`` times cold ``python -m mockeis`` processes with the
checkout's ``src`` on the path, one child at a time: that is what a user
pays for each CLI call.  It repeats passes over the workload's commands
for ``--seconds``.  The speed of a shared host drifts by a quarter and
more within minutes, so before each command the benchmark also times a
fixed computation of its own (``reference()``), and reports every time at
the host speed on which that computation takes REFERENCE_NOMINAL_S; the
raw times and the factor are printed as well.  It reports, with their
sample counts:

  wall_s       wall seconds of one pass over the workload's commands,
               each command at its mean over every run of it
  cpu_s        user+sys CPU seconds of a pass's children (``os.wait4``),
               summed the same way
  setup_s      median wall seconds of the trivial ``f --k 3 --j 2 --order 1``
               (interpreter start, imports, argparse)
  peak_rss_mb  the largest over the commands of each one's median child
               ``ru_maxrss``
  fail_ratio   failed commands over attempted ones (printed only: it is 0
               whenever the run is correct)

``--trace 1`` runs the same commands in this process through
``mockeis.cli.main``, alternating an untraced and a traced pass for
``--seconds``, and reports per layer the calls, self and total seconds of
its spans, the computed counts and the cache hit ratios (see layers.py).
``trace_overhead_s`` is traced minus untraced pass wall time and
``unattributed_s`` is traced wall time not covered by any span.

Every command's exit code and stdout are checked against digests captured
from the seed code (expected.json); ``verify`` must print ``N/N checks
passed``, and routes of ``f`` with the same arguments must print identical
bytes.  A failed check counts in ``failed`` and makes the exit code 1.

The seed sets the order of the commands in a pass and the k of each
``family`` command.  Workloads, and why each exists:

  family     f --j 12 at order 300 by recursionA and logRoute (same k), at
             order 100 by recursionB, and as a bfile: few large series
             products, where a faster series or jet backend must show.
  verify     verify --suite all at the acceptance sizes: many small
             products, small jets, enumeration with warm caches and the
             multisum oracle, so a change tuned for high order that slows
             small products or breaks cache reuse shows here.
  enumerate  table Nk at the enumeration ceiling for k=3 (csv) and k=5
             (json), and the combinatorial moment table: partition
             enumeration with no series product, where a partitions
             rewrite must show and a series change must not.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import statistics
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_COMMAND = ("f", "--k", "3", "--j", "2", "--order", "1")
SETUP_RUNS_FIRST = 10  # setup samples before the first pass; one more before each command

# The keys of mockeis.verify.SUITES, spelled out so that the metric names
# do not depend on the program under test.
SUITES = ("counts", "moments", "traces", "crank", "integrality", "pattern", "pde", "theta-ode")
SPANS = ("qseries.mul",) + tuple(name for name, _, _ in layers.HOOKS)
CACHE_SPANS = ("mock.mock_eisenstein_family", "partitions.partitions_of")

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_metrics():
    """(name, unit, better) of every metric ``--trace 1`` reports."""
    metrics = []
    for span in SPANS:
        metrics += [
            (f"{span}.calls", "count", "lower"),
            (f"{span}.self_s", "s", "lower"),
            (f"{span}.total_s", "s", "lower"),
        ]
    metrics += [(f"verify.{suite}.total_s", "s", "lower") for suite in SUITES]
    metrics += [
        ("qseries.mul.coeff_ops", "ops", "lower"),
        ("qseries.mul.max_order", "order", "lower"),
    ]
    for span in CACHE_SPANS:
        metrics += [
            (f"{span}.cache_hits", "count", "higher"),
            (f"{span}.cache_misses", "count", "lower"),
            (f"{span}.cache_hit_ratio", "ratio", "higher"),
        ]
    metrics += [
        ("partitions.enumerated", "partitions", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace_overhead_s", "s", "lower"),
        ("unattributed_s", "s", "lower"),
    ]
    return metrics


# -- workloads -------------------------------------------------------------


def family(rng):
    k_pair, k_slow, k_bfile = (str(k) for k in rng.sample((3, 4, 5), 3))
    return [
        ("f", "--k", k_pair, "--j", "12", "--order", "300", "--route", "recursionA"),
        ("f", "--k", k_pair, "--j", "12", "--order", "300", "--route", "logRoute"),
        ("f", "--k", k_slow, "--j", "12", "--order", "100", "--route", "recursionB"),
        ("f", "--k", k_bfile, "--j", "12", "--order", "300", "--format", "bfile"),
    ]


def verify(rng):
    return [("verify", "--suite", "all")]


def enumerate_(rng):
    return [
        ("table", "Nk", "--k", "3", "--maxm", "6", "--maxn", "40", "--format", "csv"),
        ("table", "Nk", "--k", "5", "--maxm", "6", "--maxn", "40", "--format", "json"),
        ("table", "moments", "--k", "3", "--j", "6", "--order", "40", "--method", "combinatorial"),
    ]


WORKLOADS = {"family": family, "verify": verify, "enumerate": enumerate_}


def workload_commands(name, seed):
    rng = random.Random(seed)
    commands = WORKLOADS[name](rng)
    rng.shuffle(commands)
    return commands


# -- correctness gate --------------------------------------------------------

VERIFY_TALLY = re.compile(rb"^(\d+)/(\d+) checks passed$")


def load_expected():
    with open(HERE / "expected.json", encoding="ascii") as handle:
        return json.load(handle)


def digest(stdout):
    return hashlib.sha256(stdout).hexdigest()


def check_pass(commands, results, expected):
    """Failure reasons, one per failing command, for (exit code, stdout) results."""
    failures = []
    by_arguments = {}
    for argv, (code, stdout) in zip(commands, results):
        key = " ".join(argv)
        if code != 0:
            failures.append(f"{key}: exit code {code}")
            continue
        if digest(stdout) != expected.get(key):
            failures.append(f"{key}: stdout digest differs from the seed's")
            continue
        if argv[0] == "verify":
            tally = VERIFY_TALLY.match(stdout.rstrip(b"\n").rsplit(b"\n", 1)[-1])
            if not tally or tally.group(1) != tally.group(2):
                failures.append(f"{key}: not every check passed")
                continue
        if argv[0] == "f" and "--route" in argv:
            at = argv.index("--route")
            same = by_arguments.setdefault(argv[:at] + argv[at + 2 :], stdout)
            if stdout != same:
                failures.append(f"{key}: differs from another route's output")
    return failures


# -- host speed ------------------------------------------------------------

# About what reference() takes in a quiet spell on the 2-vCPU Intel Xeon host
# the benchmark was written on.  Timings are reported at this host speed.
REFERENCE_NOMINAL_S = 0.90


def _series_product(a, b):
    out = []
    for k in range(len(a)):
        acc = Fraction(0)
        for i in range(k + 1):
            acc += a[i] * b[k - i]
        out.append(acc)
    return out


def _partitions(n, largest):
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def reference():
    """Wall and CPU seconds taken by a fixed computation of the kind the
    program spends its time on: schoolbook products of Fraction series, and
    generating partitions as tuples.  It does not use the program, so no
    change to the program moves it; only the speed of the host does."""
    start, start_cpu = perf_counter(), process_time()
    for _ in range(18):
        a = [Fraction(1, n + 1) for n in range(60)]
        b = _series_product(a, a)
        _series_product(_series_product(b, a), b)
    for _ in range(15):
        for _ in _partitions(32, 32):
            pass
    return perf_counter() - start, process_time() - start_cpu


# -- end-to-end timing of cold CLI processes -------------------------------


def run_child(argv, env):
    """Run ``python -m mockeis argv`` to completion; return its measurements."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "mockeis", *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    errors = []
    reader = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
    reader.start()
    stdout = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    if proc.returncode != 0 and errors[0]:
        sys.stderr.write(errors[0].decode(errors="replace"))
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
        "code": proc.returncode,
        "stdout": stdout,
    }


def out_of_time(start, began, seconds):
    """Whether a pass as long as the one begun at ``began`` would end too late."""
    now = perf_counter()
    return now + (now - began) - start > seconds


def measure(commands, seconds, expected):
    """Setup-run wall times and, per pass, the measurements of each command.

    Each command is preceded by a run of reference() and by a setup run,
    so that both sample the host all through the run.  Passes repeat until
    the next command would end after ``seconds``, so the last pass may stop
    part of the way through.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    setups = []
    passes = []
    failures = []
    attempted = 0

    def run_checked(argvs, children):
        nonlocal attempted
        attempted += len(children)
        failures.extend(check_pass(argvs, [(c["code"], c["stdout"]) for c in children], expected))
        return children

    def run_setups(count):
        argvs = [SETUP_COMMAND] * count
        setups.extend(c["wall"] for c in run_checked(argvs, [run_child(a, env) for a in argvs]))

    def run_pass(argvs):
        children = []
        for argv in argvs:
            host_wall, host_cpu = reference()
            run_setups(1)
            child = run_child(argv, env)
            children.append(child | {"reference": host_wall, "reference_cpu": host_cpu})
        return run_checked(argvs, children)

    start = perf_counter()
    run_setups(1)  # writes the bytecode caches; not a sample
    setups.clear()
    run_setups(SETUP_RUNS_FIRST)
    while True:
        fits = len(commands)
        if passes:
            # The previous pass is whole; its times predict this one's.
            ends = perf_counter() - start
            fits = 0
            for child in passes[-1]:
                ends += child["reference"] + setups[-1] + child["wall"]
                if ends > seconds:
                    break
                fits += 1
        if fits == 0:
            break
        passes.append(run_pass(commands[:fits]))
        if failures or fits < len(commands):
            break
    return setups, passes, attempted, failures


def end_to_end(setups, passes):
    """The end-to-end metrics of a run, and the raw times they come from.

    A pass's wall and CPU time are sums over its commands, each command at
    its mean over every run of it.  A shared host's speed drifts by a
    quarter and more over minutes, so wall times are scaled by
    REFERENCE_NOMINAL_S over the mean wall time of the reference computation
    run before each command, and CPU times likewise by its CPU time.  Means
    over the whole run, not medians of a few passes, follow that drift on
    both sides of the ratio.
    """

    def per_command(key):
        return [[p[i][key] for p in passes if i < len(p)] for i in range(len(passes[0]))]

    raw = {
        "wall_s": sum(statistics.fmean(runs) for runs in per_command("wall")),
        "cpu_s": sum(statistics.fmean(runs) for runs in per_command("cpu")),
        "setup_s": statistics.median(setups),
    }
    speed = {
        key: REFERENCE_NOMINAL_S / statistics.fmean(c[key] for p in passes for c in p)
        for key in ("reference", "reference_cpu")
    }
    values = {
        "wall_s": raw["wall_s"] * speed["reference"],
        "cpu_s": raw["cpu_s"] * speed["reference_cpu"],
        "setup_s": raw["setup_s"] * speed["reference"],
        "peak_rss_mb": max(statistics.median(runs) for runs in per_command("rss_mb")),
    }
    return values, raw, speed


# -- traced in-process run ---------------------------------------------------


def trace(commands, seconds, expected):
    sys.path.insert(0, str(SRC))
    passes = []
    untraced = []
    failures = []
    attempted = 0
    start = perf_counter()
    while True:
        began = perf_counter()
        # Alternate which of the pair runs first, so that neither always
        # pays for what the other leaves behind.
        for traced in (False, True) if len(passes) % 2 == 0 else (True, False):
            tracer = layers.Tracer() if traced else None
            wall, results = layers.run_pass(commands, tracer)
            attempted += len(commands)
            failures += check_pass(commands, results, expected)
            if traced:
                passes.append(layer_values(tracer, wall))
            else:
                untraced.append(wall)
        if passes[0]["counts"] != passes[-1]["counts"]:
            failures.append("traced counts differ between passes")
        if failures or out_of_time(start, began, seconds):
            break
    samples = {name: [p["times"][name] for p in passes] for name in passes[0]["times"]}
    samples["trace.untraced_wall_s"] = untraced
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["trace_overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    metrics.update(passes[0]["counts"])
    return metrics, len(passes), attempted, failures


def layer_values(tracer, wall):
    """Times and counts of one traced pass, keyed by per-layer metric name."""
    summary = tracer.summary()
    times = {"trace.wall_s": wall}
    counts = {}
    for span in SPANS:
        row = summary.get(span, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        counts[f"{span}.calls"] = row["calls"]
        times[f"{span}.self_s"] = row["self_s"]
        times[f"{span}.total_s"] = row["total_s"]
    for suite in SUITES:
        times[f"verify.{suite}.total_s"] = summary.get(f"verify.{suite}", {}).get("total_s", 0.0)
    times["unattributed_s"] = wall - sum(row["self_s"] for row in summary.values())
    counts["qseries.mul.coeff_ops"] = tracer.counts["qseries.mul.coeff_ops"]
    counts["qseries.mul.max_order"] = tracer.counts["qseries.mul.max_order"]
    counts["partitions.enumerated"] = tracer.counts["partitions.enumerated"]
    for span in CACHE_SPANS:
        cache = f"mockeis.{span}"
        hits = tracer.cache_stats[(cache, "hits")]
        misses = tracer.cache_stats[(cache, "misses")]
        counts[f"{span}.cache_hits"] = hits
        counts[f"{span}.cache_misses"] = misses
        counts[f"{span}.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return {"times": times, "counts": counts}


# -- command line ------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "mockeis" / "__main__.py").is_file():
        print(f"error: no mockeis sources under {SRC}", file=sys.stderr)
        return 2
    expected = load_expected()
    commands = workload_commands(args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s; a pass runs:")
    for index, argv in enumerate(commands, 1):
        print(f"  {index}. mockeis {' '.join(argv)}")

    if args.trace:
        values, passes, attempted, failures = trace(commands, args.seconds, expected)
        units = {name: unit for name, unit, _ in per_layer_metrics()}
        print(f"traced in process: median of {passes} traced and {passes} untraced passes")
        print("  (qseries.mul.coeff_ops and partitions.enumerated are computed counts)")
        metrics = {}
        for name, unit in units.items():
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"  {name:44s} {values[name]:>14.6g} {unit}")
    else:
        setups, passes, attempted, failures = measure(commands, args.seconds, expected)
        values, raw, speed = end_to_end(setups, passes)
        runs = f"{sum(map(len, passes))} command runs in {len(passes)} passes"
        samples = {
            "wall_s": f"sum of command means, {runs}",
            "cpu_s": f"sum of command means, {runs}",
            "setup_s": f"median of {len(setups)} setup runs",
            "peak_rss_mb": f"largest command median, {runs}",
        }
        print(
            f"  host speed {speed['reference']:.4f} (CPU {speed['reference_cpu']:.4f}):"
            " the times below are raw times x host speed"
        )
        metrics = {}
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
            measured = f"(raw {raw[name]:.6f})" if name in raw else ""
            print(f"  {name:12s} {values[name]:>12.6f} {unit:3s} {measured:19s} {samples[name]}")
        for index in range(len(commands)):
            walls = " ".join(f"{p[index]['wall']:.3f}" for p in passes if index < len(p))
            print(f"  command {index + 1} wall per pass: {walls}")
    failed = len(failures)
    print(f"  {'fail_ratio':12s} {failed / attempted:>12.6f}     {failed} of {attempted} commands")
    for reason in failures:
        print(f"FAIL {reason}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
