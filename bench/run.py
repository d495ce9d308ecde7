"""Benchmark for banditrank: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload search --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --out results/a
    python3 bench/run.py --compare results/a results/b

Workloads (see ``workloads.py``): ``search`` (in-process lambda search),
``ingest`` (log I/O, aggregation, supervised TSV) and ``cli`` (the
simulate -> train-crm -> lambda-sweep -> evaluate subprocess chain). Load
comes from one client in a closed loop: one pass of the workload's job
after another, for ``--seconds`` of wall time, each pass followed by its
output checks outside the timed region.

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json;
``--trace 1`` installs the tracer (``tracer.py``), alternates untraced and
traced passes, and reports the per-layer metrics instead. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit, the environment and the check values. ``--out DIR``
also saves the full result there, one file per run, for ``--compare``.

BLAS is pinned to one thread here and in every child process, and the
run is pinned to one CPU. ``setup_s`` and ``wall_s`` are medians of times
scaled to a reference host speed, probed around every timed segment by
``calibrate.py``; the unscaled medians are printed beside them.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy  # noqa: E402

from calibrate import Clock, pin_to_one_cpu  # noqa: E402
from tracer import END, NAME, PARENT, START, Tracer, summarize  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# Set-up is repeated until both limits are reached (the time counts the
# host-speed probes around each set-up); setup_s is the median.
SETUP_REPS = 5
SETUP_MIN_S = 3.0
# A run must end within 180 s; no new pass starts once one more would
# likely end past this.
DEADLINE_S = 150.0


def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    if len(values) < 2:
        v = median(values)
        return v, v
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


# --- environment --------------------------------------------------------------


def blas_threads() -> str:
    """Thread count reported by numpy's bundled OpenBLAS, else the pinned value."""
    import ctypes

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return str(fn())
    return os.environ["OPENBLAS_NUM_THREADS"]


def environment(root: str, seed: int, nproc: int, cpu: int, clock: Clock) -> dict:
    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "banditrank", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "blas_threads": blas_threads(),
        "pinned_cpu": cpu,
        "probe_median_s": round(median(clock.probes), 6),
        "seed": seed,
    }


# --- per-layer metrics ----------------------------------------------------------


def library_seconds(spans, lo, hi) -> float:
    """Time covered by outermost library spans (under no span, or a CLI step)."""
    total = 0.0
    for i in range(lo, hi):
        span = spans[i]
        if span[NAME].startswith("cli."):
            continue
        p = span[PARENT]
        if p is None or not lo <= p < hi or spans[p][NAME].startswith("cli."):
            total += span[END] - span[START]
    return total


_RATE_COUNTS = {"records_per_s": "records", "rows_per_s": "rows", "events_per_s": "events"}


def layer_metrics(names, spans, setup_slice, pass_slices, extras) -> dict[str, float]:
    """Per-layer values for one set-up plus the median traced pass.

    Additive stats (calls, seconds, counts) are the set-up's share plus the
    median over traced passes; percentiles pool every call's duration.
    """
    setup = summarize(spans, *setup_slice)
    passes = [summarize(spans, lo, hi) for lo, hi in pass_slices]
    functions = set(setup).union(*passes)

    def total(fn, get):
        def one(summary):
            entry = summary.get(fn)
            return get(entry) if entry else 0

        return one(setup) + median([one(p) for p in passes])

    out = {}
    for name in names:
        if name in extras:
            out[name] = extras[name]
            continue
        fn, stat = name.rsplit(".", 1)
        if stat == "errors" and "." not in fn:
            out[name] = sum(total(f, lambda e: e["errors"])
                            for f in functions if f.startswith(fn + "."))
        elif stat in ("calls", "s", "self_s"):
            out[name] = total(fn, lambda e: e[stat])
        elif stat in ("p50_ms", "p90_ms"):
            durations = [d for s in (setup, *passes) if fn in s for d in s[fn]["durations"]]
            q = 50 if stat == "p50_ms" else 90
            out[name] = float(numpy.percentile(durations, q)) * 1e3 if durations else 0.0
        elif stat == "probes":
            # Each probe trains once; each distinct probed lambda then trains
            # once more in full, and the sweep has one entry per distinct one.
            out[name] = total(fn, lambda e: e["children"].get("training.train_crm", 0)
                              - e["counts"].get("sweep", 0))
        elif stat in _RATE_COUNTS:
            seconds = total(fn, lambda e: e["s"])
            count = total(fn, lambda e: e["counts"].get(_RATE_COUNTS[stat], 0))
            out[name] = count / seconds if seconds else 0.0
        else:
            out[name] = total(fn, lambda e: e["counts"].get(stat, 0))
    return out


# --- one run --------------------------------------------------------------------


def run_workload(name, seed, seconds, trace, spec, root) -> dict:
    from workloads import WORKLOADS, Op

    started = time.perf_counter()
    nproc = len(os.sched_getaffinity(0))
    cpu = pin_to_one_cpu()
    # The traced run probes only around segments: jobs run from the timer
    # inside library spans would count towards them.
    clock = Clock(sampling=not trace)
    work = os.path.join(root, ".bench_work", f"{name}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        workload = WORKLOADS[name](work, seed)
        tracer = Tracer() if trace else None
        paused = tracer.paused if tracer else contextlib.nullcontext
        if tracer:
            tracer.install()
        setup_lo = len(tracer.spans) if tracer else 0
        setups, inputs = [], None
        reps, min_s = (1, 0.0) if trace else (SETUP_REPS, SETUP_MIN_S)
        setup_start = time.perf_counter()
        while len(setups) < reps or time.perf_counter() - setup_start < min_s:
            inputs = None  # drop the previous inputs before building new ones
            gc.collect()  # free them now, so the peak RSS does not depend on gc timing
            with clock.segment(setups):
                inputs = workload.setup()
        setup_slice = (setup_lo, len(tracer.spans) if tracer else 0)
        with paused():
            workload.prepare(inputs)

        passes, traced, slices = [], [], []
        loop_start = time.perf_counter()
        while True:
            is_traced = bool(trace) and len(passes) % 2 == 1
            if tracer:
                tracer.active = is_traced
            lo = len(tracer.spans) if tracer else 0
            gc.collect()  # each pass starts without the last one's garbage
            pass_start = time.perf_counter()
            result = workload.run(inputs, tracer, paused, clock)
            if is_traced:
                slices.append((lo, len(tracer.spans)))
            passes.append(result)
            traced.append(is_traced)
            if len(passes) == 1:
                # Peak RSS of set-up plus one pass, what running the job once
                # needs. Later passes in the same process add only heap
                # fragmentation, which put a random 4 MB on ingest's peak.
                peak_rss_mb = result.peak_rss_mb
                if peak_rss_mb is None:
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if trace and len(passes) < 2:
                continue
            # Stop when the next pass would end nearer past --seconds than
            # this one ends before it.
            now = time.perf_counter()
            last = now - pass_start
            if now - loop_start + last / 2 >= seconds or now - started + 1.5 * last > DEADLINE_S:
                break
        if tracer:
            tracer.active = False

        ops = [op for p in passes for op in p.ops]
        qualities = [p.quality for p in passes if p.quality]
        if any(q != qualities[0] for q in qualities):
            ops.append(Op("determinism", False, "passes on the same inputs gave different results"))
        quality = qualities[0] if qualities else {}
        attempted, failed = len(ops), sum(not op.ok for op in ops)
        untraced = [p for p, t in zip(passes, traced) if not t]
        untraced_scaled = [p.scaled for p in untraced]

        if not trace:
            values = {
                "setup_s": median([s for _, s in setups]),
                "wall_s": median(untraced_scaled),
                "peak_rss_mb": peak_rss_mb,
                "test_map": quality.get("test_map", 0.0),
                "true_risk": quality.get("true_risk", 0.0),
            }
            names = [m["name"] for m in spec["end_to_end"]]
        else:
            traced_scaled = [p.scaled for p, t in zip(passes, traced) if t]
            extras = workload.extras(inputs, paused)
            extras["aggregation.build_supervised.queries_without_negatives"] = median(
                [p.counts.get("queries_without_negatives", 0) for p, t in zip(passes, traced) if t]
            )
            extras["trace.overhead"] = median(traced_scaled) / median(untraced_scaled) - 1.0
            extras["trace.unattributed_share"] = median([
                max(0.0, p.wall - library_seconds(tracer.spans, lo, hi)) / p.wall
                for p, (lo, hi) in zip([p for p, t in zip(passes, traced) if t], slices)
            ])
            names = [m["name"] for m in spec["per_layer"]]
            values = layer_metrics(names, tracer.spans, setup_slice, slices, extras)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        metrics = {n: {"value": values.get(n, 0.0), "unit": units[n]} for n in names}
        return {
            "workload": name,
            "seed": seed,
            "trace": trace,
            "seconds": seconds,
            "env": environment(root, seed, nproc, cpu, clock),
            "samples": {"setup_s": [s for _, s in setups], "wall_s": untraced_scaled,
                        "setup_raw_s": [w for w, _ in setups],
                        "wall_raw_s": [p.wall for p in untraced], "probe_s": clock.probes,
                        "in_segment_probe_s": clock.samples},
            "checks": quality,
            "counts": passes[-1].counts,
            "failures": [f"{op.name}: {op.detail}" for op in ops if not op.ok],
            "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": metrics},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(os.path.dirname(work))


def report(res) -> None:
    env = res["env"]
    print(f"# workload={res['workload']} seed={res['seed']} trace={res['trace']} "
          f"seconds={res['seconds']}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    samples = res["samples"]
    notes = {
        name: f"median of {len(samples[name])} {what}, scaled to the reference host speed; "
              f"unscaled median {median(samples[name.replace('_s', '_raw_s')])!r} s"
        for name, what in (("setup_s", "set-ups"), ("wall_s", "passes"))
    }
    for name, m in res["result"]["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} {m['value']!r} {m['unit']}{note}")
    r = res["result"]
    print(f"metric error_rate {r['failed'] / r['attempted']!r} ratio  "
          f"({r['failed']} of {r['attempted']} operations failed)")
    for key, value in {**res["checks"], **res["counts"]}.items():
        print(f"check {key} {value!r}")
    for failure in res["failures"]:
        print(f"FAILED {failure}")


# --- comparison -----------------------------------------------------------------


def load_results(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, "r", encoding="utf-8") as fh:
            runs.append(json.load(fh))
    if not runs:
        raise SystemExit(f"no result files in {directory}")
    return runs


def verdict(a, b, better, bound):
    """Compare two samples of one metric against the benchmark's bound."""
    med_a, med_b = median(a), median(b)
    if bound is None:
        return "no bound"
    spread = max((q3 - q1) / abs(m) if m else 0.0
                 for (q1, q3), m in ((quartiles(a), med_a), (quartiles(b), med_b)))
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if spread > bound:
        all_better = all(sign * (y - x) < 0 for x in a for y in b)
        return "better" if all_better else "unresolved"
    if worse > bound:
        return "worse"
    if worse < -bound:
        return "better"
    return "within bound"


def compare(base_dir, head_dir, spec) -> int:
    info = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sides = []
    for directory in (base_dir, head_dir):
        values: dict[tuple[str, str], list[float]] = {}
        for run in load_results(directory):
            for metric, m in run["result"]["metrics"].items():
                values.setdefault((run["workload"], metric), []).append(m["value"])
        sides.append(values)
    header = (f"{'workload':<8} {'metric':<52} {'unit':<6} {'n':>5} "
              f"{'base median [q1, q3]':>34} {'head median [q1, q3]':>34} {'change':>8}  verdict")
    print(header)
    worse = 0
    for key in sorted(set(sides[0]) & set(sides[1])):
        workload, metric = key
        a, b = sides[0][key], sides[1][key]
        m = info.get(metric, {"unit": "?", "better": "lower"})
        v = verdict(a, b, m.get("better", "lower"), m.get("bound"))
        worse += v == "worse"

        def cell(x):
            q1, q3 = quartiles(x)
            return f"{median(x):.6g} [{q1:.6g}, {q3:.6g}]"

        change = (median(b) - median(a)) / abs(median(a)) if median(a) else 0.0
        print(f"{workload:<8} {metric:<52} {m['unit']:<6} {len(a):>2}/{len(b):<2} "
              f"{cell(a):>34} {cell(b):>34} {change:>+8.2%}  {v}")
    return 1 if worse else 0


# --- entry point ----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=["search", "ingest", "cli", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--out", help="directory to save each run's full result in")
    parser.add_argument("--compare", nargs=2, metavar=("BASE_DIR", "HEAD_DIR"),
                        help="compare two directories of saved results")
    args = parser.parse_args(argv)

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        print("error: run from the repository root (BENCHMARK.json not found)", file=sys.stderr)
        return 2
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.compare:
        return compare(*args.compare, spec)
    if not os.path.isdir(os.path.join(root, "src", "banditrank")):
        print("error: src/banditrank not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        return run_all(args)

    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "tests")]
    res = run_workload(args.workload, args.seed, args.seconds, args.trace, spec, root)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(res, fh, indent=1)
    report(res)
    print(json.dumps(res["result"]))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("search", "ingest", "cli"):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--out", args.out] if args.out else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, m in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
