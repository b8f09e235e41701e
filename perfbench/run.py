#!/usr/bin/env python3
"""Closed-loop benchmark of zpfspin CLI verification runs.

One client runs the seeded case mix of a workload in passes, in-process
through `zpfspin.cli.main(argv)` (the entry point's code path without
interpreter start), until the time is up, and checks every report against
the independent oracle. Run it from the root of a checkout:

    python3 perfbench/run.py --workload spectral-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

With --trace 0 the last stdout line is a JSON object holding the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run.
`all` runs every workload, each in a fresh process. Full results, with
versions and per-case timings, and the trace spans go to perfbench/out/.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import mmap
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracle
import spans
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 7  # fewest cold imports timed per run
MIN_SAMPLES = 100  # fewest timed runs: p90 then has at least 10 samples beyond it
# The timed metrics are scaled to a machine on which speed_probe() takes this long.
PROBE_REFERENCE_S = 0.015


class BenchError(Exception):
    pass


def load_cli():
    """Import zpfspin.cli from this checkout's src/, never from elsewhere."""
    package = SRC / "zpfspin"
    if not (package / "cli.py").is_file():
        raise BenchError(f"{package / 'cli.py'} not found; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    from zpfspin import cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported {cli.__file__}, not the checkout's package")
    return cli


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def speed_probe() -> float:
    """Wall time of fixed interpreter and numpy work that does not touch zpfspin.

    On a shared host the speed of a core drifts, by up to 1.8x within two
    minutes here, as other tenants load the machine. Timing this probe next
    to the measured work tracks that drift, so the run times can be scaled
    to a fixed machine speed. It does exact-fraction and dict work like the
    exact layers, small-array work like the numeric layers, and page faults
    like the large temporaries of the spectral and quadrature code.
    """
    start = time.perf_counter()
    acc, seen = Fraction(0), {}
    for i in range(1, 1500):
        acc += Fraction(1, i % 7 + 1)
        seen[(i, str(i))] = acc
    # 96 kB arrays stay below malloc's mmap threshold, so the probe leaves
    # the allocator state the measured runs see as it was
    values = np.arange(12_000, dtype=float)
    for _ in range(20):
        float((np.sin(values) * values).sum())
    with mmap.mmap(-1, 4 << 20) as region:  # fresh pages, outside malloc
        for offset in range(0, len(region), mmap.PAGESIZE):
            region[offset] = 1
    return time.perf_counter() - start


def cold_import_seconds() -> float:
    """Wall time of a fresh interpreter that imports zpfspin.cli.

    Not scaled by the speed probe: interpreter start and import are file
    and process work that the probe does not track.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import zpfspin.cli"], env=env, cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def provenance() -> dict:
    import zpfspin

    digest = hashlib.sha256()
    for path in sorted((SRC / "zpfspin").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        sha = done.stdout.strip() if done.returncode == 0 else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "zpfspin": getattr(zpfspin, "__version__", None),
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


class Client:
    """The closed-loop client: runs cases one after another and records them."""

    def __init__(self, main):
        self.main = main
        self.attempted = 0
        self.failed = 0  # wrong exit code or rejected by the oracle
        self.problems: list = []  # oracle rejections, with the run that caused them

    def run(self, case):
        """One verification run: main(argv), then the oracle. Returns (seconds, verdict, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.main(list(case.argv))
        text = out.getvalue()
        verdict = oracle.judge(case, code, text)
        seconds = time.perf_counter() - start
        self.attempted += 1
        self.failed += verdict.failed
        self.problems.extend(f"{case.label}: {p}" for p in verdict.problems)
        return seconds, verdict, text

    def run_pass(self, cases):
        for case in cases:
            self.run(case)


def percentile_cases(samples: list, q: float) -> list:
    """Labels of the cases whose samples the inclusive q-quantile interpolates between."""
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q
    lo, hi = int(position), min(int(position) + 1, len(ordered) - 1)
    return sorted({ordered[lo][1], ordered[hi][1]})


def warm_up(client, mix):
    """One untimed pass: caches and lazy imports settle. Its runs are judged but not counted."""
    client.run_pass(mix)
    client.attempted = client.failed = 0


def pass_orders(mix, seed: int):
    """A fresh seeded order of the mix for every pass, so that effects of
    one case on the next (allocator and cache state) average out in a run."""
    rng = random.Random(f"order:{seed}")
    while True:
        yield rng.sample(mix, len(mix))


def timed_metrics(times: list) -> dict:
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    return {"run_s.p50": deciles[4], "run_s.p90": deciles[8], "runs_per_s": len(times) / sum(times)}


def measure(client, mix, seconds: float, orders) -> dict:
    """Timed passes; each run's time is scaled by the median probe of its pass.

    Passes go on past `seconds` until MIN_SAMPLES runs are timed.

    One cold import is timed after each pass, so that the set-up samples
    spread over the run as the run times do.
    """
    cold_import_seconds()  # writes the bytecode cache on a fresh checkout; untimed
    warm_up(client, mix)
    samples, raw, scales, setup = [], [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(samples) < MIN_SAMPLES:
        probes, passed = [], []
        for case in next(orders):
            probes.append(speed_probe())
            passed.append((case.label, client.run(case)[0]))
        scales.append(PROBE_REFERENCE_S / statistics.median(probes))
        samples.extend((took * scales[-1], label) for label, took in passed)
        raw.extend(took for _, took in passed)
        setup.append(cold_import_seconds())
    elapsed = time.perf_counter() - start
    while len(setup) < SETUP_REPEATS:
        setup.append(cold_import_seconds())
    per_case: dict = {}
    for took, label in samples:
        per_case.setdefault(label, []).append(took)
    return {
        "passes": len(scales),
        "elapsed_s": elapsed,
        "metrics": {
            **timed_metrics([t for t, _ in samples]),
            "setup_s": statistics.median(setup),
            "pass_ratio": (client.attempted - client.failed) / client.attempted,
        },
        "raw_metrics": timed_metrics(raw),
        "pass_scales": scales,
        "setup_samples_s": setup,
        "p50_cases": percentile_cases(samples, 0.5),
        "p90_cases": percentile_cases(samples, 0.9),
        "case_median_s": {k: statistics.median(v) for k, v in sorted(per_case.items())},
    }


def _report_bytes(text: str, report) -> int:
    """Report size without the digits of its run-to-run varying wall time."""
    size = len(text.encode())
    if report is not None and "wall_time_s" in report:
        size -= len(repr(report["wall_time_s"]))
    return size


def traced_pass(client, tracer, mix):
    """One pass with every layer wrapped; returns (wall seconds, spans, counts)."""
    main = client.main
    tracer.install()
    client.main = tracer.wrap("cli.main", main)
    extra = Counter()
    start = time.perf_counter()
    try:
        for run_id, case in enumerate(mix):
            tracer.run = run_id
            _, verdict, text = client.run(case)
            extra["cli.report_bytes"] += _report_bytes(text, verdict.report)
            if case.command == "slater" and verdict.report is not None:
                extra["exchange.reported_terms"] += oracle.reported_terms(verdict.report)
    finally:
        wall = time.perf_counter() - start
        client.main = main
        tracer.uninstall()
    found, counts = tracer.take()
    counts.update(extra)
    return wall, found, counts


def layer_values(found, counts) -> dict:
    values = dict(spans.aggregate(found))
    values.update(counts)
    tables = values.get("oscillator.build_oscillator_table.calls", 0)
    built = values.get("exchange.antisymmetrize.terms", 0)
    values["oscillator.circular_builds_per_table"] = (
        values.get("oscillator.circular_components.calls", 0) / tables if tables else 0.0
    )
    values["exchange.useful_term_ratio"] = (
        values.get("exchange.reported_terms", 0) / built if built else 0.0
    )
    return values


def measure_traced(client, mix, seconds: float, names, orders) -> dict:
    """Alternate untraced and traced passes; per-layer values per traced pass."""
    spans.check_span_arithmetic()
    tracer = spans.Tracer()
    warm_up(client, mix)
    plain, traced, passes, all_spans = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        order = next(orders)
        t0 = time.perf_counter()
        client.run_pass(order)
        plain.append(time.perf_counter() - t0)
        wall, found, counts = traced_pass(client, tracer, order)
        traced.append(wall)
        all_spans.append(found)
        passes.append(layer_values(found, counts))
    timed = {n for n in names if n.endswith(("_s", ".s"))}
    for name in names:
        if name not in timed:
            seen = {p.get(name, 0) for p in passes}
            if len(seen) != 1:
                raise BenchError(f"count {name} differs between traced passes: {sorted(seen)}")
    metrics = {}
    for name in names:
        if name == "trace.overhead_s":
            metrics[name] = statistics.median(traced) - statistics.median(plain)
        elif name in timed:
            metrics[name] = statistics.median(p.get(name, 0.0) for p in passes)
        else:
            metrics[name] = passes[0].get(name, 0)
    return {
        "passes": len(traced),
        "metrics": metrics,
        "untraced_pass_s": plain,
        "traced_pass_s": traced,
        "spans": all_spans,
    }


def write_spans(path: Path, all_spans: list):
    with open(path, "w") as handle:
        for number, found in enumerate(all_spans):
            for index, span in enumerate(found):
                row = [number, span.run, index, span.parent, span.name, span.start, span.end]
                handle.write(json.dumps(row) + "\n")


def run_workload(args) -> dict:
    declared = declared_metrics()
    cli = load_cli()
    mix = workloads.build_mix(args.workload, args.seed)
    client = Client(cli.main)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "mix": [list(c.argv) for c in mix]}
    if args.trace:
        names = list(declared["per_layer"])
        result = measure_traced(client, mix, args.seconds, names, pass_orders(mix, args.seed))
        write_spans(OUT / f"{stem}-spans.jsonl", result.pop("spans"))
        units = declared["per_layer"]
    else:
        result = measure(client, mix, args.seconds, pass_orders(mix, args.seed))
        result["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = declared["end_to_end"]
    result.update(detail, attempted=client.attempted, failed=client.failed,
                  provenance=provenance(), problems=client.problems)
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    with open(OUT / f"{stem}.json", "w") as handle:
        json.dump({**result, "metrics": metrics}, handle, indent=2)
        handle.write("\n")

    for problem in client.problems:
        print(f"oracle: {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {result['attempted']} runs "
          f"in {result['passes']} passes of {len(mix)}")
    raw = result.get("raw_metrics", {})
    for name, entry in metrics.items():
        unscaled = f"  (unscaled {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:42s} {entry['value']:.6g} {entry['unit']}{unscaled}")
    if not args.trace:
        print(f"  fail_ratio = {result['failed']}/{result['attempted']} "
              f"(failed/attempted) = {result['failed'] / result['attempted']:.4f}")
        print(f"  p50 in {result['p50_cases']}; p90 in {result['p90_cases']}")
    print(f"  provenance {json.dumps(result['provenance'], sort_keys=True)}")
    return {
        "correct": not client.problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Each workload in its own fresh process, so RSS and warm-up do not leak."""
    status = 0
    for name in workloads.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout)
        if done.returncode != 0 or '"correct": true' not in done.stdout.rstrip().rpartition("\n")[2]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args)
    except (BenchError, FileNotFoundError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
