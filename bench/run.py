#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of stepharm.

    python3 bench/run.py --workload states --seed 1 --seconds 45 --trace 0

One caller drives the package in a closed loop: the next operation starts
only when the previous one has returned.  The seeded operation list of the
workload (see ``workloads.py``) runs after a warm-up; every output is then
checked against scipy (``checks.py``).  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``.  With ``--trace 1`` the same operations run a second
time under the outside-in tracer (``tracer.py``) and the metrics are the
per-layer ones, plus the tracing overhead.  ``--workload all`` runs every
workload, each in a fresh interpreter.

The program is imported from ``src/`` of the checkout this script lives
in, and the command fails when that is missing.  Scratch files go to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import workloads

# checks (scipy) is imported after the timed phases and tracer only for the
# traced pass, so neither weighs on the untraced measurement.

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# set-up probes, half of them before the timed phase and half after it: the
# machine's speed drifts over seconds, and probes taken back to back share
# one slow or fast spell
SETUP_PROBES = 6
TAIL_BEYOND = 10
TRACE_ENV = "STEPHARM_BENCH_TRACE"  # read by cli_launcher.py


# -- statistics ----------------------------------------------------------------
def tail_rank(count: int) -> int:
    """0-based rank in sorted order of the highest sample with ten beyond it.

    With fewer than eleven samples no sample has ten beyond it, and the
    largest one is used.
    """
    return max(count - 1 - TAIL_BEYOND, 0) if count > TAIL_BEYOND else count - 1


def latency_tail(latencies) -> float:
    return sorted(latencies)[tail_rank(len(latencies))]


# -- set-up --------------------------------------------------------------------
def setup_probes(workload: str, count: int) -> list[float]:
    """Import plus warm-up time in each of ``count`` fresh interpreters."""
    times = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "probe.py"), workload],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


# -- timed phase -------------------------------------------------------------------
def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_in_process(ops):
    """Closed loop in this process; returns outputs, latencies and peak RSS."""
    outputs, latencies = [], []
    for op in ops:
        start = time.perf_counter()
        try:
            out = workloads.run_op(op)
        except Exception as exc:  # a raising operation is a failed operation
            out = exc
        latencies.append(time.perf_counter() - start)
        outputs.append(out)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return outputs, latencies, peak_mb


def run_cli(ops, workdir: Path, trace_dir: Path | None = None):
    """Closed loop of stepharm subprocesses, each in its own directory.

    The memory figure is the median over the subprocesses of each one's
    peak RSS: the largest ones are `wavepacket` runs whose peak moves by
    10 MB between nearby inputs, which made the maximum flip from seed to
    seed.
    """
    env = dict(os.environ)
    launcher = str(BENCH_DIR / "cli_launcher.py")
    workdir.mkdir(parents=True, exist_ok=True)
    dirs = []
    for i in range(len(ops)):
        d = workdir / f"op-{i:03d}"
        d.mkdir()
        dirs.append(d)
    outputs, latencies, peaks_kb = [], [], []
    for i, (op, d) in enumerate(zip(ops, dirs)):
        if trace_dir is not None:
            env[TRACE_ENV] = str(trace_dir / f"op-{i:03d}.npz")
        with open(d / "stdout.txt", "wb") as out, open(d / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, launcher, *op.params["args"]],
                                    cwd=d, stdout=out, stderr=err, env=env)
            _, status, usage = os.wait4(proc.pid, 0)
            latencies.append(time.perf_counter() - start)
        proc.returncode = os.waitstatus_to_exitcode(status)
        peaks_kb.append(usage.ru_maxrss)
        outputs.append({"dir": d, "returncode": proc.returncode})
    return outputs, latencies, statistics.median(peaks_kb) / 1024.0


def timed_pass(workload: str, ops, workdir: Path, trace_dir: Path | None = None):
    cpu0, wall0 = _cpu_seconds(), time.perf_counter()
    if workload == "cli":
        outputs, latencies, peak_mb = run_cli(ops, workdir, trace_dir)
    else:
        outputs, latencies, peak_mb = run_in_process(ops)
    wall = time.perf_counter() - wall0
    return {"outputs": outputs, "latencies": latencies, "peak_mb": peak_mb,
            "wall_s": wall, "cpu_s": _cpu_seconds() - cpu0}


# -- output checks ------------------------------------------------------------------
def _read_rows(d: Path, fmt: str):
    """(header, rows, document) of a CSV file or a JSON document on stdout."""
    if fmt == "csv":
        lines = (d / workloads.CLI_CSV_NAME).read_text().splitlines()
        header = lines[0].split(",")
        rows = [[float(v) if v not in ("true", "false") else v == "true"
                 for v in line.split(",")] for line in lines[1:]]
        document = json.loads((d / (workloads.CLI_CSV_NAME + ".manifest.json")).read_text())
        return header, rows, document
    document = json.loads((d / "stdout.txt").read_text())
    header = list(document["data"][0]) if document["data"] else []
    rows = [[row[h] for h in header] for row in document["data"]]
    return header, rows, document


def cli_problems(op, out) -> list[str]:
    import checks

    d, p = out["dir"], op.params
    if out["returncode"] != 0:
        err = (d / "stderr.txt").read_text().strip().splitlines()
        return [f"{' '.join(p['args'])}: exit {out['returncode']} "
                f"{err[-1] if err else ''}"]
    if op.kind == "verify":
        return checks.check_verify((d / "stdout.txt").read_text(),
                                   json.loads((d / "verify_report.json").read_text()))
    header, rows, document = _read_rows(d, p["format"])
    cols = {h: np.array([r[i] for r in rows]) for i, h in enumerate(header)}
    b0 = p["beta0"]
    if op.kind == "levels":
        return checks.check_levels(b0, list(zip(cols["n"].astype(int), cols["beta_n"],
                                                cols["k_n"])))
    if op.kind == "delay":
        return checks.check_delay_curve(b0, cols["beta"],
                                        cols["tau_over_half_period"] * math.pi,
                                        asymptotic=False)
    if op.kind == "eigenfunction":
        level = document["level"]
        beta_n = level["beta_n"]
        return checks.check_bound_state(b0, level["n"], beta_n,
                                        math.sqrt(2.0 * (b0 - beta_n)), cols["x"],
                                        cols["re_u"] + 1j * cols["im_u"])
    if op.kind == "resonances":
        return checks.check_resonances(b0, p["beta_max"], list(zip(
            cols["beta_peak"], cols["tau_peak_over_half_period"] * math.pi,
            cols["width"])))
    if op.kind == "wavepacket":
        summary = document["summary"]
        k = math.sqrt(2.0 * (summary["beta_center"] - b0))
        frames = len(np.unique(cols["t"]))
        psi = (cols["re_psi"] + 1j * cols["im_psi"]).reshape(frames, -1)
        xs = cols["x"][:psi.shape[1]]
        # the grid has no x < 0, so only the frames before and after the
        # reflection hold the whole packet
        return (checks.check_packet_delay(b0, k, k / 30.0, summary["measured_delay"],
                                          p["mirror"])
                + checks.check_frame_norms(xs, psi, frames=(0, frames - 1)))
    raise ValueError(f"unknown cli operation {op.kind!r}")


def op_problems(workload: str, op, out) -> list[str]:
    import checks

    if workload == "cli":
        return cli_problems(op, out)
    if isinstance(out, Exception):
        return [f"{op.params}: {out!r}"]
    p = op.params
    if workload == "spectra":
        return checks.check_spectral_table(p["beta0"], out, workloads.DELAY_OFFSETS,
                                           workloads.RESONANCE_SPAN)
    if workload == "states":
        _, beta_n, k_n = out["levels"][p["n"]]
        return (checks.check_levels(p["beta0"], out["levels"])
                + checks.check_bound_state(p["beta0"], p["n"], beta_n, k_n,
                                           out["xs"], out["u"]))
    return checks.check_packet(p, out)


def judge(workload: str, ops, outputs):
    """(failed, problems): failed counts raising operations and known faults.

    An operation the program is known to get wrong counts as failed when
    its check fails; any other operation whose check fails is a wrong
    result and makes the run incorrect.
    """
    failed, problems = 0, []
    for op, out in zip(ops, outputs):
        found = op_problems(workload, op, out)
        raised = isinstance(out, Exception) or (workload == "cli"
                                                and out["returncode"] != 0)
        if raised or (found and op.known_fault):
            failed += 1
        elif found:
            problems.extend(found)
    return failed, problems


# -- metrics ---------------------------------------------------------------------
def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def end_to_end(measured: dict, setup_s: float) -> dict:
    lat_ms = [1e3 * v for v in measured["latencies"]]
    return {"wall_s": measured["wall_s"], "cpu_s": measured["cpu_s"],
            "latency_p50_ms": statistics.median(lat_ms),
            "latency_tail_ms": latency_tail(lat_ms),
            "peak_rss_mb": measured["peak_mb"], "setup_s": setup_s}


def per_layer(table: dict, traced: dict, untraced: dict, spans: int) -> dict:
    values = {"trace.wall_s": traced["wall_s"],
              "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
              "trace.spans": spans}
    for name, row in table.items():
        for field, value in row.items():
            values[f"{name}.{field}"] = value
    return values


# per-layer rows that are not a wrapped function: the import of stepharm.cli
# and the rest of each subprocess (see traced_pass)
SYNTHETIC_LAYERS = ("cli.import", "cli.process")


def unknown_layers(wanted) -> list[str]:
    """Per-layer metric names that match no function the tracer wraps.

    A wrapped function that never ran reads 0; a name that matches nothing
    (a function renamed or removed) is an error, not a zero.
    """
    import tracer

    known = {name for name, _ in tracer.targets()} | set(SYNTHETIC_LAYERS)
    return [m["name"] for m in wanted if not m["name"].startswith("trace.")
            and m["name"].rsplit(".", 1)[0] not in known]


def traced_pass(workload: str, ops, workdir: Path, seed: int):
    """Run the operations again under the tracer; returns the pass and its table."""
    import tracer

    OUT_DIR.mkdir(exist_ok=True)
    if workload == "cli":
        trace_dir = OUT_DIR / f"trace-cli-{seed}"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir()
        measured = timed_pass(workload, ops, workdir, trace_dir)
        per_process = [tracer.load_spans(f) for f in sorted(trace_dir.glob("op-*.npz"))]
        table = tracer.merge(tracer.aggregate(s) for s in per_process)
        # what the spans of a subprocess leave of its latency is interpreter
        # start and exit
        outside = [lat - sum(end - start for _, parent, _, start, end, _ in spans
                             if parent == 0)
                   for lat, spans in zip(measured["latencies"], per_process)]
        table["cli.process"] = {"calls": len(outside), "points": len(outside),
                                "self_s": sum(outside)}
        return measured, table, sum(len(s) for s in per_process)
    with tracer.Tracer() as active:
        measured = timed_pass(workload, ops, workdir)
    tracer.save_spans(active.spans, OUT_DIR / f"trace-{workload}-{seed}.npz")
    return measured, tracer.aggregate(active.spans), len(active.spans)


# -- command --------------------------------------------------------------------------
def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = load_spec()
    if trace:
        unknown = unknown_layers(spec["per_layer"])
        if unknown:
            raise SystemExit(f"error: no traced function for {', '.join(unknown)}")
    probes = 0 if trace else SETUP_PROBES // 2
    setup_times = setup_probes(workload, probes)
    ops = workloads.make_ops(workload, seed, workloads.rounds_for(workload, seconds))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
    try:
        workloads.warm_up(workload)
        measured = timed_pass(workload, ops, workdir / "untraced")
        setup_times += setup_probes(workload, probes)
        if trace:
            untraced = measured
            (workdir / "traced").mkdir()
            measured, table, spans = traced_pass(workload, ops, workdir / "traced", seed)
        failed, problems = judge(workload, ops, measured["outputs"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        values = per_layer(table, measured, untraced, spans)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(measured, statistics.median(setup_times))
        wanted = spec["end_to_end"]
    for line in problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    return {"correct": not problems, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stepharm" / "__init__.py").is_file():
        print(f"error: no stepharm package under {SRC}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    if args.workload == "all":
        results = {}
        for name in workloads.WORKLOADS:
            done = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            results[name] = json.loads(done.stdout.strip().splitlines()[-1])
            print(name, json.dumps(results[name]), flush=True)
        print(json.dumps(results))
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} attempted={result['attempted']} failed={result['failed']} "
          f"correct={str(result['correct']).lower()}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    sys.exit(main())
