"""Benchmark of the sqg-vstates library and ``vstates`` command line.

    python3 benchmarks/run.py [--workload branch|diagram|oracle|all]
                              [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src``.  Each pass of a workload runs in fresh processes (see
``child.py``) as a closed loop with one caller: the next operation starts
when the previous one returns.  The loop runs whole cycles of the
workload's inputs: one, and another while it is expected to end within
``--seconds``, so every run measures the same input mix.  The untraced
pass of ``--trace 0`` starts one process per cycle, with set-up-only
processes between them.  Inputs come from ``--seed``; the library only
sees the generated command lines.

Workloads (the reasons are in ``BENCHMARK.json`` and ``BASELINE.md``):

* ``branch``  -- ``vstates branch`` in the acceptance configuration of
  criterion 10, alternating the two signs; the seed does not change it,
  because its pinned Omega reference depends on these inputs;
* ``diagram`` -- ``vstates spectrum --m-max 999`` at seeded radii b in
  [0.05, 0.95] (one per stratum, shuffled), CSV to a file;
* ``oracle``  -- ``vstates check --seed S --format json`` with S from the
  seed.

Every operation's output is gated (see ``child.py``).  With ``--trace 0``
the last line of standard output is one JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics, from an
untraced pass, a traced pass and one untraced cycle with one BLAS thread
per core.  The lines before it name every metric with its unit, the
failure fraction, the workload's accuracy figure and the environment.
The exit code is 1 when an output fails its gate and 2 when the checkout
holds no library.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from collections import defaultdict
from pathlib import Path

from child import LAMBDA_FLOOR, LAMBDA_TOL

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
WORKLOADS = ("branch", "diagram", "oracle")
SETUP_PROBES = 24  # set-up-only processes per untraced run, spread over it
DEADLINE_S = 170.0  # budget per workload of one invocation; no process outlives it
DIAGRAM_STRATA = 32
DIAGRAM_M_MAX = 999
LAMBDA_SAMPLES = 7  # seeded sample modes per radius, besides n = 1
OMEGA_TOL = {"full": 1e-5, "tiny": 5e-4}  # tiny runs at P = 320: 16x the P = 1280 bias

END_TO_END = {
    "wall_s": ("s", "median time of one operation, tracing off"),
    "setup_s": ("s", "process start to first library call, median of the run's processes"),
    "peak_rss_mb": ("MB", "peak resident memory of the workload process"),
    "accuracy_margin": ("ratio", "accuracy error / tolerance: omega_err, lambda_err or oracle_margin"),
}

# Per-layer metrics, each per operation of the traced pass unless named
# otherwise, with the end-to-end metric it should move.
PER_LAYER = {
    "specfun.build_s": ("s", "lower", "wall_s on diagram"),
    "specfun.build_calls": ("count", "lower", "wall_s on diagram"),
    "specfun.table_modes": ("count", "lower", "wall_s on diagram (sum of n_max over builds)"),
    "specfun.self_s": ("s", "lower", "wall_s on diagram"),
    "spectrum.threshold_s": ("s", "lower", "wall_s on diagram"),
    "spectrum.rows_s": ("s", "lower", "wall_s on diagram"),
    "spectrum.rows": ("count", "higher", "wall_s on diagram"),
    "spectrum.self_s": ("s", "lower", "wall_s on diagram"),
    "contour.branch_s": ("s", "lower", "wall_s on branch"),
    "contour.newton_s": ("s", "lower", "wall_s on branch (total per operation)"),
    "contour.newton_call_s": ("s", "lower", "wall_s on branch (median per call)"),
    "contour.newton_calls": ("count", "lower", "wall_s on branch"),
    "contour.residual_s": ("s", "lower", "wall_s on oracle (total per operation)"),
    "contour.residual_call_s": ("s", "lower", "wall_s on oracle (median per call)"),
    "contour.residual_calls": ("count", "lower", "wall_s on oracle"),
    "contour.kernel_pairs": ("count", "lower", "wall_s on oracle (computed: 4 P^2 per full-grid call)"),
    "contour.samples_s": ("s", "lower", "wall_s on branch"),
    "contour.self_s": ("s", "lower", "wall_s on branch and oracle"),
    "verify.c1_c2_s": ("s", "lower", "wall_s on oracle"),
    "verify.c3_c8_s": ("s", "lower", "wall_s on oracle"),
    "verify.spectral_s": ("s", "lower", "wall_s on oracle"),
    "verify.linearization_s": ("s", "lower", "wall_s on oracle"),
    "verify.self_s": ("s", "lower", "wall_s on oracle"),
    "cli.self_s": ("s", "lower", "wall_s on branch and diagram"),
    "cli.bytes_out": ("B", "lower", "wall_s on branch and diagram"),
    "quadrature.oracle_s": ("s", "lower", "none: time of the diagram gate's Lambda_n oracle"),
    "proc.cpu_s": ("s", "lower", "wall_s on every workload (untraced CPU per operation)"),
    "proc.cpu_per_wall": ("ratio", "lower", "wall_s on every workload"),
    "proc.single_thread_wall_s": ("s", "lower", "wall_s on every workload (untraced pass)"),
    "proc.nproc_threads_wall_s": ("s", "lower", "wall_s on every workload if BLAS threads become nproc"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced median wall_s"),
    "trace.coverage": ("ratio", "higher", "none: top-level span time / traced operation time"),
    "trace.spans": ("count", "lower", "none: spans recorded per operation"),
}

# span name -> per-layer metric of its inclusive time per operation
INCLUSIVE = {
    "specfun.AnnulusConstants.build": "specfun.build_s",
    "spectrum.threshold_N": "spectrum.threshold_s",
    "spectrum.bifurcation_row": "spectrum.rows_s",
    "contour.branch_continue": "contour.branch_s",
    "contour.newton_correct": "contour.newton_s",
    "contour.residual": "contour.residual_s",
    "contour.boundary_samples": "contour.samples_s",
    "verify.check_c1_c2": "verify.c1_c2_s",
    "verify.check_c3_c8": "verify.c3_c8_s",
    "verify.check_spectral": "verify.spectral_s",
    "verify.check_linearization": "verify.linearization_s",
}
CALLS = {
    "specfun.AnnulusConstants.build": "specfun.build_calls",
    "spectrum.bifurcation_row": "spectrum.rows",
    "contour.newton_correct": "contour.newton_calls",
    "contour.residual": "contour.residual_calls",
}
PER_CALL = {"contour.newton_correct": "contour.newton_call_s",
            "contour.residual": "contour.residual_call_s"}


# --- inputs ------------------------------------------------------------------


def branch_workload(seed: int, size: str) -> dict:
    ref = json.loads((BENCH / "omega_ref.json").read_text(encoding="utf-8"))
    steps, P = (ref["steps"], 1280) if size == "full" else (1, 320)
    ops = []
    for sign in ("plus", "minus"):
        argv = ["branch", "--b", repr(ref["b"]), "--m", str(ref["m"]), "--sign", sign,
                "--steps", str(steps), "--ds", repr(ref["ds"]), "--modes", str(ref["K"]),
                "--quad", str(P), "--tol", repr(ref["newton_tol"]),
                "--out", "{out}/branch.json", "--boundaries"]
        ops.append({"argv": argv, "omega_ref": ref["signs"][sign][str(steps)]["omega_ref"]})
    return {"ops": ops, "gate": {"steps": steps, "omega_tol": OMEGA_TOL[size]}}


def diagram_workload(seed: int, size: str) -> dict:
    rng = random.Random(seed)
    strata = DIAGRAM_STRATA if size == "full" else 2
    radii = [0.05 + 0.9 * (i + rng.random()) / strata for i in range(strata)]
    rng.shuffle(radii)
    ops = [{"argv": ["spectrum", "--b", repr(b), "--m-max", str(DIAGRAM_M_MAX),
                     "--out", "{out}/spectrum.csv"],
            "b": b, "m_max": DIAGRAM_M_MAX,
            "lambda_modes": [1] + sorted(rng.sample(range(2, DIAGRAM_M_MAX + 1), LAMBDA_SAMPLES))}
           for b in radii]
    return {"ops": ops}


def oracle_workload(seed: int, size: str) -> dict:
    check_seed = random.Random(seed).randrange(1, 2**31)
    if size == "full":
        op = {"argv": ["check", "--seed", str(check_seed), "--format", "json",
                       "--out", "{out}/check.json"]}
    else:  # one check group at small size
        op = {"call": "check_spectral",
              "kwargs": {"b_set": [0.5], "m_hi": 40, "samples": 20, "seed": check_seed}}
    return {"ops": [op]}


INPUTS = {"branch": branch_workload, "diagram": diagram_workload, "oracle": oracle_workload}


# --- processes -----------------------------------------------------------------


# BLAS threads of the measured passes.  On two shared cores a second BLAS
# thread burns a second core, gains no wall time on these workloads and
# makes wall time follow the load on both cores: interleaved runs of
# `branch` spread by IQR/median 0.25 with two threads and 0.16 with one.
# The traced run adds one cycle at the OpenBLAS default of one thread per
# core (proc.nproc_threads_wall_s).
BLAS_THREADS = 1


def cores() -> int:
    return len(os.sched_getaffinity(0))


class Launcher:
    """Starts the workload processes of one invocation inside a scratch
    directory of the checkout, each with its own deadline share."""

    def __init__(self, workdir: Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        self.serial = 0

    def run(self, kind: str, workload: dict, mode: str, seconds: float,
            threads: int) -> dict:
        self.serial += 1
        work = self.workdir / f"p{self.serial}"
        work.mkdir()
        spec = dict(workload, kind=kind, mode=mode, seconds=seconds,
                    root=str(ROOT), workdir=str(work), result=str(work / "result.json"))
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(threads)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RuntimeError("time budget of the invocation exhausted")
        t_spawn = time.perf_counter()
        proc = subprocess.run([sys.executable, str(CHILD), str(spec_path), repr(t_spawn)],
                              cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"{kind} {mode} process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        result["threads"] = threads
        return result


# --- metrics -------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it: (percent, value)."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def latencies(result: dict) -> list[float]:
    return [r["latency_s"] for r in result["records"]]


def read_spans(info: dict) -> dict:
    n = info["count"]
    arrays = [array("i"), array("i"), array("d"), array("d")]
    with open(info["file"], "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    name, parent, start, end = arrays
    dur = [e - s for s, e in zip(start, end)]
    inner = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            inner[parent[i]] += dur[i]
    names = info["names"]
    by_name: dict[str, list[float]] = defaultdict(list)
    self_by_layer: dict[str, float] = defaultdict(float)
    root = 0.0
    for i in range(n):
        label = names[name[i]]
        by_name[label].append(dur[i])
        self_by_layer[label.split(".")[0]] += dur[i] - inner[i]
        if parent[i] < 0:
            root += dur[i]
    return {"by_name": by_name, "self": self_by_layer, "root": root, "count": n}


def per_layer(untraced: dict, traced: dict, nproc: dict) -> dict[str, float]:
    ops = len(traced["records"])
    spans = read_spans(traced["spans"])
    counts = traced["spans"]["counts"]
    by_name = spans["by_name"]
    out = {name: 0.0 for name in PER_LAYER}
    for span, metric in INCLUSIVE.items():
        out[metric] = sum(by_name.get(span, ())) / ops
    for span, metric in CALLS.items():
        out[metric] = len(by_name.get(span, ())) / ops
    for span, metric in PER_CALL.items():
        out[metric] = statistics.median(by_name[span]) if by_name.get(span) else 0.0
    for layer in ("specfun", "spectrum", "contour", "verify", "cli"):
        out[f"{layer}.self_s"] = spans["self"].get(layer, 0.0) / ops
    out["specfun.table_modes"] = counts.get("table_modes", 0) / ops
    out["contour.kernel_pairs"] = counts.get("kernel_pairs", 0) / ops
    out["cli.bytes_out"] = sum(r["bytes_out"] for r in traced["records"]) / ops
    out["quadrature.oracle_s"] = traced["quadrature_s"] / ops
    cpu = sum(r["cpu_s"] for r in untraced["records"])
    wall = sum(latencies(untraced))
    out["proc.cpu_s"] = cpu / len(untraced["records"])
    out["proc.cpu_per_wall"] = cpu / wall
    out["proc.single_thread_wall_s"] = statistics.median(latencies(untraced))
    out["proc.nproc_threads_wall_s"] = statistics.median(latencies(nproc))
    out["trace.overhead_s"] = statistics.median(latencies(traced)) - statistics.median(latencies(untraced))
    out["trace.coverage"] = spans["root"] / sum(latencies(traced))
    out["trace.spans"] = spans["count"] / ops
    return out


# --- one workload ----------------------------------------------------------------


def environment(result: dict) -> str:
    env = result["environment"]
    return (f"nproc={os.cpu_count()} affinity={cores()} python={platform.python_version()} "
            f"numpy={env['numpy']} blas={env['blas']} "
            f"OPENBLAS_NUM_THREADS=OMP_NUM_THREADS={result['threads']} (workload process only)")


def accuracy_line(kind: str, accuracy: float, size: str) -> tuple[str, float]:
    """The workload's own accuracy figure, and accuracy_margin: that
    figure over its tolerance."""
    if kind == "branch":
        tol = OMEGA_TOL[size]
        return f"omega_err {accuracy:.6e} (max over both signs; bound {tol:g})", accuracy / tol
    if kind == "diagram":
        floored = max(accuracy, LAMBDA_FLOOR)
        return (f"lambda_err {accuracy:.6e} (counted as {floored:g}, the oracle's resolution; "
                f"tolerance {LAMBDA_TOL:g})", floored / LAMBDA_TOL)
    return f"oracle_margin {accuracy:.6f} (max over reports of max_error / tolerance)", accuracy


def untraced_pass(kind: str, workload: dict, seconds: float,
                  launcher: Launcher) -> tuple[dict, list[float]]:
    """The measured pass of a ``--trace 0`` run and its set-up samples.

    Each workload process runs one cycle; the next is started while it is
    expected to end within ``seconds``.  Set-up-only processes run before,
    between and after them, so the set-up samples span the same stretch
    of time as the timed operations, not only its first seconds; the
    very first process is a warm-up and is not counted.  Every workload
    process's own set-up counts too."""

    def probes(count: int) -> list[float]:
        return [launcher.run(kind, workload, "setup", 0, BLAS_THREADS)["setup_s"]
                for _ in range(count)]

    probes(1)
    setups = probes(SETUP_PROBES // 4)
    passes: list[dict] = []
    spent = 0.0
    while True:
        t0 = time.perf_counter()
        passes.append(launcher.run(kind, workload, "time", 0, BLAS_THREADS))
        spent += time.perf_counter() - t0
        setups.append(passes[-1]["setup_s"])
        expected = max(len(passes), int(seconds * len(passes) // spent))
        gaps = expected - len(passes) + 1
        setups += probes(math.ceil(max(0, SETUP_PROBES - len(setups) + len(passes)) / gaps))
        if len(passes) >= expected:
            break
    timed = {"records": [rec for p in passes for rec in p["records"]],
             "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
             "attempted": sum(p["attempted"] for p in passes),
             "failed": sum(p["failed"] for p in passes),
             "accuracy": max(p["accuracy"] for p in passes),
             "environment": passes[0]["environment"], "threads": BLAS_THREADS,
             "processes": len(passes)}
    return timed, setups


def run_workload(kind: str, seed: int, seconds: int, trace: bool, size: str,
                 launcher: Launcher) -> dict:
    workload = INPUTS[kind](seed, size)
    threads = BLAS_THREADS
    results = []
    if not trace:
        timed, setups = untraced_pass(kind, workload, seconds, launcher)
        results.append(timed)
    else:
        timed = launcher.run(kind, workload, "time", seconds / 2, threads)
        traced = launcher.run(kind, workload, "trace", seconds / 2, threads)
        nproc = launcher.run(kind, workload, "time", 0, cores())
        results += [timed, traced, nproc]

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    accuracy = max(r["accuracy"] for r in results)
    errors = [rec["error"] for r in results for rec in r["records"] if rec["error"]]
    acc_text, margin = accuracy_line(kind, accuracy, size)
    lat = latencies(timed)
    lines = [f"workload={kind} seed={seed} seconds={seconds} trace={int(trace)} size={size}",
             f"environment: {environment(timed)}",
             f"closed loop, one caller: {len(lat)} operations untraced"
             f" in {timed.get('processes', 1)} processes"]
    if trace:
        metrics = per_layer(timed, traced, nproc)
        units = {name: PER_LAYER[name][0] for name in metrics}
        lines.append(f"traced pass: {len(traced['records'])} operations; "
                     f"{nproc['threads']}-thread pass: {len(nproc['records'])} operations, "
                     f"CPU / wall {sum(r['cpu_s'] for r in nproc['records']) / sum(latencies(nproc)):.3f}")
    else:
        metrics = {"wall_s": statistics.median(lat), "setup_s": statistics.median(setups),
                   "peak_rss_mb": timed["peak_rss_mb"], "accuracy_margin": margin}
        units = {name: END_TO_END[name][0] for name in metrics}
        t = tail(lat)
        lines.append(f"wall_s tail: p{t[0]:.1f} = {t[1]:.6f} s of {len(lat)} operations" if t
                     else f"wall_s tail: none (fewer than 11 operations: {len(lat)})")
        lines.append(f"wall_s range: {min(lat):.6f} .. {max(lat):.6f} s; "
                     f"setup_s range: {min(setups):.6f} .. {max(setups):.6f} s of {len(setups)} "
                     f"processes")
    lines.append(f"fail_frac {failed}/{attempted} = {failed / attempted:.6g}")
    lines.append(acc_text)
    lines += [f"error: {e}" for e in errors[:5]]
    for name, value in metrics.items():
        lines.append(f"{name:28s} {value:.6g} {units[name]}")
    return {"lines": lines, "correct": failed == 0 and not errors, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: inputs small enough for the harness self-test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sqg_vstates" / "__init__.py").is_file():
        print(f"error: no library at {ROOT / 'src' / 'sqg_vstates'}", file=sys.stderr)
        return 2
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    kinds = WORKLOADS if args.workload == "all" else (args.workload,)
    launcher = Launcher(workdir, time.monotonic() + DEADLINE_S * len(kinds))
    try:
        outcomes = {}
        for kind in kinds:
            outcomes[kind] = run_workload(kind, args.seed, args.seconds, bool(args.trace),
                                          args.size, launcher)
            print("\n".join(outcomes[kind]["lines"]), flush=True)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another invocation is using it
    correct = all(o["correct"] for o in outcomes.values())
    if len(kinds) == 1:
        o = outcomes[kinds[0]]
        summary = {"correct": o["correct"], "attempted": o["attempted"], "failed": o["failed"],
                   "metrics": o["metrics"]}
    else:
        summary = {"correct": correct,
                   "attempted": sum(o["attempted"] for o in outcomes.values()),
                   "failed": sum(o["failed"] for o in outcomes.values()),
                   "metrics": {f"{k}.{name}": v for k, o in outcomes.items()
                               for name, v in o["metrics"].items()}}
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
