"""Workload process of the benchmark.

``run.py`` starts one of these per measured pass, in a fresh interpreter
whose environment holds the BLAS thread setting and a ``PYTHONPATH`` that
points at the checkout's ``src``:

    python3 benchmarks/child.py SPEC.json T_SPAWN

``SPEC.json`` lists the operations of one workload cycle (generated by
``run.py`` from the seed), the pass mode and where to write results.
``T_SPAWN`` is the parent's ``time.perf_counter()`` just before the spawn;
on Linux that clock is system-wide, so ``t_first_call - T_SPAWN`` is the
set-up time of this process (interpreter start, imports, argument
parsing) up to its first call into a library layer.

Modes:

* ``setup`` -- stop at the first library call and report the set-up time;
* ``time`` -- run the cycle in a closed loop (one caller, next operation
  only after the previous one returns), in whole cycles: one, and another
  while it is expected to end within ``seconds``; each output is gated
  after its operation;
* ``trace`` -- as ``time``, with every public library function wrapped in
  a span (name, start, end, parent) kept in memory and written once at
  exit; the wrappers are removed while an output is gated.

The gates (``gate_branch``, ``gate_diagram``, ``gate_oracle``) take the
parsed output of one operation and return the number of attempted and
failed operations plus the accuracy figure; ``selftest.py`` feeds them
corrupted outputs.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import resource
import shutil
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("specfun", "spectrum", "contour", "verify", "cli")

# Gate tolerances.
RESIDUAL_TOL = 1e-10  # every branch point, as criterion 10 states
DET_TOL = 1e-12  # |det M_m(Omega)| / det scale at a tabulated eigenvalue
LAMBDA_TOL = 1e-8  # relative, as in criterion 3
# Relative differences below this are within the quadrature oracle's own
# error (about 2e-14 at n = 1), so lambda_err is reported no lower.
LAMBDA_FLOOR = 1e-13
LAMBDA_MIN = 1e-250  # skip sample modes whose Lambda_n is near underflow


class SetupDone(BaseException):
    """Raised by the set-up probe at the first library call; a
    BaseException so no library ``except Exception`` swallows it."""


def library_modules() -> dict:
    import sqg_vstates.cli
    import sqg_vstates.contour
    import sqg_vstates.specfun
    import sqg_vstates.spectrum
    import sqg_vstates.verify

    return {layer: sys.modules[f"sqg_vstates.{layer}"] for layer in LAYERS}


class Patch:
    """Replaces the public functions of the given layers -- each module's
    ``__all__``, ``AnnulusConstants.build`` and ``cli.main`` -- by
    ``wrap(span_name, fn)`` in every namespace of the package that binds
    them, so calls between modules are caught too.  ``undo`` puts the
    originals back and ``apply`` the wrappers again."""

    def __init__(self, modules: dict, layers: tuple[str, ...], wrap) -> None:
        self._swaps: list[tuple[object, str, object, object]] = []
        targets = {}
        for layer in layers:
            mod = modules[layer]
            names = list(getattr(mod, "__all__", ())) + (["main"] if layer == "cli" else [])
            for name in names:
                obj = getattr(mod, name)
                if inspect.isfunction(obj):
                    targets[obj] = wrap(f"{layer}.{name}", obj)
        package = [m for key, m in sys.modules.items() if key.split(".")[0] == "sqg_vstates"]
        for mod in package:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in targets:
                    self._swaps.append((mod, attr, value, targets[value]))
        if "specfun" in layers:
            cls = modules["specfun"].AnnulusConstants
            build = cls.__dict__["build"]
            wrapped = classmethod(wrap("specfun.AnnulusConstants.build", build.__func__))
            self._swaps.append((cls, "build", build, wrapped))
        self.apply()

    def apply(self) -> None:
        for owner, attr, _, replacement in self._swaps:
            setattr(owner, attr, replacement)

    def undo(self) -> None:
        for owner, attr, original, _ in reversed(self._swaps):
            setattr(owner, attr, original)


def _count_table(counts: dict, args, kwargs, result) -> None:
    counts["table_modes"] = counts.get("table_modes", 0) + result.n_max


def _count_kernel(counts: dict, args, kwargs, result) -> None:
    # full-grid collocation: four P x P stream sums (computed, not measured)
    P = args[1] if len(args) > 1 else kwargs["P"]
    counts["kernel_pairs"] = counts.get("kernel_pairs", 0) + 4 * P * P


COUNTERS = {
    "specfun.AnnulusConstants.build": _count_table,
    "contour.collocation_residual": _count_kernel,
}


class Tracer:
    """Spans kept in flat in-memory arrays, one entry per call: name id,
    start, end and the index of the enclosing span (-1 at top level)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._stack = [-1]

    def wrap(self, span_name: str, fn):
        nid = len(self.names)
        self.names.append(span_name)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        counter = COUNTERS.get(span_name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def dump(self, path: Path) -> dict:
        with open(path, "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
        return {"file": str(path), "names": self.names, "count": len(self.start),
                "counts": self.counts}


# --- operations and their outputs -------------------------------------------


def run_op(modules: dict, op: dict, outdir: str) -> int:
    """One operation: a ``vstates`` command line, or (harness self-test
    only) a single check group written as ``vstates check`` writes JSON."""
    if "argv" in op:
        return modules["cli"].main([a.replace("{out}", outdir) for a in op["argv"]])
    verify = modules["verify"]
    reports = getattr(verify, op["call"])(**op["kwargs"])
    with open(Path(outdir) / "check.json", "w", encoding="utf-8") as fh:
        json.dump([r.to_dict() for r in reports], fh, indent=2)
    return 0 if all(r.passed for r in reports) else 4


def summarize(kind: str, outdir: Path, constants: list) -> dict:
    """Parse what one operation wrote into the fields its gate reads."""
    if kind == "branch":
        data = json.loads((outdir / "branch.json").read_text(encoding="utf-8"))
        return {
            "stopped_reason": data["stopped_reason"],
            "omega": [pt["omega"] for pt in data["points"]],
            "residual_norm": [pt["residual_norm"] for pt in data["points"]],
            "boundary_files": len(list(outdir.glob("branch.boundaries.*.csv"))),
        }
    if kind == "diagram":
        lines = (outdir / "spectrum.csv").read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        col = {name: header.index(name) for name in ("m", "omega_minus", "omega_plus")}
        rows = []
        for line in lines[1:]:
            f = line.split(",")
            rows.append((int(f[col["m"]]), float(f[col["omega_minus"]]), float(f[col["omega_plus"]])))
        return {"rows": rows, "constants": constants[-1] if constants else None}
    return {"reports": json.loads((outdir / "check.json").read_text(encoding="utf-8"))}


def gate_branch(summary: dict | None, op: dict, gate: dict) -> tuple[int, int, float]:
    """Continuation steps attempted and failed, and |Omega_last - Omega_ref|.

    A step fails when its point is missing or its residual exceeds the
    tolerance; a stopped run, missing boundary files or an Omega error
    above the pinned bound fail at least one step."""
    steps = gate["steps"]
    if summary is None:
        return steps, steps, math.inf
    omega, resid = summary["omega"], summary["residual_norm"]
    failed = steps - (len(omega) - 1)
    failed += sum(1 for r in resid if not r <= RESIDUAL_TOL)
    complete = len(omega) == steps + 1
    omega_err = abs(omega[-1] - op["omega_ref"]) if complete else math.inf
    extra = (summary["stopped_reason"] is not None,
             summary["boundary_files"] != len(omega),
             not omega_err <= gate["omega_tol"])
    if any(extra):
        failed = max(failed, 1)
    return steps, min(failed, steps), omega_err


def gate_diagram(summary: dict | None, op: dict, modules: dict) -> tuple[int, int, float, float]:
    """Spectrum rows attempted and failed, the largest relative error of
    the sampled Lambda_n in use, and the seconds spent in the quadrature
    oracle.  A row fails when Omega_m^+- is not a root of det M_m, or when
    a Lambda_n it uses disagrees with ``lambda_integral_oracle``."""
    if summary is None or summary["constants"] is None or not summary["rows"]:
        return 1, 1, math.inf, 0.0
    mode_matrix = modules["spectrum"].mode_matrix
    oracle = modules["specfun"].lambda_integral_oracle
    b, consts, rows = op["b"], summary["constants"], summary["rows"]
    ms = [m for m, _, _ in rows]
    failed = set()
    if consts.b != b or ms != list(range(ms[0], op["m_max"] + 1)):
        failed.update(ms)
    for m, om_minus, om_plus in rows:
        for omega in (om_minus, om_plus):
            mat = mode_matrix(m, b, omega, consts)
            if not abs(mat.det()) <= DET_TOL * mat.det_scale():
                failed.add(m)
    lambda_err, quad_s = 0.0, 0.0
    in_use = set(ms) | {1}  # Lambda_1 enters every row
    for n in op["lambda_modes"]:
        if n not in in_use or consts.lam(n) < LAMBDA_MIN:
            continue
        t0 = time.perf_counter()
        ref = oracle(n, b)
        quad_s += time.perf_counter() - t0
        err = abs(consts.lam(n) - ref) / abs(ref)
        lambda_err = max(lambda_err, err)
        if not err <= LAMBDA_TOL:
            failed.update(ms if n == 1 else [n])
    return len(rows), len(failed), lambda_err, quad_s


def _margin(report: dict) -> float:
    err, tol = report["max_error"], report["tolerance"]
    if tol > 0:
        return err / tol
    return 0.0 if err == 0 else math.inf


def gate_oracle(summary: dict | None, rc: int) -> tuple[int, int, float]:
    """Check reports attempted and failed, and max(max_error / tolerance)."""
    if summary is None or not summary["reports"]:
        return 1, 1, math.inf
    reports = summary["reports"]
    failed = sum(1 for r in reports if not (r["passed"] and r["max_error"] <= r["tolerance"]))
    if rc != 0:
        failed = max(failed, 1)
    return len(reports), failed, max(_margin(r) for r in reports)


# --- the pass ----------------------------------------------------------------


def _checkout_library(root: Path) -> dict:
    modules = library_modules()
    where = Path(modules["cli"].__file__).resolve()
    if (root.resolve() / "src") not in where.parents:
        raise SystemExit(f"sqg_vstates imported from {where}, not from {root / 'src'}")
    return modules


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def _clear(outdir: Path) -> None:
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)


def main(spec_path: str, t_spawn: float) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    root = Path(spec["root"])
    modules = _checkout_library(root)
    kind, ops, mode = spec["kind"], spec["ops"], spec["mode"]
    outdir = Path(spec["workdir"]) / "out"
    _clear(outdir)
    first = {"t": None}

    def first_call(span_name, fn):
        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            if first["t"] is None:
                first["t"] = time.perf_counter()
                hook.undo()
                if mode == "setup":
                    raise SetupDone
            return fn(*args, **kwargs)

        return hooked

    constants: list = []
    if kind == "diagram":
        # keep the constant tables each operation used, for the Lambda_n gate
        cls = modules["specfun"].AnnulusConstants
        build = cls.__dict__["build"].__func__

        def captured(owner, *args, **kwargs):
            table = build(owner, *args, **kwargs)
            constants.append(table)
            return table

        cls.build = classmethod(functools.wraps(build)(captured))

    tracer = None
    if mode == "trace":
        tracer = Tracer()
        trace_patch = Patch(modules, LAYERS, tracer.wrap)
    else:
        hook = Patch(modules, LAYERS[:-1], first_call)

    if mode == "setup":
        try:
            run_op(modules, ops[0], str(outdir))
        except SetupDone:
            pass
        result = {"setup_s": first["t"] - t_spawn if first["t"] is not None else None}
        Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
        return 0

    def check(rec: dict, op: dict, summary: dict | None) -> None:
        """Gate one operation's output, outside any span."""
        if kind == "branch":
            rec["attempted"], rec["failed"], rec["accuracy"] = gate_branch(summary, op, spec["gate"])
        elif kind == "diagram":
            rec["attempted"], rec["failed"], rec["accuracy"], rec["quadrature_s"] = \
                gate_diagram(summary, op, modules)
        else:
            rec["attempted"], rec["failed"], rec["accuracy"] = gate_oracle(summary, rec["rc"])

    records = []
    loop_start = time.perf_counter()
    cycles = 0
    while True:
        if len(records) == len(ops) * cycles:
            if cycles:
                elapsed = time.perf_counter() - loop_start
                if elapsed + elapsed / cycles > spec["seconds"]:
                    break
            cycles += 1
        op = ops[len(records) % len(ops)]
        _clear(outdir)
        del constants[:]
        error = None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            rc = run_op(modules, op, str(outdir))
        except Exception as exc:  # an operation that raises is a failed operation
            rc, error = None, f"{type(exc).__name__}: {exc}"
        latency, cpu = time.perf_counter() - t0, time.process_time() - c0
        if tracer is not None:
            trace_patch.undo()
        summary = None
        if rc is not None:
            try:
                summary = summarize(kind, outdir, constants)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        rec = {"rc": rc, "error": error, "latency_s": latency, "cpu_s": cpu,
               "bytes_out": sum(p.stat().st_size for p in outdir.iterdir())}
        check(rec, op, summary)
        records.append(rec)
        if tracer is not None:
            trace_patch.apply()
    result = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "setup_s": first["t"] - t_spawn if first["t"] is not None else None,
              "environment": _environment()}
    if tracer is not None:
        trace_patch.undo()
        result["spans"] = tracer.dump(Path(spec["workdir"]) / "spans.bin")
    result.update(records=records,
                  attempted=sum(r["attempted"] for r in records),
                  failed=sum(r["failed"] for r in records),
                  accuracy=max(r["accuracy"] for r in records),
                  quadrature_s=sum(r.get("quadrature_s", 0.0) for r in records))
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
