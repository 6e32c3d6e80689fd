"""Self-test of the benchmark harness at tiny sizes (about half a minute).

    python3 benchmarks/selftest.py

1. Runs every workload with ``--size tiny`` (one continuation step at
   P = 320, two radii, one check group), traced and untraced, and checks
   that the last line names exactly the metrics of ``BENCHMARK.json``.
2. Corrupts one output of each workload and checks that its gate counts
   a failure, after checking that the uncorrupted output passes.
3. Runs the harness in a directory without the library and checks that
   it exits non-zero without printing a result.

Exits 0 when every check holds; prints each failure otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import run  # noqa: E402

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def last_line(argv: list[str], cwd: Path) -> tuple[int, str]:
    proc = subprocess.run([sys.executable] + argv, cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def check_metric_names(spec: dict) -> None:
    for kind in run.WORKLOADS:
        for trace, table in ((0, "end_to_end"), (1, "per_layer")):
            rc, line = last_line([str(BENCH / "run.py"), "--workload", kind, "--seed", "5",
                                  "--seconds", "1", "--trace", str(trace), "--size", "tiny"], ROOT)
            result = json.loads(line)
            want = {m["name"]: m["unit"] for m in spec[table]}
            got = {name: v["unit"] for name, v in result["metrics"].items()}
            finite = all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                         for v in result["metrics"].values())
            expect(rc == 0 and set(result) == {"correct", "attempted", "failed", "metrics"}
                   and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{kind} trace={trace}: exit 0, correct, nothing failed")
            expect(got == want and finite, f"{kind} trace={trace}: every {table} metric, "
                                           "with its unit and a finite value")


def gate(kind: str, op: dict, workload: dict, outdir: Path, modules: dict, constants: list,
         rc: int = 0) -> int:
    summary = child.summarize(kind, outdir, constants)
    if kind == "branch":
        return child.gate_branch(summary, op, workload["gate"])[1]
    if kind == "diagram":
        return child.gate_diagram(summary, op, modules)[1]
    return child.gate_oracle(summary, rc)[1]


def rewrite(path: Path, edit) -> None:
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")


def corrupt_branch(outdir: Path) -> None:
    def bump_last_omega(text: str) -> str:
        data = json.loads(text)
        data["points"][-1]["omega"] += 1e-3
        return json.dumps(data)

    rewrite(outdir / "branch.json", bump_last_omega)


def corrupt_diagram(outdir: Path) -> None:
    def bump_one_omega(text: str) -> str:
        lines = text.splitlines()
        fields = lines[5].split(",")
        fields[7] = repr(float(fields[7]) * (1.0 + 1e-6))  # omega_plus
        lines[5] = ",".join(fields)
        return "\n".join(lines) + "\n"

    rewrite(outdir / "spectrum.csv", bump_one_omega)


def corrupt_oracle(outdir: Path) -> None:
    def exceed_tolerance(text: str) -> str:
        reports = json.loads(text)
        reports[0]["max_error"] = 2.0 * reports[0]["tolerance"] + 1.0
        return json.dumps(reports)

    rewrite(outdir / "check.json", exceed_tolerance)


def check_gates() -> None:
    modules = child.library_modules()
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        for kind, corrupt in (("branch", corrupt_branch), ("diagram", corrupt_diagram),
                              ("oracle", corrupt_oracle)):
            workload = run.INPUTS[kind](5, "tiny")
            op = workload["ops"][0]
            outdir = work / kind
            outdir.mkdir()
            rc = child.run_op(modules, op, str(outdir))
            constants = []
            if kind == "diagram":
                constants = [modules["specfun"].AnnulusConstants.build(op["b"], n_max=op["m_max"] + 1)]
            expect(gate(kind, op, workload, outdir, modules, constants, rc) == 0,
                   f"{kind}: gate passes the program's own output")
            corrupt(outdir)
            expect(gate(kind, op, workload, outdir, modules, constants, rc) > 0,
                   f"{kind}: gate fails a corrupted output")
        check_lambda_gate(modules, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_lambda_gate(modules: dict, work: Path) -> None:
    """Constant tables whose Lambda_n disagree with the quadrature oracle."""
    workload = run.INPUTS["diagram"](5, "tiny")
    op = workload["ops"][0]
    outdir = work / "lambda"
    outdir.mkdir()
    child.run_op(modules, op, str(outdir))
    tables = modules["specfun"].AnnulusConstants
    good = tables.build(op["b"], n_max=op["m_max"] + 1)
    lam = good.lambda_table * (1.0 + 1e-6)
    bad = tables(b=good.b, n_max=good.n_max, s_table=good.s_table, lambda_table=lam)
    _, failed, lambda_err, _ = child.gate_diagram(child.summarize("diagram", outdir, [bad]), op, modules)
    expect(failed > 0 and lambda_err > child.LAMBDA_TOL,
           "diagram: gate fails Lambda_n tables that disagree with the oracle")


def check_no_library() -> None:
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        rc, line = last_line([str(bare / BENCH.name / "run.py"), "--workload", "branch",
                              "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
        expect(rc != 0 and not line.startswith("{"),
               "without the library: non-zero exit and no result line")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_metric_names(spec)
    check_gates()
    check_no_library()
    try:
        (ROOT / ".bench_tmp").rmdir()
    except OSError:
        pass
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
