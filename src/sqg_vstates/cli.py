"""Command-line front end.

Subcommands::

    vstates spectrum  --b 0.5 [--m-min M] [--m-max M] [--out F] [--format csv|json]
    vstates threshold --b 0.5
    vstates branch    --b 0.6 --m 5 --sign plus [--steps N] [--ds H]
                      [--modes K] [--quad P] [--tol T] [--out F] [--boundaries]
    vstates check     [--seed S] [--out F] [--format text|json]
    vstates render    INPUT.json [--points last|all|none|i,j,...] [--out F]

Exit codes: 0 success, 2 usage error (including a file that cannot be
opened), 3 guard violation, 4 numerical failure.  Output is deterministic: identical invocations produce
byte-identical files.  No table size caps the threshold N(b), but thin
annuli are slow or out of reach: b = 0.9997 gives N = 4742 in about a
minute, and from about b = 0.9999 ``gauss_2f1`` runs out of terms (exit 4).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from .contour import BranchRun, PatchPair, boundary_samples, branch_continue
from .errors import (
    BoundaryCollision,
    NoConvergence,
    NotAnEigenvalue,
    NotSimple,
    PreconditionError,
    SingularJacobian,
)
from .specfun import AnnulusConstants
from .spectrum import SpectrumRow, bifurcation_row, discriminant, threshold_N
from .verify import DEFAULT_SEED, format_report_table, run_default_suite

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_NUMERIC = 4

_GUARD_ERRORS = (PreconditionError, NotSimple, NotAnEigenvalue)
_NUMERIC_ERRORS = (NoConvergence, SingularJacobian, BoundaryCollision)


def _fmt17(x: float) -> str:
    return f"{x:.17g}"


# One boundary CSV row; "%.17g" formats a float exactly as _fmt17 does.
_BOUNDARY_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g\n"


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _transversal(row: SpectrumRow) -> bool:
    """The transversality column: the eigenvalue pair is simple."""
    return row.delta_m > 1e-12


def cmd_spectrum(args: argparse.Namespace) -> int:
    consts = AnnulusConstants.build(args.b, n_max=max(200, (args.m_max or 0) + 1))
    n_thr = threshold_N(args.b, consts)
    m_min = args.m_min if args.m_min is not None else n_thr
    m_max = args.m_max if args.m_max is not None else m_min + 20
    if m_min < n_thr:
        raise PreconditionError(f"m-min={m_min} is below threshold N({args.b}) = {n_thr}")
    if m_max < m_min:
        raise PreconditionError(f"m-max={m_max} < m-min={m_min}")
    rows = [bifurcation_row(m, args.b, consts) for m in range(m_min, m_max + 1)]
    if args.fmt == "json":
        payload = [
            {
                "m": r.m,
                "C_m": r.c_m,
                "D_m": r.d_m,
                "Delta_m": r.delta_m,
                "lambda_minus": r.lambda_minus,
                "lambda_plus": r.lambda_plus,
                "omega_minus": r.omega_minus,
                "omega_plus": r.omega_plus,
                "transversal": _transversal(r),
            }
            for r in rows
        ]
        _write_text(args.out, json.dumps(payload, indent=2))
    else:
        lines = ["m,C_m,D_m,Delta_m,lambda_minus,lambda_plus,omega_minus,omega_plus,transversal"]
        for r in rows:
            lines.append(
                ",".join(
                    [str(r.m)]
                    + [_fmt17(v) for v in (r.c_m, r.d_m, r.delta_m, r.lambda_minus,
                                           r.lambda_plus, r.omega_minus, r.omega_plus)]
                    + ["true" if _transversal(r) else "false"]
                )
            )
        _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_threshold(args: argparse.Namespace) -> int:
    consts = AnnulusConstants.build(args.b)
    n_thr = threshold_N(args.b, consts)
    _, e_prev, _ = discriminant(n_thr - 1, args.b, consts)
    _, e_at, _ = discriminant(n_thr, args.b, consts)
    print(f"b={_fmt17(args.b)} N={n_thr} E[N-1]={_fmt17(e_prev)} E[N]={_fmt17(e_at)}")
    return EXIT_OK


def _branch_payload(run: BranchRun, sign: str) -> dict:
    """The branch JSON object that ``vstates render`` reads back."""
    start = run.points[0].patch
    return {
        "b": start.b,
        "m": start.m,
        "K": start.K,
        "P": run.P,
        "sign": sign,
        "stopped_reason": run.stopped_reason,
        "points": [
            {
                "s": pt.s,
                "omega": pt.patch.omega,
                "a": list(pt.patch.a),
                "c": list(pt.patch.c),
                "residual_norm": pt.residual_norm,
            }
            for pt in run.points
        ],
    }


def cmd_branch(args: argparse.Namespace) -> int:
    run = branch_continue(
        args.m, args.b, args.sign, args.steps, args.ds,
        K=args.modes, P=args.quad, newton_tol=args.tol,
    )
    _write_text(args.out, json.dumps(_branch_payload(run, args.sign), indent=2))
    if args.boundaries:
        stem = os.path.splitext(args.out)[0] if args.out else "branch"
        for pt in run.points:
            rows = boundary_samples(pt.patch).tolist()
            with open(f"{stem}.boundaries.{pt.step_index:03d}.csv", "w", encoding="utf-8") as fh:
                fh.write("theta,x1,y1,x2,y2\n")
                fh.writelines(_BOUNDARY_ROW % tuple(row) for row in rows)
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    reports = run_default_suite(seed=args.seed)
    if args.fmt == "json":
        _write_text(args.out, json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        _write_text(args.out, format_report_table(reports) + "\n")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_NUMERIC


# --- render -----------------------------------------------------------------

_SCHEMA = {
    "b": float,
    "m": int,
    "K": int,
    "P": int,
    "sign": str,
    "points": list,
}
_POINT_SCHEMA = {
    "s": float,
    "omega": float,
    "a": list,
    "c": list,
    "residual_norm": float,
}


def _validate_branch_json(data: dict) -> None:
    def fail(path: str, why: str) -> None:
        raise PreconditionError(f"branch JSON schema violation at {path}: {why}")

    def check(value, typ: type, path: str) -> None:
        # a JSON integer is a valid float; a JSON boolean is neither
        accepted = (int, float) if typ is float else typ
        if isinstance(value, bool) or not isinstance(value, accepted):
            fail(path, f"expected {typ.__name__}")

    def check_object(obj, schema: dict, path: str, prefix: str) -> None:
        if not isinstance(obj, dict):
            fail(path, "expected an object")
        for key, typ in schema.items():
            if key not in obj:
                fail(prefix + key, "missing")
            check(obj[key], typ, prefix + key)

    check_object(data, _SCHEMA, "$", "")
    for i, pt in enumerate(data["points"]):
        check_object(pt, _POINT_SCHEMA, f"points[{i}]", f"points[{i}].")
        for key in ("a", "c"):
            for k, coeff in enumerate(pt[key]):
                check(coeff, float, f"points[{i}].{key}[{k}]")


def _select_points(spec: str, count: int) -> list[int]:
    if spec == "none" or count == 0:
        return []
    if spec == "all":
        return list(range(count))
    if spec == "last":
        return [count - 1]
    try:
        idx = [int(tok) for tok in spec.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise PreconditionError(f"cannot parse --points {spec!r}") from exc
    for i in idx:
        if not 0 <= i < count:
            raise PreconditionError(f"--points index {i} out of range 0..{count - 1}")
    return idx


def _svg_polygon(xy: np.ndarray, stroke: str) -> str:
    pts = " ".join(f"{x:.6f},{-y:.6f}" for x, y in xy)
    return f'<polygon points="{pts}" fill="none" stroke="{stroke}" stroke-width="0.004"/>'


def _render_svg(data: dict, point_indices: list[int]) -> str:
    b = float(data["b"])
    m = int(data["m"])
    big_k = int(data["K"])
    parts = []
    xmax = 1.0
    for i in point_indices:
        pt = data["points"][i]
        patch = PatchPair(
            b=b, m=m, K=big_k,
            a=np.asarray(pt["a"], dtype=float),
            c=np.asarray(pt["c"], dtype=float),
            omega=float(pt["omega"]),
        )
        samples = boundary_samples(patch)
        outer = samples[:, 1:3]
        inner = samples[:, 3:5]
        xmax = max(xmax, float(np.abs(outer).max()), float(np.abs(inner).max()))
        parts.append(_svg_polygon(outer, "#1f77b4"))
        parts.append(_svg_polygon(inner, "#d62728"))
    half = 1.05 * xmax  # 5% margin
    dashes = (
        f'<circle cx="0" cy="0" r="1" fill="none" stroke="#999999" '
        f'stroke-width="0.003" stroke-dasharray="0.04,0.04"/>'
        f'<circle cx="0" cy="0" r="{b:.6f}" fill="none" stroke="#999999" '
        f'stroke-width="0.003" stroke-dasharray="0.04,0.04"/>'
    )
    body = dashes + "".join(parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
        f'viewBox="{-half:.6f} {-half:.6f} {2 * half:.6f} {2 * half:.6f}">{body}</svg>\n'
    )


def cmd_render(args: argparse.Namespace) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # malformed JSON or undecodable bytes
            raise PreconditionError(f"{args.input} is not valid JSON: {exc}") from exc
    _validate_branch_json(data)
    indices = _select_points(args.points, len(data["points"]))
    svg = _render_svg(data, indices)
    _write_text(args.out, svg)
    return EXIT_OK


# --- argument parsing ---------------------------------------------------------


def _add_b(p: argparse.ArgumentParser) -> None:
    p.add_argument("--b", type=float, required=True, help="inner radius, 0 < b < 1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vstates",
        description="Bifurcation diagram and branches of doubly connected rotating patches",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="per-mode bifurcation table")
    _add_b(p_spec)
    p_spec.add_argument("--m-min", type=int, default=None,
                        help="first mode, at least N(b) (default: N(b))")
    p_spec.add_argument("--m-max", type=int, default=None,
                        help="last mode (default: m-min + 20)")
    p_spec.add_argument("--out", default=None)
    p_spec.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")

    p_thr = sub.add_parser("threshold", help="smallest admissible fold symmetry")
    _add_b(p_thr)

    p_br = sub.add_parser("branch", help="trace a bifurcation branch")
    _add_b(p_br)
    p_br.add_argument("--m", type=int, required=True, help="fold symmetry")
    p_br.add_argument("--sign", choices=("plus", "minus"), default="plus")
    p_br.add_argument("--steps", type=int, default=10)
    p_br.add_argument("--ds", type=float, default=1e-3)
    p_br.add_argument("--modes", type=int, default=32, help="retained modes K")
    p_br.add_argument("--quad", type=int, default=None,
                      help="collocation/quadrature size P > 0, rounded up to a multiple of "
                           "4*K*m (default: 4*K*m)")
    p_br.add_argument("--tol", type=float, default=1e-10)
    p_br.add_argument("--out", default=None)
    p_br.add_argument("--boundaries", action="store_true",
                      help="also write sampled boundary CSV per point")

    p_chk = sub.add_parser("check", help="run the oracle verification suite")
    p_chk.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_chk.add_argument("--out", default=None)
    p_chk.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")

    p_ren = sub.add_parser("render", help="render branch boundaries as SVG")
    p_ren.add_argument("input", help="branch JSON file")
    p_ren.add_argument("--points", default="last",
                       help="'last', 'all', 'none', or comma-separated indices")
    p_ren.add_argument("--out", default=None)

    return parser


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "threshold": cmd_threshold,
    "branch": cmd_branch,
    "check": cmd_check,
    "render": cmd_render,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "b") and not (math.isfinite(args.b) and 0.0 < args.b < 1.0):
        parser.error(f"--b must lie strictly between 0 and 1, got {args.b}")
    if hasattr(args, "seed") and args.seed < 0:
        parser.error(f"--seed must be a non-negative integer, got {args.seed}")
    try:
        return _COMMANDS[args.command](args)
    except _GUARD_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except _NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:  # missing, unreadable or unwritable file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
