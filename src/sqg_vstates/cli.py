"""Command-line front end.

Subcommands::

    vstates spectrum  --b 0.5 [--m-min M] [--m-max M] [--out F] [--format csv|json]
    vstates threshold --b 0.5
    vstates branch    --b 0.6 --m 5 --sign plus [--steps N] [--ds H]
                      [--modes K] [--quad P] [--tol T] [--out F] [--boundaries]
    vstates check     [--seed S] [--out F] [--format text|json]
    vstates render    INPUT.json [--points last|all|none|i,j,...] [--out F]

Exit codes: 0 success, 2 usage error (including a file that cannot be
opened), 3 guard violation, 4 numerical failure.  A branch that stops
early still exits 0 and prints one ``stopped: <reason>`` line to stderr.
Output is deterministic: identical invocations produce byte-identical
files.  Each command builds one constants table, which reaches
N(b) + 20 with N(b) ~ 1.4226 / (1 - b): b = 0.9999 gives N = 14225 in
about 0.1 s in process.
It needs a recurrence of about 41.5 / (1 - b) steps, capped at ten
million, so from about b = 0.9999959 the command exits 4.  ``spectrum``
builds the table to its last row and computes the rows as columns over
the whole mode range, then writes them with one format string per row.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from .contour import BranchRun, boundary_samples, branch_continue
from .errors import (
    BoundaryCollision,
    NoConvergence,
    NotAnEigenvalue,
    NotSimple,
    PreconditionError,
    SingularJacobian,
)
from .specfun import AnnulusConstants
from .spectrum import discriminant, spectrum_columns, threshold_N

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_NUMERIC = 4

_GUARD_ERRORS = (PreconditionError, NotSimple, NotAnEigenvalue)
_NUMERIC_ERRORS = (NoConvergence, SingularJacobian, BoundaryCollision)


def _fmt17(x: float) -> str:
    return f"{x:.17g}"


# The cells of one boundary CSV row after its formatted theta; "%.17g"
# formats a float exactly as _fmt17 does.
_BOUNDARY_CELLS = ",%.17g,%.17g,%.17g,%.17g\n"


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


_SPECTRUM_KEYS = ("m", "C_m", "D_m", "Delta_m", "lambda_minus", "lambda_plus",
                  "omega_minus", "omega_plus", "transversal")
# One spectrum CSV row; "%.17g" formats a float exactly as _fmt17 does.
_SPECTRUM_ROW = "%d," + "%.17g," * 7 + "%s\n"


def cmd_spectrum(args: argparse.Namespace) -> int:
    # the table reaches the last row: --m-max, --m-min + 20, or N(b) + 20,
    # which build() reaches from any floor; spectrum_columns refuses an empty range
    last = args.m_max if args.m_max is not None else (
        args.m_min + 20 if args.m_min is not None else 1)
    consts = AnnulusConstants.build(args.b, max(last, 1))
    n_thr = threshold_N(args.b, consts)
    m_min = args.m_min if args.m_min is not None else n_thr
    m_max = args.m_max if args.m_max is not None else m_min + 20
    if m_min < n_thr:
        raise PreconditionError(f"m-min={m_min} is below threshold N({args.b}) = {n_thr}")
    cols = spectrum_columns(m_min, m_max, args.b, consts)
    # the transversality column: the eigenvalue pair is simple
    transversal = (cols.delta_m > 1e-12).tolist()
    values = [cols.m.tolist()] + [
        column.tolist()
        for column in (cols.c_m, cols.d_m, cols.delta_m, cols.lambda_minus,
                       cols.lambda_plus, cols.omega_minus, cols.omega_plus)
    ]
    if args.fmt == "json":
        payload = [dict(zip(_SPECTRUM_KEYS, row)) for row in zip(*values, transversal)]
        _write_text(args.out, json.dumps(payload, indent=2))
    else:
        flags = ["true" if t else "false" for t in transversal]
        rows = "".join(_SPECTRUM_ROW % row for row in zip(*values, flags))
        _write_text(args.out, ",".join(_SPECTRUM_KEYS) + "\n" + rows)
    return EXIT_OK


def cmd_threshold(args: argparse.Namespace) -> int:
    # the table reaches N, so E[N-1] and E[N] are lookups
    consts = AnnulusConstants.build(args.b)
    n_thr = threshold_N(args.b, consts)
    _, e_prev, _ = discriminant(n_thr - 1, args.b, consts)
    _, e_at, _ = discriminant(n_thr, args.b, consts)
    print(f"b={_fmt17(args.b)} N={n_thr} E[N-1]={_fmt17(e_prev)} E[N]={_fmt17(e_at)}")
    return EXIT_OK


def cmd_branch(args: argparse.Namespace) -> int:
    # the JSON's directory, also the CSVs', must exist before the branch is traced
    if args.out is not None and not os.path.isdir(os.path.dirname(args.out) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out)
    run = branch_continue(
        args.m, args.b, args.sign, args.steps, args.ds,
        K=args.modes, P=args.quad, newton_tol=args.tol,
    )
    _write_text(args.out, json.dumps(run.to_dict(), indent=2))
    if run.stopped_reason is not None:
        print(f"stopped: {run.stopped_reason}", file=sys.stderr)
    if args.boundaries:
        stem = os.path.splitext(args.out)[0] if args.out else "branch"
        samples = [boundary_samples(pt.patch) for pt in run.points]
        # every point is sampled at the same angles: format them once, into
        # a template that takes a whole file's cells in one %
        template = "theta,x1,y1,x2,y2\n" + "".join(
            "%.17g" % t + _BOUNDARY_CELLS for t in samples[0][:, 0].tolist())
        for i, sample in enumerate(samples):
            with open(f"{stem}.boundaries.{i:03d}.csv", "w", encoding="utf-8") as fh:
                fh.write(template % tuple(sample[:, 1:].ravel().tolist()))
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    from . import verify

    seed = verify.DEFAULT_SEED if args.seed is None else args.seed
    reports = verify.run_default_suite(seed=seed)
    if args.fmt == "json":
        _write_text(args.out, json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        _write_text(args.out, verify.format_report_table(reports) + "\n")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_NUMERIC


# --- render -----------------------------------------------------------------

def _select_points(spec: str, count: int) -> list[int]:
    if spec == "none":
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


def _render_svg(run: BranchRun, point_indices: list[int]) -> str:
    b = run.points[0].patch.b
    parts = []
    xmax = 1.0
    for i in point_indices:
        samples = boundary_samples(run.points[i].patch)
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
    run = BranchRun.from_dict(data)
    _write_text(args.out, _render_svg(run, _select_points(args.points, len(run.points))))
    return EXIT_OK


# --- argument parsing ---------------------------------------------------------


def _add_b(p: argparse.ArgumentParser) -> None:
    p.add_argument("--b", type=float, required=True, help="inner radius, 0 < b < 1")


@functools.lru_cache(maxsize=1)
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
    p_chk.add_argument("--seed", type=int, default=None, help="default: the suite's seed")
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
    if getattr(args, "seed", None) is not None and args.seed < 0:
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
