"""Command-line front end.

Subcommands::

    vstates spectrum  --b 0.5 [--m-min M] [--m-max M] [--out F] [--format csv|json]
    vstates threshold --b 0.5
    vstates branch    --b 0.6 --m 5 --sign plus [--steps N] [--ds H]
                      [--modes K] [--quad P] [--tol T] [--out F] [--boundaries]
    vstates check     [--seed S] [--out F] [--format text|json]
    vstates render    INPUT.json [--points last|all|none|i,j,...] [--out F]

Exit codes: 0 success, 2 usage error (including a file that cannot be
opened, or an ``--out`` that is empty, a directory or in a missing
directory, refused before the command runs), 3 guard violation, 4
numerical failure.  A branch that stops early still exits 0 and prints
one ``stopped: <reason>`` line to stderr.  One writer, :func:`_write`,
adds nothing to any output, so ``--out`` and standard output get the
same bytes: ASCII lines that end in LF, the last one included.  Output
is deterministic: identical invocations at a fixed BLAS thread count
produce byte-identical files (README, "Threads").  Each command
builds one constants table, which reaches N(b) + 20 with
N(b) ~ 1.4226 / (1 - b): b = 0.9999 gives N = 14225 in about 0.1 s in
process.
It needs a recurrence of about 41.5 / (1 - b) steps, capped at ten
million, so from about b = 0.9999959 the command exits 4.  ``spectrum``
builds the table to its last row and computes the rows as columns over
the whole mode range.  Its CSV table and branch's boundary files come
from one writer, :func:`_csv`, which writes every numeric cell as
``'%.17g' % float(value)`` byte for byte, in numpy for fixed notation
(1e-4 <= |value| < 1e17; :func:`_cells17`), so the ``m`` column, at
most 10^7, reads as ``'%d' % m``.
"""

from __future__ import annotations

import argparse
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


# --- CSV output -------------------------------------------------------------
#
# '%.17g' of a double x != 0 is N = round(|x| 10^(16 - E)), its 17
# significant digits (10^16 <= N < 10^17) with E = floor(log10 |x|), in
# fixed notation for -4 <= E <= 16 and else as d.dddde+XX, with trailing
# zeros and a bare point stripped.  _cells17 lays out the fixed-notation
# cells, the ones the CSVs hold, as NUL-padded byte columns: there
# 10^(16 - E) is 10^0..10^20, an exact double, so N comes from an exact
# Dekker product.

_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter
# cells per numpy pass: the temporaries stay near 0.6 MB, and a larger
# block runs no faster
_BLOCK = 4096
# bytes per cell: the sign, "0.000" for E < 0, 17 digits and the point
_CELL = 24
_ZERO, _DOT = np.uint8(ord("0")), np.uint8(ord("."))


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's halves of ``v``: hi + lo = v, each of 26 bits or fewer."""
    c = v * _SPLIT
    hi = c - (c - v)
    return hi, v - hi


def _digit_table() -> np.ndarray:
    """The four ASCII digits of 0..9999 as one uint32 each, then the same
    with trailing zeros as NUL bytes (0 as four NULs)."""
    table = np.empty((2, 10000, 4), np.uint8)
    kept = np.zeros(10000, bool)
    for k in (3, 2, 1, 0):
        # digit k of 0..9999, kept while a nonzero digit is at or after it
        text = np.tile(np.repeat(np.arange(10, dtype=np.uint8) + _ZERO, 10**(3 - k)), 10**k)
        kept |= text != _ZERO
        table[0, :, k] = text
        table[1, :, k] = text * kept
    return table.view(np.uint32).ravel()


# 10^(16 - E) for E = -4..16 from Python integers, and its Dekker halves
_POWERS = np.array([float(10**k) for k in range(20, -1, -1)])
_POWER_HALVES = _split(_POWERS)
_DIGITS = _digit_table()
_SMALL_ZEROS = np.array([-2, -3, -4])[:, None]  # "0.0", "0.00", "0.000"


def _cells17(x: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` for every v of the float64 vector ``x``, as a
    (_CELL, x.size) uint8 array whose column j, its NUL bytes dropped, is
    the cell of x[j].  Rows: 0 the sign, 1-5 "0.000" for -4 <= E < 0,
    6-23 the digits with the point.  numpy forms the fixed-notation cells
    (an integer below 2^53 in magnitude reads as ``'%d' % v``); a cell is
    ``_fmt17(v)``, the definition itself, when v is zero, not finite or in
    scientific notation, or where log10 misjudges E.  The cells are formed
    _BLOCK at a time, which bounds the temporaries."""
    out = np.empty((_CELL, x.size), np.uint8)
    for lo in range(0, x.size, _BLOCK):
        out[:, lo:lo + _BLOCK] = _cell_block(x[lo:lo + _BLOCK])
    return out


def _cell_block(x: np.ndarray) -> np.ndarray:
    """:func:`_cells17` of one block."""
    n = x.size
    a = np.abs(x)
    with np.errstate(divide="ignore"):  # log10(0) = -inf is not fixed notation
        e = np.floor(np.log10(a))
    fast = (e >= -4) & (e <= 16)
    a[~fast] = 1.0
    e[~fast] = 0.0
    E = e.astype(np.int64)
    # y = a 10^(16 - E) = ph + t exactly, ph = fl(y) and t its rounding
    # error (Dekker's product); ph >= 10^16 > 2^53 is even, so rounding t
    # half to even rounds y half to even, as '%.17g' does
    hh, hl = (col.take(E + 4) for col in _POWER_HALVES)
    ph = a * _POWERS.take(E + 4)
    ah, al = _split(a)
    t = ((ah * hh - ph) + ah * hl + al * hh) + al * hl
    r = np.rint(t)
    N = ph.astype(np.int64) + r.astype(np.int64)
    # 10^16 <= y < 10^17 - 1/2: E is the exponent and N has 17 digits
    fast &= ((N > 10**16) | ((N == 10**16) & (t >= r))) & (N < 10**17)
    # N = d0 c0 c1 c2 c3 with four-digit chunks c; a chunk followed only by
    # zero chunks takes the table half without trailing zeros
    h, low = N // 10**8, N % 10**8
    chunks = np.empty((4, n), np.int32)
    chunks[2], chunks[3] = low // 10**4, low % 10**4
    chunks[0], chunks[1] = h // 10**4 % 10**4, h % 10**4
    tail = np.ones(n, bool)
    for k in (3, 2, 1, 0):
        zero = chunks[k] == 0
        chunks[k] += tail * 10000
        tail &= zero
    out = np.zeros((_CELL, n), np.uint8)
    out[0] = (x < 0) * np.uint8(ord("-"))
    # d.dddd: d0, the point if a digit follows, then the 16 chunk digits
    out[6] = h // 10**8 + _ZERO
    out[8:24].reshape(4, 4, n)[...] = (
        _DIGITS.take(chunks).view(np.uint8).reshape(4, n, 4).transpose(0, 2, 1))
    # 0.000ddd for E < 0: the point sits in the prefix
    small = E < 0
    out[1] = small * _ZERO
    out[2] = small * _DOT
    out[3:6] = ((_SMALL_ZEROS >= E) & small) * _ZERO
    out[7] = ((out[8] != 0) & ~small) * _DOT
    # dd.ddd for E > 0: the point moves E digits right, the integer part
    # keeps its zeros; E is 1..16 here, grouped by bincount, not by
    # np.unique, whose first call imports numpy.ma
    wide = np.flatnonzero(E > 0)
    for p in np.flatnonzero(np.bincount(E[wide])).tolist():
        i = wide[E[wide] == p]
        out[7:7 + p, i] = out[8:8 + p, i] | _ZERO
        out[7 + p, i] = (out[8 + p, i] != 0) * _DOT if p < 16 else 0
    slow = np.flatnonzero(~fast)
    if slow.size:
        # at most 24 bytes: the sign, 17 digits, the point and "e-308"
        text = [_fmt17(v) for v in x[slow].tolist()]
        out[:, slow] = np.array(text, dtype=f"S{_CELL}").view(np.uint8).reshape(-1, _CELL).T
    return out


def _csv(header: str, columns: list[np.ndarray], tables: int = 1) -> list[bytes]:
    """The CSV bytes of ``tables`` tables of equally many rows: each is
    ``header`` and its share of the rows of ``columns``, in order.  A
    column holds the rows of all tables, or of one table, whose cells then
    repeat in every table.  A numeric column's cells are
    ``'%.17g' % float(v)`` (all from one :func:`_cells17` pass): fixed
    notation for 1e-4 <= |v| < 1e17, else scientific, and ``'%d' % v`` for
    an integer below 2^53 in magnitude (``spectrum``'s ``m`` stays at or
    below 10^7).  A bytes column's cells are its bytes.  The cells go into
    one byte array, row by row, and each table drops its NUL padding in
    one pass."""
    head = header.encode("ascii") + b"\n"
    return [head + t.tobytes().translate(None, b"\0") for t in _csv_rows(columns, tables)]


def _csv_rows(columns: list[np.ndarray], tables: int) -> np.ndarray:
    """The NUL-padded CSV lines of ``columns`` as a (tables, rows, bytes)
    array; built apart from :func:`_csv`, so the cell arrays are freed
    before the text is."""
    rows = max(len(c) for c in columns) // tables
    numbers = [c for c in columns if c.dtype.kind in "iuf"]
    cells = _cells17(np.concatenate(numbers, dtype=np.float64)).T
    blocks, at = [], 0
    for c in columns:
        if c.dtype.kind in "iuf":
            blocks.append(cells[at:at + len(c)])
            at += len(c)
        else:
            blocks.append(c.astype("S").view(np.uint8).reshape(len(c), -1))
    out = np.empty((tables, rows, sum(b.shape[1] + 1 for b in blocks)), np.uint8)
    col = 0
    for block in blocks:
        width = block.shape[1]
        # a one-table column broadcasts over the tables
        out[:, :, col:col + width] = block.reshape(-1, rows, width)
        out[:, :, col + width] = ord(",")
        col += width + 1
    out[:, :, -1] = ord("\n")
    return out


def _write(path: Optional[str], data: bytes) -> None:
    """Command output ``data``, ASCII lines, as it is to the file ``path``,
    or as text to standard output, which may be a text-only stream."""
    if path is None:
        sys.stdout.write(data.decode("ascii"))
    else:
        with open(path, "wb") as fh:
            fh.write(data)


_SPECTRUM_KEYS = ("m", "C_m", "D_m", "Delta_m", "lambda_minus", "lambda_plus",
                  "omega_minus", "omega_plus", "transversal")


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
    columns = [cols.m, cols.c_m, cols.d_m, cols.delta_m, cols.lambda_minus,
               cols.lambda_plus, cols.omega_minus, cols.omega_plus]
    # the transversality column: the eigenvalue pair is simple
    transversal = cols.delta_m > 1e-12
    if args.fmt == "json":
        values = [c.tolist() for c in columns] + [transversal.tolist()]
        payload = [dict(zip(_SPECTRUM_KEYS, row)) for row in zip(*values)]
        _write(args.out, (json.dumps(payload, indent=2) + "\n").encode("ascii"))
    else:
        flags = np.where(transversal, b"true", b"false")
        table, = _csv(",".join(_SPECTRUM_KEYS), columns + [flags])
        _write(args.out, table)
    return EXIT_OK


def cmd_threshold(args: argparse.Namespace) -> int:
    # the table reaches N, so E[N-1] and E[N] are lookups
    consts = AnnulusConstants.build(args.b)
    n_thr = threshold_N(args.b, consts)
    _, e_prev, _ = discriminant(n_thr - 1, args.b, consts)
    _, e_at, _ = discriminant(n_thr, args.b, consts)
    line = f"b={_fmt17(args.b)} N={n_thr} E[N-1]={_fmt17(e_prev)} E[N]={_fmt17(e_at)}\n"
    _write(None, line.encode("ascii"))
    return EXIT_OK


def cmd_branch(args: argparse.Namespace) -> int:
    run = branch_continue(
        args.m, args.b, args.sign, args.steps, args.ds,
        K=args.modes, P=args.quad, newton_tol=args.tol,
    )
    _write(args.out, (json.dumps(run.to_dict(), indent=2) + "\n").encode("ascii"))
    if run.stopped_reason is not None:
        print(f"stopped: {run.stopped_reason}", file=sys.stderr)
    if args.boundaries:
        stem = os.path.splitext(args.out)[0] if args.out else "branch"
        # every point's samples in one writer pass, one table per point;
        # the angles depend on the sample count alone, so they are formatted once
        samples = [boundary_samples(pt.patch) for pt in run.points]
        curves = np.concatenate([s[:, 1:] for s in samples])
        tables = _csv("theta,x1,y1,x2,y2", [samples[0][:, 0], *curves.T], tables=len(samples))
        for i, table in enumerate(tables):
            _write(f"{stem}.boundaries.{i:03d}.csv", table)
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    from . import verify

    seed = verify.DEFAULT_SEED if args.seed is None else args.seed
    reports = verify.run_default_suite(seed=seed)
    if args.fmt == "json":
        payload = [r.to_dict() for r in reports]
        _write(args.out, (json.dumps(payload, indent=2) + "\n").encode("ascii"))
    else:
        _write(args.out, (verify.format_report_table(reports) + "\n").encode("ascii"))
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
    svg = _render_svg(run, _select_points(args.points, len(run.points)))
    _write(args.out, svg.encode("ascii"))
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
                      help="quadrature size P > 0, rounded up to a multiple of 4*K*m "
                           "(default: 4*K*m); collocation is on the 4*K*m sub-grid")
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
        # an --out that open() refuses (empty, a directory, or in a missing
        # directory, also that of branch's CSVs) fails before any work, with
        # open()'s own error: the writer raises it and creates nothing
        out = getattr(args, "out", None)
        if out is not None and (os.path.isdir(out or ".")
                                or not os.path.isdir(os.path.dirname(out) or ".")):
            _write(out, b"")
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
