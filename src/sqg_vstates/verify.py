"""One-command oracle suite: every closed-form identity used by the
library is bound to an independent numerical check.

The checks fall into four groups:

* ``check_c1_c2`` -- the self-interaction circle moments (c1), (c2):
  Gauss-Legendre quadrature (Golub-Welsch nodes) of the corner-type
  integrands, in the angle from the evaluation point, against their
  odd-harmonic closed forms.
* ``check_c3_c8`` -- the cross-circle kernel moments (c3)..(c8): per
  radius b, a trapezoid on 2 (n_max + 2) + ceil(40 / |ln b|) nodes of the
  smooth periodic integrands against their hypergeometric closed forms.
  (c4) and (c5) carry the conjugate symmetry of (c3) and (c6): the same
  real factor attached to the conjugate power of the evaluation point.
* ``check_spectral`` -- algebraic structure of the mode matrices:
  determinant quadratic, reduced-discriminant identity, eigenvalue
  monotonicity and interleaving, kernel residuals, and agreement of the
  two threshold definitions.
* ``check_linearization`` -- finite differences of the discretized
  residual at the annulus against the analytic frequency blocks.

Each check emits :class:`CheckReport` rows aggregated by name; tolerances
live in one table (``TOLERANCES``).  The moment quadratures get 1e-7
(both rules reach about 1e-14), algebraic identities 1e-10 to 1e-12.
Random sample points derive from one seed, so the suite is deterministic:
each check draws its points from its own standard-library
``random.Random(seed)`` stream, in its documented loop order, and the
moment checks evaluate every case in one array expression.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, asdict

import numpy as np

from .contour import MAX_KP, PatchPair, residual
from .errors import PreconditionError
from .specfun import AnnulusConstants, gauss_2f1, pochhammer_ratio, s_sum
from .spectrum import (
    _det,
    _det_scale,
    _entries,
    _factors,
    _quadratic,
    _table_values,
    bifurcation_row,
    discriminant,
    eigenvalue_monotonicity_scan,
    kernel_vector,
    mode_matrix,
    threshold_N,
)

__all__ = [
    "CheckReport",
    "TOLERANCES",
    "check_c1_c2",
    "check_c3_c8",
    "check_spectral",
    "check_linearization",
    "run_default_suite",
    "format_report_table",
]

DEFAULT_SEED = 12345

TOLERANCES = {
    "c1": 1e-7,
    "c2": 1e-7,
    "c3": 1e-7,
    "c4": 1e-7,
    "c5": 1e-7,
    "c6": 1e-7,
    "c7": 1e-7,
    "c8": 1e-7,
    "rotation_invariance": 1e-12,
    "spectral_determinant": 1e-12,
    "spectral_discriminant": 1e-10,
    "spectral_monotonicity": 0.0,
    "spectral_kernel": 1e-10,
    "spectral_threshold": 1e-12,
    "linearization_block": 1e-5,
    "linearization_offblock": 1e-7,
}


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named check over ``cases`` sample points."""

    name: str
    max_error: float
    tolerance: float
    passed: bool
    cases: int

    def to_dict(self) -> dict:
        return asdict(self)


def _report(name: str, max_error: float, cases: int) -> CheckReport:
    tol = TOLERANCES[name]
    return CheckReport(name, float(max_error), tol, bool(max_error <= tol), int(cases))


def _rng(seed: int) -> random.Random:
    """A check's point stream, seeded with the integer value of ``seed``
    (a numpy integer seeds as the equal int).  Raises
    :class:`PreconditionError` for a negative seed, which would draw the
    points of its absolute value."""
    seed = operator.index(seed)
    if seed < 0:
        raise PreconditionError(f"seed must be a non-negative integer, got {seed}")
    return random.Random(seed)


def check_c1_c2(n_max: int = 20, samples: int = 8,
                seed: int = DEFAULT_SEED) -> list[CheckReport]:
    """Quadrature of the two self-interaction circle moments against their
    odd-harmonic closed forms:

        avg_tau (tau^n - w^n) / |w - tau| = -(2 w^n / pi) sum_{k=0}^{n-1} 1/(2k+1)
        avg_tau (tau-w)^2 (tau^n - w^n) / |w - tau|^3 = (2 w^{n+2} / pi) sum_{k=1}^{n} 1/(2k+1)

    (both as mean-value integrals with weight dtau/tau), that is
    -w^n (2/pi + s_sum(n)) and w^{n+2} s_sum(n+1).  The closed forms use
    the library's own ``s_sum``; the quadrature side forms tau^n - w^n
    and |w - tau| directly, so it checks the multiplier the spectrum is
    built on.  In the angle phi in (0, 2 pi) from w, tau = w e^{i phi},
    the integrands' corner at tau = w sits at both interval ends and they
    are analytic on the closed interval, so 2 n_max + 24 Gauss-Legendre
    nodes in phi resolve them to roundoff: the eigenvalues of the Jacobi
    matrix, with weights from the first eigenvector components
    (Golub-Welsch).  The angles of the points w are drawn from
    ``random.Random(seed)`` in the order of a loop over n then samples.  A
    rotation-invariance report checks that the quadrature error at n = 3
    is independent of w.
    Raises :class:`PreconditionError` past n_max samples (2 n_max + 24) <= ``MAX_KP``.
    """
    if n_max * samples * (2 * n_max + 24) > MAX_KP:
        raise PreconditionError(f"check_c1_c2 with n_max={n_max}, samples={samples} is past"
                                f" the cap n_max*samples*(2*n_max + 24) <= {MAX_KP}")
    rng = _rng(seed)
    phi = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(n_max * samples)]
    w = np.exp(1j * np.array(phi)).reshape(n_max, samples)
    k = np.arange(1, 2 * n_max + 24)
    x, vec = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    turn = np.exp(1j * math.pi * (x + 1.0))  # e^{i phi}, phi = pi (x + 1)
    wts = vec[0] ** 2  # half the Gauss weight 2 v_0^2: the mean over phi
    s = np.array([s_sum(j) for j in range(1, n_max + 2)])[:, None]
    n = np.arange(1, n_max + 1)[:, None]
    wn = w ** n
    tau = w[..., None] * turn
    tau_n = tau ** n[..., None] - wn[..., None]
    dist = np.abs(w[..., None] - tau)
    err1 = np.abs((tau_n / dist) @ wts + wn * (2.0 / math.pi + s[:-1]))
    err2 = np.abs(((tau - w[..., None]) ** 2 * tau_n / dist ** 3) @ wts - wn * w * w * s[1:])
    rot = err1[2:3].ravel()  # the n = 3 row
    return [
        _report("c1", err1.max(initial=0.0), err1.size),
        _report("c2", err2.max(initial=0.0), err2.size),
        _report("rotation_invariance", np.ptp(rot) if rot.size else 0.0, rot.size),
    ]


def _c3_c8_nodes(b: float, n_max: int) -> int:
    """Trapezoid nodes for (c3)..(c8) at radius b: past the powers up to
    n_max + 2 the integrands' Fourier coefficients decay like |b|^k, so
    the ceil(40 / |ln b|) extra nodes leave aliasing below e^-40.  Raises
    :class:`PreconditionError` for |b| >= 1 or past n_max P <= ``MAX_KP``."""
    if not abs(b) < 1.0:
        raise PreconditionError(f"check_c3_c8 requires |b| < 1, got b={b}")
    P = 2 * (n_max + 2) + (math.ceil(40.0 / -math.log(abs(b))) if b else 0)
    if n_max * P > MAX_KP:
        raise PreconditionError(f"check_c3_c8 at b={b} needs P={P} nodes for n_max={n_max},"
                                f" past the cap n_max*P <= {MAX_KP}")
    return P


def check_c3_c8(b_set: tuple[float, ...] = (0.3, 0.6), n_max: int = 10,
                seed: int = DEFAULT_SEED) -> list[CheckReport]:
    """Quadrature of the cross-circle kernel moments against their
    hypergeometric closed forms, for inner radii in ``b_set`` and modes up
    to ``n_max``.  The weighted moments (c7), (c8) are exercised with
    random real weight pairs.  Each radius gets the half-offset trapezoid
    on ``_c3_c8_nodes(b, n_max)`` nodes, all checked before anything is
    built, and reads tau^n from one table of e^{i pi j / P} - 1 (angles in
    (-pi, pi]); |b tau - w| comes from b - 1 + b (tau / w - 1), which keeps
    its relative accuracy as b -> +-1 (for b < 0 from |b| and the node
    angle shifted by pi, so the kernel's peak never sits where the sum
    cancels).  Each case draws (w angle, wa, wc) from
    ``random.Random(seed)``, in the order of a loop over b then n.
    """
    nodes = [_c3_c8_nodes(b, n_max) for b in b_set]
    rng = _rng(seed)
    draws = np.array([(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(-1.0, 1.0),
                       rng.uniform(-1.0, 1.0)) for _ in range(len(b_set) * n_max)])
    draws = draws.reshape(len(b_set), n_max, 3)
    n = np.arange(1, n_max + 1)[:, None]
    errs = np.zeros(6)
    for b, P, (phi, wa, wc) in zip(b_set, nodes, draws.transpose(0, 2, 1)[..., None]):
        b2 = b * b
        half, three, g7, g8 = np.array([
            [pochhammer_ratio(0.5, k) * gauss_2f1(0.5, k + 0.5, k + 1.0, b2),
             pochhammer_ratio(1.5, k) * gauss_2f1(1.5, k + 1.5, k + 1.0, b2),
             pochhammer_ratio(1.5, k + 1) * gauss_2f1(0.5, k + 2.5, k + 2.0, b2),
             pochhammer_ratio(0.5, k + 2) * gauss_2f1(1.5, k + 2.5, k + 3.0, b2)]
            for k in range(1, n_max + 1)]).reshape(-1, 4).T[..., None] * b ** n
        roots_m1 = np.expm1(1j * np.pi * ((np.arange(2 * P) + P) % (2 * P) - P) / P)  # e^{i pi j/P} - 1
        odd = np.arange(1, 2 * P, 2)  # node xi_l = e^{i pi (2l + 1) / P}
        w = np.exp(1j * phi)
        wn = w ** n
        tau = w * (1.0 + roots_m1[odd])
        tau_n = wn * (1.0 + roots_m1[n * odd % (2 * P)])
        # (b tau - w) / w = |b| (tau / w) e^{i pi [b < 0]} + |b| - 1
        delta = abs(b) * roots_m1[(odd + (P if b < 0 else 0)) % (2 * P)] + (abs(b) - 1.0)
        den1 = np.abs(delta)
        den3 = den1 ** 3
        lhs = np.array([f.mean(axis=1, keepdims=True) for f in (
            tau_n / den1, tau_n.conj() / den1, tau_n.conj() / den3, tau_n / den3,
            w * delta * (wa * wn - wc * tau_n) / den3 * tau,
            tau * delta.conj() * (wc * wn - wa * tau_n) / den3 * tau)])  # b w - tau = tau conj(delta)
        rhs = np.array([wn * half, wn.conj() * half, wn.conj() * three, wn * three,
                        -wn * w * w * b * (wa * 1.5 * gauss_2f1(0.5, 2.5, 2.0, b2) - wc * g7),
                        -wn * w * w * b2 * (wc * 0.375 * gauss_2f1(1.5, 2.5, 3.0, b2) - wa * g8)])
        errs = np.maximum(errs, (abs(lhs - rhs) / (1.0 + abs(rhs))).max(axis=(1, 2), initial=0.0))
    return [_report(f"c{j}", err, len(b_set) * n_max) for j, err in enumerate(errs, 3)]


def check_spectral(b_set: tuple[float, ...] = (0.2, 0.5, 0.8), m_hi: int = 200,
                   samples: int = 400, seed: int = DEFAULT_SEED) -> list[CheckReport]:
    """Algebraic structure of the mode matrices over ``b_set``:

    * determinant of the assembled matrix equals the quadratic
      (b/4)(lambda^2 - 2 C lambda + D) on a random (n, omega) sweep;
    * reduced discriminant equals C^2 - D;
    * eigenvalue monotonicity and interleaving scans report no violations;
    * kernel residual |M v| vanishes at both eigenvalues;
    * the E_n sign-change threshold agrees with the equivalent
      sum-inequality definition, and E_1 = -(1+b)^2 L_1.

    Each case of the sweep draws n = ``randint(2, m_hi)``, then omega =
    ``uniform(-1.5, 1.5)``, from ``random.Random(seed)``.  Raises
    :class:`PreconditionError` for ``m_hi`` < 2, before any table is built.
    """
    if m_hi < 2:
        raise PreconditionError(f"check_spectral draws modes n in 2..m_hi, so needs m_hi >= 2, got m_hi={m_hi}")
    rng = _rng(seed)
    det_err = disc_err = kern_err = thr_err = 0.0
    violations = 0
    det_cases = kern_cases = 0
    for b in b_set:
        consts = AnnulusConstants.build(b, n_max=m_hi)
        n_thr = threshold_N(b, consts)

        violations += len(eigenvalue_monotonicity_scan(b, m_hi, consts))

        draws = [(rng.randint(2, m_hi), rng.uniform(-1.5, 1.5)) for _ in range(samples)]
        n = np.array([d[0] for d in draws], dtype=int)
        omega = np.array([d[1] for d in draws], dtype=float)
        s_n, lam_n = _table_values(n, consts)
        lam_1 = consts.lam(1)
        entries = _entries(b, omega, s_n, lam_1, lam_n)
        lam = 1.0 - 2.0 * omega
        c_n, d_n = _quadratic(b, s_n, lam_1, lam_n)
        quad = 0.25 * b * (lam * lam - 2.0 * c_n * lam + d_n)
        det_err = max(det_err, np.max(abs(_det(*entries) - quad) / _det_scale(*entries),
                                      initial=0.0))
        delta, e_n, f_n = _factors(b, s_n, lam_1, lam_n)
        ref = np.maximum(1.0, abs(delta))
        disc_err = max(disc_err, np.max(abs(c_n * c_n - d_n - delta) / ref, initial=0.0),
                       np.max(abs(e_n * f_n - delta) / ref, initial=0.0))
        det_cases += samples

        for m in range(n_thr, m_hi + 1, max(1, (m_hi - n_thr) // 8)):
            row = bifurcation_row(m, b, consts)
            for omega in (row.omega_minus, row.omega_plus):
                vec = kernel_vector(m, b, omega, consts)
                mat = mode_matrix(m, b, omega, consts)
                scale = mat.det_scale() * max(1.0, math.hypot(vec.v1, vec.v2))
                resid = max(
                    abs(mat.m11 * vec.v1 + mat.m12 * vec.v2),
                    abs(mat.m21 * vec.v1 + mat.m22 * vec.v2),
                )
                kern_err = max(kern_err, resid / scale)
                kern_cases += 1

        # threshold: E_n sign change vs the sum-form inequality
        # S_n > b ((1+b^2) L_1 + 2 b L_n) / (1+b); both must give the same N
        n = 2
        while not (
            consts.s(n) > b * ((1.0 + b * b) * consts.lam(1) + 2.0 * b * consts.lam(n)) / (1.0 + b)
        ):
            n += 1
        if n != n_thr:
            thr_err = math.inf
        _, e_1, _ = discriminant(1, b, consts)
        thr_err = max(thr_err, abs(e_1 + (1.0 + b) ** 2 * consts.lam(1)))
    return [
        _report("spectral_determinant", det_err, det_cases),
        _report("spectral_discriminant", disc_err, det_cases),
        _report("spectral_monotonicity", float(violations), len(b_set)),
        _report("spectral_kernel", kern_err, kern_cases),
        _report("spectral_threshold", thr_err, len(b_set)),
    ]


def _linearization_probe(
    m: int,
    b: float,
    omega: float,
    n: int,
    h: float,
    P: int,
    consts: AnnulusConstants,
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Central-difference block of the residual Jacobian at the annulus.

    Perturbs coefficient n of each boundary by +-h, assembles the observed
    2x2 block at frequency n m, and compares with the analytic block
    -(n m) M_{n m}; the minus sign is the sine convention.  Returns
    (observed, expected, max relative block error, off-block magnitude
    relative to the block scale).
    """
    K = n + 2
    observed = np.zeros((2, 2))
    offblock = 0.0
    for col in range(2):  # outer, then inner boundary
        step = np.zeros((2, K))
        step[col, n - 1] = h
        rp = residual(PatchPair(b, m, K, *step, omega), P)
        rm = residual(PatchPair(b, m, K, *-step, omega), P)
        deriv = (np.stack([rp.r1, rp.r2]) - np.stack([rm.r1, rm.r2])) / (2.0 * h)
        observed[:, col] = deriv[:, n - 1]
        others = float(np.abs(np.delete(deriv, n - 1, axis=1)).max())
        offblock = max(offblock, others, max(rp.leak, rm.leak) / (2.0 * h))
    p = n * m
    expected = -p * mode_matrix(p, b, omega, consts).matrix()
    scale = float(np.abs(expected).max())
    rel = float(np.abs(observed - expected).max()) / scale
    return observed, expected, rel, offblock / scale


def check_linearization(b_set: tuple[float, ...] = (0.5, 0.7),
                        modes: tuple[int, ...] = (1, 2),
                        h: float = 1e-6, P: int = 512,
                        omega: float = 0.25) -> list[CheckReport]:
    """Finite-difference Jacobian blocks of the residual at the annulus
    against the analytic blocks -(n m) M_{n m}, for m = N(b) + 1.

    Emits the worst relative in-block error and the worst off-block
    magnitude (relative to the block scale); the operator is diagonal
    across frequencies, so off-block entries measure pure discretization
    leakage.  The default P = 512 resolves every probe (P >= 4 (n + 2) m)
    and keeps one probe with m not dividing P (m = 6), where aliasing
    would show.
    """
    block_err = off_err = 0.0
    cases = 0
    for b in b_set:
        consts = AnnulusConstants.build(b)
        m = threshold_N(b, consts) + 1
        for n in modes:
            _, _, rel, off = _linearization_probe(m, b, omega, n, h, P, consts)
            block_err = max(block_err, rel)
            off_err = max(off_err, off)
            cases += 1
    return [
        _report("linearization_block", block_err, cases),
        _report("linearization_offblock", off_err, cases),
    ]


def run_default_suite(seed: int = DEFAULT_SEED) -> list[CheckReport]:
    """Run every check at its default configuration; deterministic given
    ``seed``.  Reports are ordered by group then name."""
    reports: list[CheckReport] = []
    reports += check_c1_c2(seed=seed)
    reports += check_c3_c8(seed=seed)
    reports += check_spectral(seed=seed)
    reports += check_linearization()
    return reports


def format_report_table(reports: list[CheckReport]) -> str:
    """Fixed-width plain-text table, one row per report."""
    lines = [f"{'check':<24} {'cases':>6} {'max_error':>12} {'tolerance':>12} {'status':>8}"]
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{r.name:<24} {r.cases:>6d} {r.max_error:>12.3e} {r.tolerance:>12.3e} {status:>8}"
        )
    return "\n".join(lines)
