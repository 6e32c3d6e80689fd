"""One-command oracle suite: every closed-form identity used by the
library is bound to an independent numerical check.

The checks fall into four groups:

* ``check_c1_c2`` -- the self-interaction circle moments (c1), (c2):
  Gauss-Legendre quadrature of the corner-type integrands, in the angle
  measured from the evaluation point, against their odd-harmonic closed
  forms.
* ``check_c3_c8`` -- the cross-circle kernel moments (c3)..(c8):
  trapezoidal quadrature of the smooth periodic integrands against their
  hypergeometric closed forms.  (c4) and (c5) carry the conjugate
  symmetry of (c3) and (c6): their closed forms are the same real factor
  attached to the conjugate power of the evaluation point.
* ``check_spectral`` -- algebraic structure of the mode matrices:
  determinant quadratic, reduced-discriminant identity, eigenvalue
  monotonicity and interleaving, kernel residuals, and agreement of the
  two threshold definitions.
* ``check_linearization`` -- finite differences of the discretized
  residual at the annulus against the analytic frequency blocks.

Each check emits :class:`CheckReport` rows aggregated by name; tolerances
live in one table (``TOLERANCES``).  The moment quadratures get 1e-7
(both rules reach about 1e-14), algebraic identities 1e-10 to 1e-12.
Random sample points derive from one seed, so the suite is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .contour import PatchPair, residual
from .specfun import AnnulusConstants, gauss_2f1, pochhammer_ratio, s_sum
from .spectrum import (
    bifurcation_row,
    discriminant,
    eigenvalue_monotonicity_scan,
    kernel_vector,
    mode_matrix,
    quadratic_coeffs,
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
    max_error = float(max_error)
    return CheckReport(
        name=name,
        max_error=max_error,
        tolerance=tol,
        passed=bool(max_error <= tol),
        cases=int(cases),
    )


_C3_C8_NODES = 4096  # trapezoid nodes; resolves (c3)..(c8) to roundoff


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
    nodes in phi resolve them to roundoff.  A rotation-invariance report
    checks that the quadrature error is independent of w.
    """
    rng = np.random.default_rng(seed)
    x, wts = np.polynomial.legendre.leggauss(2 * n_max + 24)
    turn = np.exp(1j * math.pi * (x + 1.0))  # e^{i phi}, phi = pi (x + 1)
    wts = wts / 2.0  # mean over phi in (0, 2 pi)
    err1 = err2 = 0.0
    rot_errors = []
    cases = 0
    for n in range(1, n_max + 1):
        for j in range(samples):
            w = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            tau = w * turn
            tau_n = tau ** n - w ** n
            dist = np.abs(w - tau)
            lhs1 = wts @ (tau_n / dist)
            rhs1 = -(w ** n) * (2.0 / math.pi + s_sum(n))
            lhs2 = wts @ ((tau - w) ** 2 * tau_n / dist ** 3)
            rhs2 = w ** (n + 2) * s_sum(n + 1)
            err1 = max(err1, abs(lhs1 - rhs1))
            err2 = max(err2, abs(lhs2 - rhs2))
            if n == 3:
                rot_errors.append(abs(lhs1 - rhs1))
            cases += 1
    rot_spread = max(rot_errors) - min(rot_errors) if rot_errors else 0.0
    return [
        _report("c1", err1, cases),
        _report("c2", err2, cases),
        _report("rotation_invariance", rot_spread, len(rot_errors)),
    ]


def check_c3_c8(b_set: tuple[float, ...] = (0.3, 0.6), n_max: int = 10,
                seed: int = DEFAULT_SEED) -> list[CheckReport]:
    """Quadrature of the cross-circle kernel moments against their
    hypergeometric closed forms, for inner radii in ``b_set`` and modes up
    to ``n_max``.  The weighted moments (c7), (c8) are exercised with
    random real weight pairs.
    """
    rng = np.random.default_rng(seed)
    P = _C3_C8_NODES
    xi = np.exp(1j * 2.0 * np.pi * (np.arange(P) + 0.5) / P)
    errs = {name: 0.0 for name in ("c3", "c4", "c5", "c6", "c7", "c8")}
    cases = 0

    def rel(lhs: complex, rhs: complex) -> float:
        return abs(lhs - rhs) / (1.0 + abs(rhs))

    for b in b_set:
        b2 = b * b
        f_c7a = 1.5 * gauss_2f1(0.5, 2.5, 2.0, b2)
        f_c8c = 0.375 * gauss_2f1(1.5, 2.5, 3.0, b2)
        for n in range(1, n_max + 1):
            w = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            tau = w * xi
            factor_half = b ** n * pochhammer_ratio(0.5, n) * gauss_2f1(0.5, n + 0.5, n + 1.0, b2)
            factor_three = b ** n * pochhammer_ratio(1.5, n) * gauss_2f1(1.5, n + 1.5, n + 1.0, b2)

            den1 = np.abs(b * tau - w)
            den3 = den1 ** 3
            lhs3 = (tau ** (n - 1) / den1 * tau).mean()
            errs["c3"] = max(errs["c3"], rel(lhs3, w ** n * factor_half))
            lhs4 = (np.conj(tau) ** (n + 1) / den1 * tau).mean()
            errs["c4"] = max(errs["c4"], rel(lhs4, np.conj(w) ** n * factor_half))
            errs["c4"] = max(errs["c4"], rel(lhs4, np.conj(lhs3)))
            lhs5 = (np.conj(tau) ** (n + 1) / den3 * tau).mean()
            errs["c5"] = max(errs["c5"], rel(lhs5, np.conj(w) ** n * factor_three))
            lhs6 = (tau ** (n - 1) / den3 * tau).mean()
            errs["c6"] = max(errs["c6"], rel(lhs6, w ** n * factor_three))

            wa, wc = rng.uniform(-1.0, 1.0, size=2)
            lhs7 = ((b * tau - w) * (wa * w ** n - wc * tau ** n) / den3 * tau).mean()
            rhs7 = -(w ** (n + 2)) * b * (
                wa * f_c7a
                - wc * b ** n * pochhammer_ratio(1.5, n + 1) * gauss_2f1(0.5, n + 2.5, n + 2.0, b2)
            )
            errs["c7"] = max(errs["c7"], rel(lhs7, rhs7))
            lhs8 = ((b * w - tau) * (wc * w ** n - wa * tau ** n) / den3 * tau).mean()
            rhs8 = -(w ** (n + 2)) * b * b * (
                wc * f_c8c
                - wa * b ** n * pochhammer_ratio(0.5, n + 2) * gauss_2f1(1.5, n + 2.5, n + 3.0, b2)
            )
            errs["c8"] = max(errs["c8"], rel(lhs8, rhs8))
            cases += 1
    return [_report(name, errs[name], cases) for name in ("c3", "c4", "c5", "c6", "c7", "c8")]


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
    """
    rng = np.random.default_rng(seed)
    det_err = disc_err = kern_err = thr_err = 0.0
    violations = 0
    det_cases = kern_cases = 0
    for b in b_set:
        consts = AnnulusConstants.build(b, n_max=m_hi)
        n_thr = threshold_N(b, consts)

        violations += len(eigenvalue_monotonicity_scan(b, m_hi, consts))

        for _ in range(samples):
            n = int(rng.integers(2, m_hi + 1))
            omega = rng.uniform(-1.5, 1.5)
            mat = mode_matrix(n, b, omega, consts)
            lam = 1.0 - 2.0 * omega
            c_n, d_n = quadratic_coeffs(n, b, consts)
            quad = 0.25 * b * (lam * lam - 2.0 * c_n * lam + d_n)
            det_err = max(det_err, abs(mat.det() - quad) / mat.det_scale())
            delta, e_n, f_n = discriminant(n, b, consts)
            ref = max(1.0, abs(delta))
            disc_err = max(disc_err, abs(c_n * c_n - d_n - delta) / ref)
            disc_err = max(disc_err, abs(e_n * f_n - delta) / ref)
            det_cases += 1

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
                        h: float = 1e-6, P: int = 4096,
                        omega: float = 0.25) -> list[CheckReport]:
    """Finite-difference Jacobian blocks of the residual at the annulus
    against the analytic blocks -(n m) M_{n m}, for m = N(b) + 1.

    Emits the worst relative in-block error and the worst off-block
    magnitude (relative to the block scale); the operator is diagonal
    across frequencies, so off-block entries measure pure discretization
    leakage.
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
