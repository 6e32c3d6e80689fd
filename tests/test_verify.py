"""Oracle suite: every check passes at reduced (fast) sizes, reports are
well-formed, and the suite is deterministic under a fixed seed."""

import inspect
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sqg_vstates import verify
from sqg_vstates.errors import PreconditionError
from sqg_vstates.specfun import AnnulusConstants
from sqg_vstates.spectrum import threshold_N
from sqg_vstates.verify import (
    TOLERANCES,
    _c3_c8_nodes,
    check_c1_c2,
    check_c3_c8,
    check_linearization,
    check_spectral,
    format_report_table,
)


def test_c1_c2_reduced():
    reports = check_c1_c2(n_max=8, samples=4)
    by_name = {r.name: r for r in reports}
    assert set(by_name) == {"c1", "c2", "rotation_invariance"}
    for r in reports:
        assert r.passed, f"{r.name}: {r.max_error} > {r.tolerance}"
        assert r.tolerance == TOLERANCES[r.name]
        assert r.cases > 0


def test_c1_c2_default_is_spectral():
    # Gauss-Legendre in the angle from w: roundoff, not a discretization
    # floor, at the default configuration
    by_name = {r.name: r for r in check_c1_c2()}
    assert by_name["c1"].max_error <= 1e-12
    assert by_name["c2"].max_error <= 1e-12
    assert by_name["rotation_invariance"].max_error <= 1e-12


def test_c1_c2_nodes_follow_n_max():
    by_name = {r.name: r for r in check_c1_c2(n_max=80, samples=2)}
    assert by_name["c1"].max_error <= 1e-12
    assert by_name["c2"].max_error <= 1e-12


def test_c3_c8_reduced():
    reports = check_c3_c8(b_set=(0.4,), n_max=6)
    assert {r.name for r in reports} == {"c3", "c4", "c5", "c6", "c7", "c8"}
    for r in reports:
        assert r.passed, f"{r.name}: {r.max_error} > {r.tolerance}"
        # smooth integrands: trapezoid is spectrally accurate, errors far
        # below the quadrature tolerance
        assert r.max_error <= 1e-12


def test_spectral_reduced():
    reports = check_spectral(b_set=(0.35,), m_hi=80, samples=120)
    by_name = {r.name: r for r in reports}
    assert by_name["spectral_monotonicity"].max_error == 0.0
    for r in reports:
        assert r.passed, f"{r.name}: {r.max_error} > {r.tolerance}"


def test_linearization_reduced():
    reports = check_linearization(b_set=(0.5,), modes=(1,), P=2048)
    by_name = {r.name: r for r in reports}
    assert by_name["linearization_block"].passed
    assert by_name["linearization_offblock"].passed


def test_linearization_default_grid():
    # the default P keeps an m-not-dividing-P aliasing probe, resolves every
    # probe's K = n + 2 modes at P >= 4 K m, and costs no accuracy
    defaults = {k: v.default for k, v in inspect.signature(check_linearization).parameters.items()}
    P = defaults["P"]
    probes = [(threshold_N(b, AnnulusConstants.build(b)) + 1, n)
              for b in defaults["b_set"] for n in defaults["modes"]]
    assert any(math.gcd(m, P) < m for m, _ in probes)
    assert all(P >= 4 * (n + 2) * m for m, n in probes)
    by_name = {r.name: r for r in check_linearization()}
    assert by_name["linearization_block"].max_error <= 1e-10
    assert by_name["linearization_offblock"].max_error <= 5e-10


def test_deterministic_given_seed():
    a = check_c3_c8(b_set=(0.4,), n_max=4, seed=777)
    b = check_c3_c8(b_set=(0.4,), n_max=4, seed=777)
    assert a == b


def test_report_table_format():
    reports = check_c3_c8(b_set=(0.4,), n_max=3)
    table = format_report_table(reports)
    lines = table.splitlines()
    assert len(lines) == len(reports) + 1
    assert "PASS" in table
    assert lines[0].split()[0] == "check"


def test_report_passed_definition():
    import json

    reports = check_c1_c2(n_max=4, samples=2)
    for r in reports:
        assert r.passed == (r.max_error <= r.tolerance)
        d = r.to_dict()
        assert set(d) == {"name", "max_error", "tolerance", "passed", "cases"}
    json.dumps([r.to_dict() for r in reports])  # plain JSON types only


@pytest.mark.parametrize("n_max, samples", [(2, 8), (1, 3), (20, 0), (0, 8)])
def test_c1_c2_without_rotation_cases(n_max, samples):
    # n = 3 is missing or has no samples: an empty report, not a max() of
    # an empty array
    by_name = {r.name: r for r in check_c1_c2(n_max=n_max, samples=samples)}
    rot = by_name["rotation_invariance"]
    assert (rot.cases, rot.max_error, rot.passed) == (0, 0.0, True)
    for name in ("c1", "c2"):
        assert by_name[name].cases == n_max * samples and by_name[name].passed
        assert by_name[name].max_error <= 1e-13


def test_c3_c8_without_modes():
    reports = check_c3_c8(n_max=0)
    assert [(r.name, r.cases, r.max_error, r.passed) for r in reports] == [
        (f"c{j}", 0, 0.0, True) for j in range(3, 9)]


@pytest.mark.parametrize("b", [0.0, -0.0, -0.5, -0.3])
def test_c3_c8_zero_and_negative_radius(b):
    # the node rule takes no log of 0 or of a negative number; b = 0 needs
    # only the powers, b < 0 the same nodes as |b|
    assert _c3_c8_nodes(b, 10) == (24 if b == 0.0 else _c3_c8_nodes(-b, 10))
    for r in check_c3_c8(b_set=(b,)):
        assert r.cases == 10 and r.max_error <= 1e-14, r


class _RecordingGenerator:
    """Delegates to a real generator and records what ``uniform`` returns."""

    make = staticmethod(np.random.default_rng)

    def __init__(self, seed):
        self.rng = self.make(seed)
        self.draws = []

    def uniform(self, *args, **kwargs):
        self.draws.append(self.rng.uniform(*args, **kwargs))
        return self.draws[-1]


def _recorded_draws(monkeypatch, check, **kwargs):
    generators = []

    def make(seed):
        generators.append(_RecordingGenerator(seed))
        return generators[-1]

    monkeypatch.setattr(np.random, "default_rng", make)
    check(**kwargs)
    (gen,) = generators
    (draws,) = gen.draws  # one draw per check
    return draws


@pytest.mark.parametrize("seed", [12345, 288545019])
def test_c1_c2_draws_the_per_case_points(monkeypatch, seed):
    # the scalar draws of a loop over n, then samples, bitwise
    rng = np.random.default_rng(seed)
    old = [rng.uniform(0.0, 2.0 * np.pi) for _n in range(20) for _j in range(8)]
    draws = _recorded_draws(monkeypatch, check_c1_c2, seed=seed)
    assert draws.shape == (20, 8)
    assert draws.ravel().tobytes() == np.array(old).tobytes()


@pytest.mark.parametrize("seed", [12345, 288545019])
def test_c3_c8_draws_the_per_case_points(monkeypatch, seed):
    # per case, in a loop over b then n: the angle of w, then the weight
    # pair (wa, wc) from one size-2 draw
    rng = np.random.default_rng(seed)
    old = []
    for _b in (0.3, 0.6):
        for _n in range(10):
            old.append(rng.uniform(0.0, 2.0 * np.pi))
            old.extend(rng.uniform(-1.0, 1.0, size=2))
    draws = _recorded_draws(monkeypatch, check_c3_c8, seed=seed)
    assert draws.shape == (2, 10, 3)
    assert draws.ravel().tobytes() == np.array(old).tobytes()


def test_c3_c8_default_nodes():
    assert [_c3_c8_nodes(b, 10) for b in (0.3, 0.6)] == [58, 103]


@pytest.mark.parametrize("b", [0.3, 0.6, 0.9, 0.999])
def test_c3_c8_node_rule_resolves(b):
    # a fixed 4096-node grid left errors near 9e-2 at b = 0.999
    for r in check_c3_c8(b_set=(b,)):
        assert r.max_error <= 1e-13, r


def test_c3_c8_quarter_grid_fails(monkeypatch):
    # the rule has no slack to spare: a quarter of its nodes misses 1e-7
    rule = verify._c3_c8_nodes
    monkeypatch.setattr(verify, "_c3_c8_nodes", lambda b, n_max: rule(b, n_max) // 4)
    assert not all(r.passed for r in check_c3_c8(b_set=(0.6,)))


@pytest.mark.parametrize("b", [1.0 - 1e-9, -(1.0 - 1e-9), 1.0, 1.5, math.nan])
def test_c3_c8_radius_near_one_fails_before_allocating(b):
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError, match="check_c3_c8"):
            check_c3_c8(b_set=(0.3, b))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("n_max, samples", [(10**4, 8), (20, 10**9)])
def test_c1_c2_oversized_fails_before_allocating(n_max, samples):
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError, match="check_c1_c2"):
            check_c1_c2(n_max=n_max, samples=samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_default_suite_leaves_numpy_polynomial_unloaded():
    # Gauss-Legendre nodes come from the Jacobi matrix, so a cold
    # ``vstates check`` does not import numpy.polynomial
    src = str(Path(verify.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = ("import sys\n"
            "from sqg_vstates.verify import run_default_suite\n"
            "assert all(r.passed for r in run_default_suite())\n"
            "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert done.stdout.strip() == "[]"
