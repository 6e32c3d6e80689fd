"""Oracle suite: every check passes at reduced (fast) sizes, reports are
well-formed, and the suite is deterministic under a fixed seed."""

import inspect
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from sqg_vstates import verify
from sqg_vstates.contour import PatchPair, annulus_patch, residual
from sqg_vstates.errors import PreconditionError
from sqg_vstates.specfun import AnnulusConstants
from sqg_vstates.spectrum import bifurcation_row, threshold_N
from sqg_vstates.verify import (
    TOLERANCES,
    _c3_c8_nodes,
    _leak,
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


def test_spectral_kernel_checks_read_the_one_mode_values(monkeypatch):
    # the kernel checks take each mode's Omega pair from one set of columns
    # per radius, bitwise the values of bifurcation_row
    seen = []

    def recorded(m, b, omega, consts):
        seen.append((m, b, omega))
        return kernel_vector(m, b, omega, consts)

    kernel_vector = verify.kernel_vector
    monkeypatch.setattr(verify, "kernel_vector", recorded)
    check_spectral(b_set=(0.35, 0.8), m_hi=80, samples=3)
    expected = []
    for b in (0.35, 0.8):
        consts = AnnulusConstants.build(b, n_max=80)
        n_thr = threshold_N(b, consts)
        for m in range(n_thr, 81, max(1, (80 - n_thr) // 8)):
            row = bifurcation_row(m, b, consts)
            expected += [(m, b, row.omega_minus), (m, b, row.omega_plus)]
    assert seen == expected
    assert all(type(omega) is float for _, _, omega in seen)


def test_spectral_radius_with_threshold_above_m_hi():
    # N(0.995) = 284 > m_hi: no mode to scan or kernel-check, and no error
    by_name = {r.name: r for r in check_spectral(b_set=(0.995,), m_hi=80, samples=3)}
    assert by_name["spectral_kernel"].cases == 0
    assert all(r.passed for r in by_name.values())


def test_spectral_threshold_mismatch_fails(monkeypatch):
    # a threshold that disagrees with the sum-form inequality reads inf
    monkeypatch.setattr(verify, "threshold_N", lambda b, consts: threshold_N(b, consts) + 1)
    by_name = {r.name: r for r in check_spectral(b_set=(0.35,), m_hi=80, samples=120)}
    assert by_name["spectral_threshold"].max_error == math.inf
    assert not by_name["spectral_threshold"].passed


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


# grids (m, K, P) covering each kind of grid symmetry g = gcd(m, P)
SYMMETRY_GRIDS = [
    (5, 8, 1280),  # g = m
    (6, 2, 256),   # g = 2
    (3, 2, 256),   # g = 1
    (5, 2, 42),    # g = 1, P < 64
    (4, 1, 20),    # odd q = 5
]


def small_patch(b=0.5, m=4, K=3, omega=0.3, seed=1, scale=1e-3):
    rng = np.random.default_rng(seed)
    return PatchPair(b=b, m=m, K=K, a=scale * rng.standard_normal(K),
                     c=scale * rng.standard_normal(K), omega=omega)


class TestLeak:
    @pytest.mark.parametrize("b", [0.3, 0.5, 0.7])
    def test_annulus_has_no_leak(self, b):
        for omega in (-1.0, 0.0, 0.5, 1.0):
            assert _leak(residual(annulus_patch(b, 3, 4, omega), 2048), 3, 2048) <= 1e-8

    def test_mfold_leakage(self):
        assert _leak(residual(small_patch(m=4, K=3), 2048), 4, 2048) <= 1e-8

    def test_one_period_matches_full_grid_spectrum(self):
        # reference: the length-P real FFT of all P values, off the
        # multiples of m; (6, 2, 50), g = 2 and q = 25, has a leak far above
        # roundoff
        for m, K, P in [(4, 3, 1024), (6, 2, 50)] + SYMMETRY_GRIDS:
            for seed in (1, 5, 9):
                res = residual(small_patch(b=0.6, m=m, K=K, seed=seed, scale=3e-4), P)
                spec = np.fft.rfft(np.stack([res.g1, res.g2]))
                off = np.arange(spec.shape[1]) % m != 0
                ref = 2.0 / P * np.abs(spec[:, off]).max() if off.any() else 0.0
                assert _leak(res, m, P) == pytest.approx(ref, abs=1e-14)
        res = residual(small_patch(b=0.6, m=6, K=2, seed=1, scale=3e-4), 50)
        assert _leak(res, 6, 50) > 1e-10

    @pytest.mark.parametrize("m,K,P", SYMMETRY_GRIDS)
    def test_leak_is_exactly_zero_when_m_divides_p(self, m, K, P):
        res = residual(small_patch(b=0.6, m=m, K=K, seed=3, scale=3e-4), P)
        assert (_leak(res, m, P) == 0.0) == (P % m == 0)


def test_deterministic_given_seed():
    a = check_c3_c8(b_set=(0.4,), n_max=4, seed=777)
    b = check_c3_c8(b_set=(0.4,), n_max=4, seed=777)
    assert a == b
    assert verify.run_default_suite(seed=777) == verify.run_default_suite(seed=777)


def test_report_table_format():
    reports = check_c3_c8(b_set=(0.4,), n_max=3)
    table = format_report_table(reports)
    lines = table.splitlines()
    assert len(lines) == len(reports) + 1
    assert "PASS" in table
    assert lines[0].split()[0] == "check"


def test_report_passed_definition():
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


class _RecordingRandom(random.Random):
    """A ``random.Random`` that logs every draw a check makes."""

    def __init__(self, seed):
        self.seed_arg = seed
        self.log = []
        super().__init__(seed)

    def uniform(self, a, b):
        self.log.append(("uniform", a, b, super().uniform(a, b)))
        return self.log[-1][-1]

    def randint(self, a, b):
        self.log.append(("randint", a, b, super().randint(a, b)))
        return self.log[-1][-1]


def _recorded_draws(monkeypatch, check, seed):
    generators = []

    def make(seed):
        generators.append(_RecordingRandom(seed))
        return generators[-1]

    monkeypatch.setattr(verify, "random", types.SimpleNamespace(Random=make))
    check(seed=seed)
    (gen,) = generators  # one stream per check
    assert type(gen.seed_arg) is int and gen.seed_arg == seed
    return gen.log


def _expected_log(seed, calls):
    """The draws of an explicit scalar loop over ``calls`` = [(method, a, b)]."""
    rng = random.Random(seed)
    return [(name, a, b, getattr(rng, name)(a, b)) for name, a, b in calls]


def _bitwise_equal(log, expected):
    assert [entry[:3] for entry in log] == [entry[:3] for entry in expected]
    assert (np.array([entry[3] for entry in log], dtype=float).tobytes()
            == np.array([entry[3] for entry in expected], dtype=float).tobytes())


@pytest.mark.parametrize("seed", [12345, 288545019])
def test_c1_c2_draws_the_per_case_points(monkeypatch, seed):
    # the angle of w in a loop over n, then samples
    calls = [("uniform", 0.0, 2.0 * math.pi) for _n in range(20) for _j in range(8)]
    log = _recorded_draws(monkeypatch, check_c1_c2, seed)
    _bitwise_equal(log, _expected_log(seed, calls))


@pytest.mark.parametrize("seed", [12345, 288545019])
def test_c3_c8_draws_the_per_case_points(monkeypatch, seed):
    # per case, in a loop over b then n: the angle of w, then wa, then wc
    calls = [("uniform", lo, hi) for _b in (0.3, 0.6) for _n in range(10)
             for lo, hi in ((0.0, 2.0 * math.pi), (-1.0, 1.0), (-1.0, 1.0))]
    log = _recorded_draws(monkeypatch, check_c3_c8, seed)
    _bitwise_equal(log, _expected_log(seed, calls))


@pytest.mark.parametrize("seed", [12345, 288545019])
def test_spectral_draws_the_per_case_points(monkeypatch, seed):
    # per radius, per case: n, then omega
    calls = [call for _b in (0.2, 0.5, 0.8) for _j in range(400)
             for call in (("randint", 2, 200), ("uniform", -1.5, 1.5))]
    log = _recorded_draws(monkeypatch, check_spectral, seed)
    _bitwise_equal(log, _expected_log(seed, calls))


@pytest.mark.parametrize("check", [check_c1_c2, check_c3_c8, check_spectral])
def test_seeds_draw_different_points(monkeypatch, check):
    log_a = _recorded_draws(monkeypatch, check, 777)
    log_b = _recorded_draws(monkeypatch, check, 778)
    assert len(log_a) == len(log_b) > 0
    assert [entry[3] for entry in log_a] != [entry[3] for entry in log_b]


def test_numpy_integer_seed_is_its_int():
    # not Python's seed-by-hash path, which warns for non-int seeds
    assert check_c3_c8(seed=np.int64(7)) == check_c3_c8(seed=7)


@pytest.mark.parametrize("check", [check_c1_c2, check_c3_c8, check_spectral])
def test_negative_seed_is_a_precondition_error(check):
    # random.Random would seed with |seed| and repeat another seed's points
    with pytest.raises(PreconditionError, match="seed"):
        check(seed=-1)


@pytest.mark.parametrize("m_hi", [1, 0, -5])
def test_spectral_mode_range_below_two_is_a_precondition_error(m_hi, monkeypatch):
    # the sweep draws n in 2..m_hi; the guard fires before any table is built
    def no_build(*args, **kwargs):
        raise AssertionError("a constants table was built")

    monkeypatch.setattr(verify.AnnulusConstants, "build", no_build)
    with pytest.raises(PreconditionError, match="m_hi=" + str(m_hi)):
        check_spectral(b_set=(0.5,), m_hi=m_hi, samples=3)


def test_c3_c8_default_nodes():
    assert [_c3_c8_nodes(b, 10) for b in (0.3, 0.6)] == [58, 103]


@pytest.mark.parametrize("b", [0.3, 0.6, 0.9, 0.999, -0.9, -0.999])
def test_c3_c8_node_rule_resolves(b):
    # a fixed 4096-node grid left errors near 9e-2 at b = 0.999; b < 0
    # works from |b| on the nodes turned by pi, where b - 1 + b (tau/w - 1)
    # would cancel at the kernel's peak tau/w = -1 (6.4e-13 at b = -0.999)
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


def test_commands_leave_numpy_random_unloaded(tmp_path):
    # the checks draw from the standard library's random, so no command
    # pays for importing numpy.random
    src = str(Path(verify.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    branch = tmp_path / "b.json"
    argvs = [["check", "--format", "json", "--out", str(tmp_path / "check.json")],
             ["spectrum", "--b", "0.5", "--out", str(tmp_path / "s.csv")],
             ["threshold", "--b", "0.5"],
             ["branch", "--b", "0.6", "--m", "5", "--modes", "8", "--steps", "1",
              "--out", str(branch)],
             ["render", str(branch), "--out", str(tmp_path / "b.svg")]]
    code = ("import json, sys\n"
            "from sqg_vstates.cli import main\n"
            "loaded = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv\n"
            "    loaded.append(sorted(m for m in sys.modules if m.startswith('numpy.random')))\n"
            "print(json.dumps(loaded))\n")
    done = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    assert json.loads(done.stdout.splitlines()[-1]) == [[]] * len(argvs)
