"""Oracle suite: every check passes at reduced (fast) sizes, reports are
well-formed, and the suite is deterministic under a fixed seed."""

from sqg_vstates.verify import (
    TOLERANCES,
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
