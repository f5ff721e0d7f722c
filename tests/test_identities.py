"""Tests for the identity checks, at hand-verified indices plus short sweeps."""

import pytest

from spreadpoly import (
    BiPoly,
    CheckResult,
    UniPoly,
    check_cassini,
    check_chebyshev_bala,
    check_coefficient_forms,
    check_l_doubling,
    check_lucas_binomial,
    check_symmetry,
    check_trig,
    check_z_binomial,
    check_z_cassini,
    compare_polynomials,
)
from spreadpoly import (
    QuadExt,
    binet_fibonacci,
    binet_lucas,
    binet_z,
    coefficient_c,
    expand,
    gf_of,
    triangle,
)


def _all_pass(results):
    for r in results:
        assert r.passed, (r.name, r.range, r.witness)


def test_cassini_base_and_hand_case():
    assert check_cassini(1).passed  # 1 - 0 = (-s)^0
    # n=3: (x^2+s)^2 - x(x^3+2sx) = s^2
    assert check_cassini(3).passed
    _all_pass(check_cassini(n) for n in range(1, 31))
    with pytest.raises(ValueError):
        check_cassini(0)


def test_z_cassini():
    assert check_z_cassini(1).passed  # both sides vanish
    assert check_z_cassini(2).passed  # x(9s^2x+6sx^2+x^3) = (3sx+x^2)^2
    _all_pass(check_z_cassini(n) for n in range(1, 31))
    with pytest.raises(ValueError):
        check_z_cassini(0)


def test_lucas_binomial():
    assert check_lucas_binomial(1, "even").passed  # L2 - 2sL0 = x^2 - 2s
    assert check_lucas_binomial(0, "odd").passed  # L1 = x
    _all_pass(
        check_lucas_binomial(n, parity)
        for n in range(21)
        for parity in ("even", "odd")
    )
    with pytest.raises(ValueError):
        check_lucas_binomial(1, "mixed")


def test_z_binomial():
    assert check_z_binomial(1).passed  # Z1 - 2sZ0 = x
    assert check_z_binomial(2).passed  # Z2 - 4sZ1 + 6s^2 Z0 = x^2
    _all_pass(check_z_binomial(n) for n in range(1, 21))


def test_z_binomial_excluded_boundary():
    # at n=0 the stated sum reads 0 = 1, so the index is rejected
    with pytest.raises(ValueError):
        check_z_binomial(0)


def test_symmetry():
    assert check_symmetry(1).passed
    assert check_symmetry(2).passed  # -s^2 Zx(2)(-x/s) rebuilds 4sx + x^2
    _all_pass(check_symmetry(n) for n in range(1, 31))
    with pytest.raises(ValueError):
        check_symmetry(0)


def test_coefficient_forms():
    assert check_coefficient_forms(5).passed  # row (25, 50, 35, 10, 1)
    assert check_coefficient_forms(1).passed
    _all_pass(check_coefficient_forms(n) for n in range(1, 31))


def test_trig_small_n():
    assert check_trig(1).passed  # Z(1) is the identity polynomial
    assert check_trig(2).passed
    _all_pass(check_trig(n, num_samples=50) for n in range(1, 11))
    with pytest.raises(ValueError):
        check_trig(0)
    with pytest.raises(ValueError):
        check_trig(2, tol=0.0)


def test_trig_z2_hand_value():
    # Zx(2)(2) = 8 - 4 = 4 = 4 sin^2(pi/2)
    zx2 = UniPoly({1: 4, 2: -1})
    assert zx2.eval_float(2.0) == pytest.approx(4.0, abs=1e-12)


def test_chebyshev_bala():
    assert check_chebyshev_bala(1).passed  # l1(x+2) - 2 = x
    assert check_chebyshev_bala(2).passed  # (x+2)^2 - 4 = x^2 + 4x
    _all_pass(check_chebyshev_bala(n) for n in range(1, 26))
    with pytest.raises(ValueError):
        check_chebyshev_bala(0)


def test_l_doubling():
    assert check_l_doubling(1).passed  # l2 = l1(x^2 - 2)
    assert check_l_doubling(2).passed  # l4 = (x^2-2)^2 - 2
    _all_pass(check_l_doubling(n) for n in range(1, 26))
    with pytest.raises(ValueError):
        check_l_doubling(0)


def test_failing_comparison_builds_witness():
    result = compare_polynomials("demo", "n=1", 1, BiPoly.x(), BiPoly.s())
    assert not result.passed
    index, lhs, rhs = result.witness
    assert index == 1
    assert lhs == "x"
    assert rhs == "s"


def test_check_result_invariant():
    with pytest.raises(ValueError):
        CheckResult(name="bad", range="n=1", passed=True, witness=(1, "a", "b"))
    with pytest.raises(ValueError):
        CheckResult(name="bad", range="n=1", passed=False, witness=None)


def test_witness_is_truncated():
    big = BiPoly({(k, 0): 1 for k in range(60)})
    result = compare_polynomials("demo", "n=1", 1, big, BiPoly.zero())
    assert "more terms" in result.witness[1]


_INDEXED = {
    "check_cassini": check_cassini,
    "check_z_cassini": check_z_cassini,
    "check_lucas_binomial": lambda n: check_lucas_binomial(n, "even"),
    "check_z_binomial": check_z_binomial,
    "check_symmetry": check_symmetry,
    "check_coefficient_forms": check_coefficient_forms,
    "check_trig": check_trig,
    "check_chebyshev_bala": check_chebyshev_bala,
    "check_l_doubling": check_l_doubling,
    "binet_fibonacci": lambda n: binet_fibonacci(n, 1, 1),
    "binet_lucas": lambda n: binet_lucas(n, 1, 1),
    "binet_z": lambda n: binet_z(n, 1, 1),
    "triangle": triangle,
    "coefficient_c_n": lambda n: coefficient_c(n, 1),
    "coefficient_c_k": lambda n: coefficient_c(1, n),
    "expand": lambda n: expand(gf_of("fibonacci"), n),
    "BiPoly.__pow__": lambda n: BiPoly.x() ** n,
    "UniPoly.__pow__": lambda n: UniPoly.x() ** n,
    "QuadExt.__pow__": lambda n: QuadExt(1, 1, 2) ** n,
}


@pytest.mark.parametrize("call", _INDEXED.values(), ids=_INDEXED.keys())
def test_bool_index_rejected(call):
    # bool is an int subclass; an index of True is a caller's mistake, never 1.
    with pytest.raises(ValueError):
        call(True)
