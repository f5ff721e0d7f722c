"""The verify sweeps: each streams its ladders once and hands every check the
members a standalone call would build for itself."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadpoly import (
    BiPoly,
    FIBONACCI_METHODS,
    LUCAS_METHODS,
    Z_METHODS,
    ZX_METHODS,
    chebyshev_t,
    fibonacci,
    lucas,
    spread_z_univariate,
    univariate_l,
    z_polynomial,
)
from spreadpoly import cli, gf, identities, poly, sequences, verify
from spreadpoly.identities import compare_polynomials

N = 15

# Per-n suite -> (its check, the members check n reads, by single-n builders).
PER_N = {
    "cassini": ("check_cassini", lambda n: [fibonacci(k) for k in range(n + 2)]),
    "z_cassini": ("check_z_cassini", lambda n: [z_polynomial(k) for k in range(n + 2)]),
    "z_binomial": ("check_z_binomial", lambda n: [z_polynomial(k) for k in range(n + 1)]),
    "symmetry": (
        "check_symmetry",
        lambda n: (spread_z_univariate(n, "via_l"), z_polynomial(n)),
    ),
    "chebyshev": (
        "check_chebyshev_bala",
        lambda n: (
            chebyshev_t(n),
            univariate_l(n),
            spread_z_univariate(n, "via_l"),
            z_polynomial(n),
        ),
    ),
    "doubling": (
        "check_l_doubling",
        lambda n: (
            univariate_l(2 * n),
            univariate_l(n),
            spread_z_univariate(n, "via_l2n"),
            spread_z_univariate(n, "via_l"),
        ),
    ),
}


def _recording(check, calls):
    def recorded(*args):
        calls.append(args)
        return check(*args)

    return recorded


def _same_members(streamed, built):
    # A bivariate check reads a prefix of the list its sweep holds.
    if isinstance(built, list):
        return list(streamed[: len(built)]) == built
    return tuple(streamed) == built


@pytest.mark.parametrize("suite", sorted(PER_N))
def test_sweep_hands_each_check_its_own_members(suite, monkeypatch):
    name, members_of = PER_N[suite]
    check = getattr(identities, name)
    calls = []
    monkeypatch.setattr(verify, name, _recording(check, calls))
    report = verify.SUITES[suite](N)
    assert [n for n, _ in calls] == list(range(1, N + 1))
    for n, members in calls:
        assert _same_members(members, members_of(n)), n
    standalone = [check(n) for n in range(1, N + 1)]
    assert report == verify._collect(suite, report.detail, standalone)


def test_lucas_binomial_sweep_hands_each_check_its_own_members(monkeypatch):
    check = identities.check_lucas_binomial
    calls = []
    monkeypatch.setattr(verify, "check_lucas_binomial", _recording(check, calls))
    report = verify.SUITES["lucas_binomial"](N)
    expected = [(n, parity) for n in range(N + 1) for parity in ("even", "odd")]
    assert [(n, parity) for n, parity, _ in calls] == expected
    for n, parity, members in calls:
        top = 2 * n + (parity == "odd")
        assert _same_members(members, [lucas(k) for k in range(top + 1)]), (n, parity)
    standalone = [check(n, parity) for n, parity in expected]
    assert report == verify._collect("lucas_binomial", report.detail, standalone)


@pytest.mark.parametrize("suite", ["cassini", "lucas_binomial", "z_binomial", "z_cassini"])
def test_bivariate_sweep_packs_its_list_once_for_every_check(suite, monkeypatch):
    # One _pack call in the whole sweep, in verify or in a check, and every
    # check is handed that very packing.
    name = f"check_{suite}"
    calls, packings = [], []
    pack = identities._pack

    def recorded_pack(*args):
        packings.append(pack(*args))
        return packings[-1]

    monkeypatch.setattr(verify, "_pack", recorded_pack)
    monkeypatch.setattr(identities, "_pack", recorded_pack)
    monkeypatch.setattr(verify, name, _recording(getattr(identities, name), calls))
    assert verify.SUITES[suite](N).ok
    assert len(packings) == 1
    assert calls and all(args[-1] is packings[0] for args in calls)


def test_passing_sweeps_decide_every_packed_check_on_integers(monkeypatch):
    # A check that falls back to its polynomials prints the same report, so
    # only a count of the fallbacks shows that its packed route was skipped
    # (say, by a wrong degree in its degree map).
    failed = identities._failed
    calls = []
    monkeypatch.setattr(identities, "_failed", lambda *args: calls.append(args) or failed(*args))
    for suite in ("cassini", "z_cassini", "lucas_binomial", "z_binomial", "chebyshev", "doubling"):
        assert verify.SUITES[suite](54).ok
    assert calls == []


@pytest.mark.parametrize("max_n", [0, -1, True, 2.0])
@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_sweep_rejects_a_max_n_that_is_not_an_int_of_at_least_one(suite, max_n):
    with pytest.raises(ValueError, match=rf"^max_n must be an integer >= 1, got {max_n!r}$"):
        verify.SUITES[suite](max_n)


def test_cross_method_matches_single_n_builders():
    routes = (
        ("z", z_polynomial, Z_METHODS),
        ("fibonacci", fibonacci, FIBONACCI_METHODS),
        ("lucas", lucas, LUCAS_METHODS),
        ("zx", spread_z_univariate, ZX_METHODS),
    )
    standalone = [
        compare_polynomials(
            f"{family}:{method}", f"n={n}", n, build(n, method), build(n, methods[0])
        )
        for n in range(N + 1)
        for family, build, methods in routes
        for method in methods[1:]
        if n or method != "from_fib"
    ]
    report = verify.SUITES["cross_method"](N)
    assert report == verify._collect("cross_method", report.detail, standalone)


@pytest.mark.parametrize(
    "builder, family, method",
    [
        ("z_polynomial", "z", "recurrence"),
        ("lucas", "lucas", "from_fib"),
        ("spread_z_univariate", "zx", "via_l2n"),
    ],
)
def test_cross_method_checks_the_builders_at_its_last_n(builder, family, method, monkeypatch):
    # A builder whose own wiring is wrong prints a wrong `gen` result even
    # where its stream is right: the sweep must catch it at its last n.
    build = getattr(verify, builder)
    passing = verify.SUITES["cross_method"](N)

    def off_at_the_last_n(n, **options):
        built = build(n, **options)
        return built + 1 if (n, options["method"]) == (N, method) else built

    monkeypatch.setattr(verify, builder, off_at_the_last_n)
    assert verify.SUITES["cross_method"](N - 1).ok
    report = verify.SUITES["cross_method"](N)
    assert [(f.name, f.range) for f in report.failures] == [(f"{family}:{method}", f"n={N} builder")]
    assert report.total == passing.total + 1


def test_cross_method_reports_routes_refused_with_no_member_left(monkeypatch, capsys):
    # A skew of the shared kernel, far past any slot, refuses every Zx route
    # at once (from_bivariate at n = 0, via_l and via_l2n at n = 1).  Each
    # refusal is its own failing check, whose other side says that no route
    # gave a member; no traceback.
    add_to = poly._Shifts.add_to
    monkeypatch.setattr(poly._Shifts, "add_to", lambda self, t, a: add_to(self, t, a) + (1 << 4000))
    assert not verify.SUITES["cross_method"](10).ok
    assert cli.main(["verify", "cross_method", "--max-n", "10"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    for method in ZX_METHODS:
        assert f"  witness [zx:{method} n=" in out
    assert out.count("    rhs: no route gave a member\n") == 2
    assert out.startswith("cross_method     n=0..10, all constructions                   9/19 FAIL\n")
    assert out.endswith("1 suite(s): FAILURES PRESENT\n")


@pytest.mark.parametrize("suite", sorted([*PER_N, "lucas_binomial", "cross_method"]))
def test_sweep_draws_linearly_many_ladder_members(suite, monkeypatch):
    # Streamed once per sweep, a ladder draws a N + b members (b >= 0); a
    # check that rebuilds its ladder from index 0 draws ~a N^2 over a sweep.
    # The draws of _ladder and of the Z recurrence's own loop both count.
    drawn = 0

    def counting(ladder):
        def draws(*args):
            nonlocal drawn
            for member in ladder(*args):
                drawn += 1
                yield member

        return draws

    monkeypatch.setattr(sequences, "_ladder", counting(sequences._ladder))
    first, z_ladder, *rest = sequences._ROUTES["z", "recurrence"]
    monkeypatch.setitem(sequences._ROUTES, ("z", "recurrence"), (first, counting(z_ladder), *rest))
    counts = []
    for max_n in (10, 20):
        drawn = 0
        assert verify.SUITES[suite](max_n).ok
        counts.append(drawn)
    assert 0 < counts[1] <= 2 * counts[0], counts


def test_binet_rational_route_catches_a_skewed_integral_point(monkeypatch):
    # The closed form and the doubling kernel both run at the integral point
    # (X, S, lam).  With lam doubled they still agree with each other; only
    # the ladder polynomial, evaluated at the rational point itself, sees it.
    integral_point = verify._integral_point

    def skewed(x0, s0):
        x, s, lam = integral_point(x0, s0)
        return x, s, 2 * lam

    monkeypatch.setattr(verify, "_integral_point", skewed)
    failures = verify.SUITES["binet"](N).failures
    assert {f.name for f in failures} == {"binet_fib_lucas"}
    assert len({f.range.split(" at ")[1] for f in failures}) == verify._BINET_POINTS
    for f in failures:
        _, lhs, rhs = f.witness
        evaluated, doubled = rhs.split("; ")
        assert doubled == lhs.replace("binet ", "doubling ")
        assert evaluated != lhs.replace("binet ", "evaluated ")


def test_binet_fails_at_n3_alone_on_a_skewed_ladder_member(monkeypatch):
    # F(3) off by one in the ladder the suite evaluates: every random point
    # fails at n = 3, and nothing else fails.
    fib_list = verify._fib_list

    def skewed(m):
        members = list(fib_list(m))
        members[3] = members[3] + 1
        return members

    monkeypatch.setattr(verify, "_fib_list", skewed)
    failures = verify.SUITES["binet"](N).failures
    expected = [("binet_fib_lucas", 3)] * verify._BINET_POINTS
    assert [(f.name, f.witness[0]) for f in failures] == expected
    assert len({f.range for f in failures}) == verify._BINET_POINTS


# Per recurrence route, with x^5 added to member 5 of its packed ladder: a
# check called with n alone that reads member 5, and what each suite to n = 9
# reports, as (check, n); a suite not named reports nothing.
_SKEWED_MEMBER_5 = {
    "fibonacci": (lambda: identities.check_cassini(5), {
        "cassini": {("cassini", n) for n in (4, 5, 6)},
        "cross_method": {("fibonacci:closed", 5)},
        "binet": {("binet_fib_lucas", 5)},
        "gf": {("gf_fibonacci", 5)},
    }),
    "lucas": (lambda: identities.check_lucas_binomial(2, "odd"), {
        "lucas_binomial": {("lucas_binomial_odd", n) for n in range(2, 10)},
        "cross_method": {("lucas:closed", 5), ("lucas:from_fib", 5)},
        "binet": {("binet_fib_lucas", 5)},
        "gf": {("gf_lucas", 5)},
    }),
    "z": (lambda: identities.check_z_binomial(5), {
        "z_cassini": {("z_cassini", n) for n in (4, 5, 6)},
        "z_binomial": {("z_binomial", n) for n in range(5, 10)},
        "symmetry": {("symmetry", 5)},
        "coefficients": {("coefficients_match_z", 5)},
        "chebyshev": {("chebyshev_bala", 5)},
        "cross_method": {(f"z:{method}", 5) for method in Z_METHODS[1:]},
        "binet": {("binet_z", 5)},
        "gf": {("gf_z_shifted", 4)},
    }),
}


@pytest.mark.parametrize("family", sorted(_SKEWED_MEMBER_5))
def test_every_suite_reads_the_packed_route_gen_runs(family, monkeypatch):
    # The member lists of the sweeps and of checks called with n alone are
    # the recurrence route's own members, so a wrong member there fails
    # every suite that reads that family, not only the streamed ones.
    route = (family, "recurrence")
    first, ladder, bound, member = sequences._ROUTES[route]

    def skewed(state, width, top, n):
        return member(state, width, top, n) + BiPoly.monomial(int(n == 5), 5, 0)

    monkeypatch.setitem(sequences._ROUTES, route, (first, ladder, bound, skewed))
    reported = {
        name: {(f.name, f.witness[0]) for f in suite(9).failures}
        for name, suite in verify.SUITES.items()
    }
    lone, expected = _SKEWED_MEMBER_5[family]
    assert not lone().passed
    assert reported == {name: expected.get(name, set()) for name in verify.SUITES}


def _skew_s_point(monkeypatch):
    # The S ladder at x = 2 - 8 * 2^W where 2 - 4 * 2^W belongs: S(n)(2x) is
    # read back, until a member no longer fits its slots.
    l_at = sequences._l_at
    monkeypatch.setattr(sequences, "_l_at", lambda shift, blocks: l_at(shift + (shift == 2), blocks))


def _skew_s_reader(monkeypatch):
    # The S ladder's reader given 4 less: S(n) + 1.
    first, ladder, bound, member = sequences._ROUTES["s", "via_l"]
    skewed = (first, ladder, bound, lambda value, *rest: member(value - 4, *rest))
    monkeypatch.setitem(sequences._ROUTES, ("s", "via_l"), skewed)


@pytest.mark.parametrize("skew", [_skew_s_point, _skew_s_reader], ids=["point", "reader"])
def test_a_skewed_s_ladder_fails_closed_rows_and_no_other_suite(skew, monkeypatch):
    # `gen` and the trig suite run the S row, so closed_rows is the one suite
    # that reads the S ladder.  A refused member fails its route, which is
    # read no further.
    passing = verify.SUITES["closed_rows"](9)
    assert passing.ok and passing.total == 3 * 10
    skew(monkeypatch)
    reported = {name: suite(9).ok for name, suite in verify.SUITES.items()}
    assert reported == {name: name != "closed_rows" for name in verify.SUITES}
    failures = verify.SUITES["closed_rows"](9).failures
    assert {f.name for f in failures} == {"s:via_l"}
    refused = [f for f in failures if f.witness[1].startswith("refused: ")]
    assert refused in ([], [failures[-1]])


@pytest.mark.parametrize(
    "route", [("l", "recurrence"), ("t", "recurrence"), ("s", "via_l")], ids=":".join
)
def test_closed_rows_checks_the_ladder_builders_at_its_last_n(route, monkeypatch):
    # A ladder builder whose own wiring is wrong, where its stream is right:
    # the sweep must catch it at its last n, in one added result.
    built = verify._built
    passing = verify.SUITES["closed_rows"](N)

    def off_at_the_last_n(family, method, n):
        return built(family, method, n) + ((family, method, n) == (*route, N))

    monkeypatch.setattr(verify, "_built", off_at_the_last_n)
    assert verify.SUITES["closed_rows"](N - 1).ok
    report = verify.SUITES["closed_rows"](N)
    assert [(f.name, f.range) for f in report.failures] == [(":".join(route), f"n={N} builder")]
    assert report.total == passing.total + 1


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=20)


@settings(deadline=None)
@given(
    st.sampled_from([fibonacci, lucas, z_polynomial]),
    st.integers(0, 30),
    st.integers(0, 10),
    rationals,
    rationals,
)
def test_term_sum_over_sweep_tables_is_evaluate(build, n, spare, x0, s0):
    # The binet suite's tables cover every degree up to its max_n, not just
    # the member's own, as evaluate's do.
    member = build(n)
    degrees = range(n + spare + 1)
    (px, den_x), (ps, den_s) = poly._scaled_powers(x0, degrees), poly._scaled_powers(s0, degrees)
    assert Fraction(member._term_sum(px, ps), den_x * den_s) == member.evaluate(x0, s0)


def test_series_and_ladders_share_no_accumulate(monkeypatch):
    # gf compares the dict-arithmetic series with the packed ladders (the
    # z_shifted denominator is exactly the Z ladder's weights).  A skew of
    # the packed accumulate, +1 in the lowest slot of every total it returns,
    # must show: were the series run through it too, both sides would move
    # together and agree.
    add_to = poly._Shifts.add_to
    monkeypatch.setattr(poly._Shifts, "add_to", lambda self, total, a: add_to(self, total, a) + 1)
    assert not verify.SUITES["gf"](10).ok


def test_series_and_ladders_share_no_product_loop(monkeypatch):
    # The series subtracts D(j) a(n-j) through the ring's product loop, which
    # BiPoly multiplication also runs (on its add path); no packed ladder runs
    # it.  A skew of the subtract path alone fails gf and leaves every route
    # of cross_method in agreement.
    add_product = poly._add_product

    def skewed(acc, p, q, sign=1):
        add_product(acc, p, q, sign)
        if sign < 0:
            acc[0, 0] = acc.get((0, 0), 0) + 1
        return acc

    monkeypatch.setattr(poly, "_add_product", skewed)
    monkeypatch.setattr(gf, "_add_product", skewed)
    assert not verify.SUITES["gf"](10).ok
    assert verify.SUITES["cross_method"](N).ok


def test_gf_at_max_n_one_compares_the_z_series_too():
    # Two members each of F and L, and Z(1) against the z_shifted series'
    # coefficient 0.
    report = verify.SUITES["gf"](1)
    assert report.ok and report.total == 5


def test_failing_fixture_row_counts_and_witness(monkeypatch):
    # One entry of fixture row 3 off by one: that row alone fails, and its
    # witness is the computed row against the fixture's.
    rows = verify.a156308_rows

    def skewed():
        fixture = [list(row) for row in rows()]
        fixture[2][1] += 1
        return fixture

    monkeypatch.setattr(verify, "a156308_rows", skewed)
    report = verify.SUITES["coefficients"](4)
    assert (report.total, report.passed) == (12, 11)
    assert report.failures == (
        identities.CheckResult("a156308_fixture", "row 3", (3, "[9, 6, 1]", "[9, 7, 1]")),
    )


# sha256 of `verify binet --max-n 2` stdout with the doubling route of Z off
# by one: binet_z fails at every grid point and n, each witness written from
# the closed form and the term sum (78 witnesses).
_BINET_Z_WITNESS_SHA256 = "202bcf0809de042cdc7fd6a7a9732a6c8d01447fb57f99e9c25ec29cf9c5d1bf"


def test_binet_z_witness_text_is_pinned(monkeypatch, capsys):
    z_at = verify.z_at
    monkeypatch.setattr(verify, "z_at", lambda n, x, s: z_at(n, x, s) + 1)
    assert cli.main(["verify", "binet", "--max-n", "2"]) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _BINET_Z_WITNESS_SHA256
