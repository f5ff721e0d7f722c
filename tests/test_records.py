"""The contract of the four immutable records: construction by keyword and by
position, frozen fields, equality and hashing, and repr text."""

import pytest

from spreadpoly import BiPoly, CheckResult, RationalGF, Triangle
from spreadpoly.verify import SuiteReport

WITNESS = (3, "x", "s")
ROWS = ((1,), (4, 1))
GF_PARTS = ((BiPoly.zero(), BiPoly.one()), (BiPoly.one(), -BiPoly.x()))

# (class, positional fields, the same fields by keyword)
RECORDS = [
    (CheckResult, ("a", "n=1", WITNESS), {"name": "a", "range": "n=1", "witness": WITNESS}),
    (Triangle, (ROWS,), {"rows": ROWS}),
    (RationalGF, GF_PARTS, {"numerator": GF_PARTS[0], "denominator": GF_PARTS[1]}),
    (
        SuiteReport,
        ("s", "n=1..3", 3, (CheckResult("a", "n=1", WITNESS),)),
        {
            "name": "s",
            "detail": "n=1..3",
            "total": 3,
            "failures": (CheckResult("a", "n=1", WITNESS),),
        },
    ),
]

IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, args, kwargs", RECORDS, ids=IDS)
def test_keyword_and_positional_construction_agree(cls, args, kwargs):
    by_position, by_keyword = cls(*args), cls(**kwargs)
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    for name, value in kwargs.items():
        assert getattr(by_position, name) == value


@pytest.mark.parametrize("cls, args, kwargs", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(cls, args, kwargs):
    record = cls(*args)
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_check_result_defaults_and_repr():
    assert CheckResult("a", "b") == CheckResult("a", "b", None)
    assert CheckResult("a", "b").passed
    assert not CheckResult("a", "b", WITNESS).passed
    assert repr(CheckResult("a", "b")) == "CheckResult(name='a', range='b', witness=None)"


def test_suite_report_counts():
    report = SuiteReport("s", "n=1..3", 3, (CheckResult("a", "n=1", WITNESS),))
    assert (report.passed, report.ok) == (2, False)
    assert SuiteReport("s", "n=1..3", 3, ()).ok
    text = "SuiteReport(name='s', detail='d', total=0, failures=())"
    assert repr(SuiteReport("s", "d", 0, ())) == text


def test_triangle_checks_its_row_lengths():
    assert repr(Triangle(ROWS)) == "Triangle(rows=((1,), (4, 1)))"
    with pytest.raises(ValueError, match=r"^row 2 must have 2 entries, has 1$"):
        Triangle(rows=((1,), (4,)))
