"""DiscrepancyReport invariants: it holds the two moments and an error estimate, and derives
rho and b_opt from the moments in closed form."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, strategies as st

from zeropack.reports import DiscrepancyReport


def test_holds_only_what_was_measured():
    assert [f.name for f in dataclasses.fields(DiscrepancyReport)] == ["m1", "m2", "error_estimate"]


def test_closed_forms():
    rep = DiscrepancyReport(m1=0.35, m2=0.13, error_estimate=1e-9)
    assert rep.rho == pytest.approx(1.0 - 0.35**2 / 0.13, rel=1e-15)
    assert rep.b_opt == pytest.approx(0.35 / 0.13, rel=1e-15)


@given(
    m1=st.floats(1e-6, 10.0),
    ratio=st.floats(1.0, 50.0),
    err=st.floats(0.0, 1.0),
)
def test_always_valid(m1, ratio, err):
    # Any moments with m2 >= m1^2 must produce a report inside [0, 1].
    rep = DiscrepancyReport(m1=m1, m2=m1 * m1 * ratio, error_estimate=err)
    assert -1e-14 <= rep.rho <= 1.0
    assert rep.m1 == m1


@given(m1=st.floats(1e-150, 1e150), ratio=st.floats(1.0, 1e6))
def test_derived_values_are_the_closed_forms_bit_for_bit(m1, ratio):
    m2 = m1 * m1 * ratio
    rep = DiscrepancyReport(m1=m1, m2=m2, error_estimate=0.0)
    assert rep.rho == 1.0 - m1 * m1 / m2
    assert rep.b_opt == m1 / m2


def test_rejects_moment_order_violation():
    # m1^2 > m2 would mean a negative mean-square mismatch.
    with pytest.raises(ValueError):
        DiscrepancyReport(m1=1.0, m2=0.5, error_estimate=0.0)


@pytest.mark.parametrize("m1,m2", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0)])
def test_rejects_nonpositive_moments(m1, m2):
    with pytest.raises(ValueError):
        DiscrepancyReport(m1=m1, m2=m2, error_estimate=0.0)


def test_rejects_negative_error_estimate():
    with pytest.raises(ValueError):
        DiscrepancyReport(m1=0.5, m2=0.5, error_estimate=-1e-3)
