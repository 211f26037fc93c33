"""The explicit lower-bound constants and the tessellation arithmetic."""

import dataclasses
import math
import re
from fractions import Fraction

import pytest

from oracles import case_iia_quadrature
from zeropack.proof import case_iia_integral, proof_constants_report, schafli_area, schafli_solutions


class TestProofConstants:
    def test_case_iia_exact_value_and_quadrature_route(self):
        exact = case_iia_integral()
        assert exact == pytest.approx(case_iia_quadrature(), abs=1e-12)
        assert exact == pytest.approx(7.511952025519852e-05, abs=1e-18)
        assert exact > 1.0 / 14000.0

    def test_report_values_and_flags(self):
        rep = proof_constants_report()
        assert rep.case_iiba.value == pytest.approx(
            float(Fraction(1, 2214 * 15 * 27 * 27)) / math.pi, rel=1e-15
        )
        assert rep.case_iibb.value == pytest.approx(1.0 / 136161.0, rel=1e-15)
        assert rep.rho2 == pytest.approx(4.0 / 9.0 * 1.3e-8, rel=1e-15)
        assert rep.final_bound.value == pytest.approx(
            rep.rho2 / math.log(4.0 / 3.0), rel=1e-15
        )
        assert rep.all_pass

    def test_rho1_above_a_case_value_fails(self):
        rep = proof_constants_report()
        assert rep.rho1 <= rep.case_iiba.value
        too_big = dataclasses.replace(rep, rho1=1.1 * rep.case_iiba.value)
        assert not too_big.all_pass
        assert sorted(too_big.to_json_dict()) == sorted(rep.to_json_dict())

    def test_json_layout_is_exactly_six_fields(self):
        payload = proof_constants_report().to_json_dict()
        assert sorted(payload) == [
            "case_iia",
            "case_iiba",
            "case_iibb",
            "final_bound",
            "rho1",
            "rho2",
        ]
        assert sorted(payload["case_iia"]) == ["pass", "threshold", "value"]


class TestTessellations:
    def test_enumeration_is_exact(self):
        solutions = schafli_solutions()
        assert [(p, q) for p, q, _ in solutions] == [
            (5, 10),
            (6, 6),
            (8, 4),
            (12, 3),
        ]
        assert all(area == Fraction(1, 2) for _, _, area in solutions)

    def test_area_formula_spot_checks(self):
        area, exists = schafli_area(7, 3)
        assert area == Fraction(1, 12)
        assert exists
        area, exists = schafli_area(3, 3)
        assert area == Fraction(-1, 4)
        assert not exists

    def test_validation(self):
        with pytest.raises(ValueError):
            schafli_area(2, 5)

    @pytest.mark.parametrize("p, q, name, value", [(3.5, 6, "p", 3.5), (7, 3.0, "q", 3.0),
                                                   (True, 6, "p", True), (7, False, "q", False)])
    def test_non_integer_sides_are_refused_by_name(self, p, q, name, value):
        # A ValueError (exit code 2 in the CLI contract), not the TypeError of Fraction.
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be an integer, got {value!r}')}$"):
            schafli_area(p, q)
