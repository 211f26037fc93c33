"""Triangular-lattice profile density, its invariances, and the planar GAF MC."""

from __future__ import annotations

import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import poisson

from zeropack import planar
from zeropack.numerics import RngStream, _polar_values, _term_scales, sample_complex_gaussians
from zeropack.weierstrass import make_context
from zeropack.planar import (
    _MAX_GRID,
    TriangularProfile,
    TruncationError,
    _ladder_means,
    density_curve,
    log_profile,
    make_triangular_profile,
    planar_gaf_expected,
    planar_gaf_mc,
    planar_gaf_tail,
    planar_gaf_truncation,
    planar_lattice_density,
)


class TestProfileConstruction:
    def test_spacing_normalizes_cell_area(self, profile):
        # 2*omega1 = sqrt(pi)/3^{1/4} makes the rhombus area exactly 1/2
        # in the dA = dx dy / pi normalization.
        ctx = profile.ctx
        assert ctx.omega1 == pytest.approx(math.sqrt(math.pi) / (2.0 * 3.0**0.25), rel=1e-15)
        p1, p2 = 2.0 * ctx.omega1, 2.0 * ctx.omega2
        assert abs((p1.conjugate() * p2).imag) / math.pi == pytest.approx(0.5, abs=1e-15)

    def test_weight_scale_validation(self):
        with pytest.raises(ValueError):
            make_triangular_profile(0.0)
        with pytest.raises(ValueError):
            make_triangular_profile(-2.0)

    @settings(max_examples=25, deadline=None)
    @given(s=st.floats(0.02, 0.98), t=st.floats(0.02, 0.98))
    def test_profile_is_doubly_periodic(self, s, t):
        # The quadratic twist eta is exactly what cancels the quasi-period
        # growth of sigma, so log P must repeat on the lattice.
        p = make_triangular_profile()
        z = 2.0 * p.ctx.omega1 * s + 2.0 * p.ctx.omega2 * t
        base = float(log_profile(p, z))
        for dm, dn in ((1, 0), (0, 1), (-1, 2)):
            shifted = z + 2.0 * p.ctx.omega1 * dm + 2.0 * p.ctx.omega2 * dn
            assert float(log_profile(p, shifted)) == pytest.approx(
                base, abs=2e-11
            )

    def test_log_profile_finite_off_lattice(self, profile):
        assert math.isfinite(float(log_profile(profile, 0.3 + 0.2j)))
        assert float(log_profile(profile, 0.0)) == -math.inf  # lattice zero


class TestLatticeDensity:
    def test_headline_beta_one(self, profile):
        rep = planar_lattice_density(1.0, 256, profile=profile)
        assert rep.rho == pytest.approx(0.0612035, abs=1e-5)
        assert rep.error_estimate < 1e-5

    def test_moment_consistency_between_exponents(self, profile):
        # The 2*beta first moment is the beta second moment on the same grid.
        a = planar_lattice_density(1.0, 128, profile=profile)
        b = planar_lattice_density(2.0, 128, profile=profile)
        assert a.m2 == pytest.approx(b.m1, rel=1e-14)

    def test_weight_scale_invariance(self):
        # Rescaling the weight and the lattice together is an exact symmetry
        # of the density; the midpoint grid maps onto itself, so the values
        # agree to rounding.
        base = planar_lattice_density(1.5, 128, profile=make_triangular_profile(1.0))
        for c in (0.5, 2.0, 7.3):
            other = planar_lattice_density(
                1.5, 128, profile=make_triangular_profile(c)
            )
            assert other.rho == pytest.approx(base.rho, abs=1e-10)

    def test_constant_profile_extrapolates_to_zero_density(self, profile, monkeypatch):
        # A constant profile P = 2.5 has the same midpoint mean on every ladder level; the
        # extrapolation of a constant sequence returns it, so rho = 0.
        logs, counts, bounds, sizes, _ = planar._log_profile_ladder(profile, 64)
        flat = np.full(logs.size, math.log(2.5))
        ladder = (flat, counts, bounds, sizes, math.log(2.5))
        monkeypatch.setattr(planar, "_log_profile_ladder", lambda p, top: ladder)
        rep = planar_lattice_density(1.0, 64)
        assert abs(rep.rho) < 1e-14
        assert rep.b_opt == pytest.approx(1.0 / 2.5, rel=1e-12)

    def test_ladder_means_match_direct_average(self, profile):
        # The raw midpoint means of P^2 and P^4 at m = 64, the finest level of the 64
        # ladder, against np.mean over the pointwise log_profile on the same grid.
        p1 = 2.0 * profile.ctx.omega1
        p2 = 2.0 * profile.ctx.omega2
        s = (np.arange(64) + 0.5) / 64
        Z = p1 * s[None, :] + p2 * s[:, None]
        lp = log_profile(profile, Z)
        means1, means2 = _ladder_means(profile, 2.0, 64)
        assert planar._log_profile_ladder(profile, 64)[3][-1] == 64
        m1 = float(np.mean(np.exp(2.0 * lp)))
        m2 = float(np.mean(np.exp(4.0 * lp)))
        assert means1[-1] == pytest.approx(m1, rel=1e-13)
        assert means2[-1] == pytest.approx(m2, rel=1e-13)

    # Even 2 beta (1, 2), 2 beta >= 51 (26, 60.5) and small beta (1e-3, 0.01) among the rest.
    @pytest.mark.parametrize("beta", [1e-3, 0.01, 0.25, 0.7, 1.0, 2.0, 3.3, 26.0, 60.5, 200.0])
    @pytest.mark.parametrize("top", [16, 24, 128])
    def test_one_exponential_gives_both_level_means(self, profile, beta, top):
        # P^beta is the same exponential, orbit weighting and pairwise sum per level as a direct
        # np.exp(beta * logs) * counts, so its means are bitwise those; P^(2 beta) is its
        # square, not a second exponential, and stays within 4 ulp of np.exp(2 * beta * logs).
        logs, counts, bounds, sizes, _ = planar._log_profile_ladder(profile, top)
        areas = [m * m for m in sizes.tolist()]
        direct1 = (np.add.reduceat(np.exp(beta * logs) * counts, bounds[:-1]) / areas).tolist()
        direct2 = (np.add.reduceat(np.exp(2.0 * beta * logs) * counts, bounds[:-1]) / areas).tolist()
        means1, means2 = _ladder_means(profile, beta, top)
        assert sizes.tolist() == [top >> 3, top >> 2, top >> 1, top]  # halving levels
        assert means1 == direct1
        for got, want in zip(means2, direct2):
            assert abs(got - want) <= 4.0 * math.ulp(want)

    @pytest.mark.parametrize("beta", [1e-3, 0.25, 1.0, 3.3, 26.0, 200.0])
    @pytest.mark.parametrize("top", [16, 24, 104, 128])
    def test_folded_means_match_the_full_grid(self, profile, beta, top):
        # Against np.mean(np.exp(e * log P)) over all m^2 points of each level.  The orbit
        # mean of log P rounds to an ulp of its largest value, which the exponential scales
        # by e; the sums add a few ulps.
        means1, means2 = _ladder_means(profile, beta, top)
        for k, m in enumerate(planar._log_profile_ladder(profile, top)[3].tolist()):
            rows = planar._log_profile_rows(profile, m)
            for e, got in ((beta, means1[k]), (2.0 * beta, means2[k])):
                want = float(np.mean(np.exp(e * rows)))
                bound = 4.0 * np.finfo(float).eps * (1.0 + e * float(np.max(np.abs(rows))))
                assert abs(got - want) <= bound * want

    @pytest.mark.parametrize("top", [16, 24, 104, 128])
    def test_orbit_sizes_cover_each_level(self, profile, top):
        # 4 points in general, 2 on either diagonal, 1 at the centre of an odd m (3, 13).
        logs, counts, bounds, sizes, reach = planar._log_profile_ladder(profile, top)
        assert sizes.tolist() == [top >> 3, top >> 2, top >> 1, top]
        assert bounds[0] == 0 and bounds[-1] == logs.size == counts.size
        assert not any(a.flags.writeable for a in (logs, counts, bounds, sizes))
        assert reach == np.max(np.abs(logs))
        for a, b, m in zip(bounds, bounds[1:], sizes):
            level = counts[a:b]
            assert set(level.tolist()) <= {1.0, 2.0, 4.0}
            assert level.sum() == m * m
            assert np.count_nonzero(level == 1.0) == m % 2
            assert np.count_nonzero(level == 2.0) == 2 * (m // 2)

    @pytest.mark.parametrize("top", [24, 104, 128])
    def test_each_representative_matches_its_partners(self, profile, top):
        # Representative (i, j), i <= j and i + j <= m - 1, in row-major order, against
        # log_profile at (i, j), (j, i), (m-1-i, m-1-j) and (m-1-j, m-1-i).
        logs, counts, bounds, sizes, _ = planar._log_profile_ladder(profile, top)
        p1, p2 = 2.0 * profile.ctx.omega1, 2.0 * profile.ctx.omega2
        for a, b, m in zip(bounds.tolist(), bounds[1:].tolist(), sizes.tolist()):
            reps = [(i, j) for i in range(m) for j in range(i, m) if i + j <= m - 1]
            assert len(reps) == b - a
            i, j = np.array(reps).T
            covered = set()
            for u, v in ((i, j), (j, i), (m - 1 - i, m - 1 - j), (m - 1 - j, m - 1 - i)):
                covered.update(zip(u.tolist(), v.tolist()))
                z = p1 * (u + 0.5) / m + p2 * (v + 0.5) / m
                assert np.max(np.abs(log_profile(profile, z) - logs[a:b])) <= planar._ORBIT_TOL
            assert len(covered) == m * m

    @pytest.mark.parametrize("top", [24, 128])
    def test_view_fold_equals_a_gather_fold_bitwise(self, profile, top):
        # The four partners gathered by flat index and averaged by np.mean, which adds them in
        # the order (i, j), (j, i), (m-1-i, m-1-j), (m-1-j, m-1-i), against the ladder's sums
        # of transposed and reversed views.
        logs, counts, bounds, sizes, _ = planar._log_profile_ladder(profile, top)
        for a, b, m in zip(bounds.tolist(), bounds[1:].tolist(), sizes.tolist()):
            k = np.arange(m)
            f = np.flatnonzero((k[:, None] <= k) & (k[:, None] + k <= m - 1))
            i, j = np.divmod(f, m)
            g = j * m + i
            flat = planar._log_profile_rows(profile, m).ravel()
            partners = flat[np.stack([f, g, m * m - 1 - f, m * m - 1 - g])]
            assert logs[a:b].tobytes() == partners.mean(axis=0).tobytes()
            weights = 4.0 / ((1.0 + (i == j)) * (1.0 + (i + j == m - 1)))
            assert counts[a:b].tobytes() == weights.tobytes()

    def test_profile_without_the_grid_symmetry_is_refused(self):
        # A hand-built profile on a lattice that is not equilateral: folding its grid into
        # orbits would be wrong, so the ladder raises.
        ctx = make_context(0.9, 1.1 * cmath.exp(1.2j))
        bad = TriangularProfile(ctx=ctx, eta=1.0 - ctx.eta1 / (2.0 * ctx.omega1), weight_scale=1.0)
        with pytest.raises(ValueError, match="not symmetric"):
            planar_lattice_density(1.0, 64, profile=bad)

    @pytest.mark.filterwarnings("error")
    def test_underflow_threshold(self, profile):
        # The mean of P^(2 beta) leaves the normal range between beta = 428.32 and 428.33.
        assert math.isfinite(planar_lattice_density(428.0, 512, profile=profile).rho)
        for beta in (429.0, 460.0):
            with pytest.raises(ArithmeticError, match="underflows"):
                planar_lattice_density(beta, 512, profile=profile)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            planar_lattice_density(0.0, 64)
        with pytest.raises(ValueError):
            planar_lattice_density(1.0, 8)

    @pytest.mark.parametrize("grid", [64.0, 512.0, 256.5, "512", None])
    def test_grid_that_is_not_an_integer_is_rejected(self, grid):
        with pytest.raises(ValueError, match="grid_m must be an integer"):
            planar_lattice_density(1.0, grid)

    def test_numpy_integer_grid_is_accepted(self, profile):
        assert planar_lattice_density(1.0, np.int64(512), profile=profile) == planar_lattice_density(
            1.0, 512, profile=profile
        )

    @pytest.mark.parametrize("beta, weight_scale, error", [
        (1e300, 1.0, "underflows"),  # e * log P overflows to -inf: every P^e is 0
        (1e3, 0.01, "overflows"),  # log P reaches 1.48 on the wide lattice
        (1e300, 0.01, "overflows"),
    ])
    def test_huge_beta_raises_without_a_warning(self, beta, weight_scale, error):
        profile = make_triangular_profile(weight_scale)
        with pytest.raises(ArithmeticError, match=error):
            planar_lattice_density(beta, 16, profile=profile)

    @pytest.mark.parametrize("grid, top", [(17, 24), (100, 104), (121, 128)])
    def test_grid_rounds_up_to_a_multiple_of_8(self, profile, grid, top):
        for beta in (0.5, 1.0, 3.0):
            rep = planar_lattice_density(beta, grid, profile=profile)
            assert rep == planar_lattice_density(beta, top, profile=profile)
            assert rep != planar_lattice_density(beta, top - 8, profile=profile)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("top", [16, 128])
    def test_overflow_is_only_silenced_past_the_safe_log(self, top):
        # On the wide lattice of weight scale 1e-4, log P reaches 3.78.  Up to
        # beta * max|log P| = _SAFE_LOG no product or level sum overflows, and the call runs
        # with numpy's overflow warnings live; 5% further the mean of P^(2 beta) is inf.
        profile = make_triangular_profile(1e-4)
        beta = planar._SAFE_LOG / planar._log_profile_ladder(profile, top)[4]
        assert math.isfinite(planar_lattice_density(beta, top, profile=profile).rho)
        with pytest.raises(OverflowError, match="overflows"):
            planar_lattice_density(1.05 * beta, top, profile=profile)

    def test_grid_above_cap_is_rejected_before_any_work(self, monkeypatch):
        calls = []
        monkeypatch.setattr(planar, "_log_profile_ladder", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="grid_m"):
            planar_lattice_density(1.0, _MAX_GRID + 1)
        assert calls == []


# rho(beta) to 25 digits: Richardson-extrapolated midpoint sums at grids up to 2048,
# cross-checked against mpmath.jtheta (bench/references.json, "rho_digits").
RHO_DIGITS = {
    0.25: "0.007035675065741701554229274",
    0.5: "0.02240308304574546375651728",
    1.0: "0.06120349908363091887640876",
    2.0: "0.137630146923403155015495",
    3.0: "0.2011585634446164218393179",
    4.0: "0.2531657997778131868965291",
}


class TestExtrapolatedDensity:
    # 17 and 100 round up to the ladders 3, 6, 12, 24 and 13, 26, 52, 104, whose levels are not
    # powers of two and whose coarsest is odd; the 3-24 ladder reaches about 1e-8 relative.
    @pytest.mark.parametrize("grid, rel", [(17, 1e-6), (100, 1e-12), (256, 1e-12), (512, 1e-12),
                                           (1024, 1e-12)], ids=["17", "100", "256", "512", "1024"])
    @pytest.mark.parametrize("beta", sorted(RHO_DIGITS))
    def test_matches_reference_within_its_estimate(self, profile, beta, grid, rel):
        rep = planar_lattice_density(beta, grid, profile=profile)
        ref = mpmath.mpf(RHO_DIGITS[beta])
        error = abs(float(mpmath.mpf(rep.rho) - ref))
        assert error <= rel * float(ref)
        assert rep.error_estimate >= error

    def test_grids_above_the_ladder_top_share_its_result(self, profile):
        assert planar_lattice_density(1.0, 128, profile=profile) == planar_lattice_density(
            1.0, 8192, profile=profile
        )


class TestDensityCurve:
    def test_rows_match_individual_calls(self, profile):
        rows = density_curve([0.5, 1.0], 64, profile=profile)
        solo = planar_lattice_density(0.5, 64, profile=profile)
        assert rows[0][0] == 0.5
        assert rows[0][1].rho == solo.rho

    def test_input_validation(self):
        with pytest.raises(ValueError):
            density_curve([], 64)
        with pytest.raises(ValueError):
            density_curve([1.0, 1.0], 64)
        with pytest.raises(ValueError):
            density_curve([2.0, 1.0], 64)
        with pytest.raises(ValueError):
            density_curve([-1.0, 1.0], 64)


class TestPlanarGaf:
    def test_expected_value_minimum(self):
        b = math.sqrt(math.pi) / 2.0
        assert planar_gaf_expected(b) == pytest.approx(1.0 - math.pi / 4.0, rel=1e-15)
        assert planar_gaf_expected(b - 0.05) > planar_gaf_expected(b)
        assert planar_gaf_expected(b + 0.05) > planar_gaf_expected(b)
        with pytest.raises(ValueError):
            planar_gaf_expected(0.0)

    def test_tail_bound_decreasing_and_truncation_minimal(self):
        R = 3.0
        N = planar_gaf_truncation(R, 1e-8)
        assert planar_gaf_tail(R, N) < 1e-8
        assert planar_gaf_tail(R, N - 1) >= 1e-8
        assert planar_gaf_tail(R, N + 10) < planar_gaf_tail(R, N)

    @pytest.mark.parametrize("R", [0.5, 1.0, 2.0, 4.0, 12.0, 30.0, 60.0])
    def test_truncation_matches_candidate_by_candidate_search(self, R):
        # The search the one-pass truncation replaces: the full tail bound for each
        # candidate degree in turn.
        N = max(8, int(2.0 * R * R))
        while planar_gaf_tail(R, N) >= 1e-8:
            N += 1
        assert planar_gaf_truncation(R, 1e-8) == N

    def test_truncation_validation(self):
        for R, tol in ((0.0, 1e-8), (2.0, 0.0), (2.0, -1.0)):
            with pytest.raises(ValueError):
                planar_gaf_truncation(R, tol)
        with pytest.raises(TruncationError):
            planar_gaf_truncation(300.0)  # needs a degree above 2 * 300^2

    @pytest.mark.parametrize("R", [1e160, 1e200])
    def test_truncation_where_two_r_squared_overflows(self, R):
        with pytest.raises(TruncationError, match="no admissible truncation degree"):
            planar_gaf_truncation(R)

    def test_mc_reproducible_and_thread_independent(self):
        R, b = 2.0, 1.0
        N = planar_gaf_truncation(R)
        rng = RngStream(seed=31)
        m1, s1 = planar_gaf_mc(R, b, N, 8, rng, threads=1)
        m2, s2 = planar_gaf_mc(R, b, N, 8, rng, threads=4)
        assert (m1, s1) == (m2, s2)
        m3, _ = planar_gaf_mc(R, b, N, 8, RngStream(seed=31), threads=2)
        assert m3 == m1

    def test_mc_thread_independent_above_the_thread_floor(self):
        # 80 x 256 points: the trials do split across threads here.
        R, b, grid = 2.0, 1.0, {"n_radial": 80, "n_angular": 256}
        N = planar_gaf_truncation(R)
        rng = RngStream(seed=31)
        m1, s1 = planar_gaf_mc(R, b, N, 8, rng, threads=1, **grid)
        m2, s2 = planar_gaf_mc(R, b, N, 8, rng, threads=4, **grid)
        assert (m1, s1) == (m2, s2)
        m3, _ = planar_gaf_mc(R, b, N, 8, RngStream(seed=31), threads=2, **grid)
        assert m3 == m1

    def test_mc_agrees_with_closed_form_expectation(self):
        R = 3.0
        b = math.sqrt(math.pi) / 2.0
        N = planar_gaf_truncation(R)
        mean, stderr = planar_gaf_mc(R, b, N, 120, RngStream(seed=208), threads=4)
        assert abs(mean - (1.0 - math.pi / 4.0)) < 4.0 * stderr

    def test_mc_validation(self):
        with pytest.raises(ValueError):
            planar_gaf_mc(2.0, 1.0, 40, 1, RngStream(seed=1))
        for b in (0.0, -1.0):
            with pytest.raises(ValueError):
                planar_gaf_mc(2.0, b, 40, 4, RngStream(seed=1))
        with pytest.raises(TruncationError):
            planar_gaf_mc(4.0, 1.0, 5, 4, RngStream(seed=1))
        for n_angular in (0, -4):
            with pytest.raises(ValueError, match="n_angular must be >= 1"):
                planar_gaf_mc(2.0, 1.0, 40, 4, RngStream(seed=1), n_angular=n_angular)

    @pytest.mark.parametrize("R, N", [(0.5, 0), (0.5, 3), (3.0, 10), (3.0, 17), (3.0, 18),
                                      (3.0, 30), (12.0, 250), (50.0, 40), (50.0, 4990),
                                      (50.0, 5000)])
    def test_tail_is_the_poisson_survival_function(self, R, N):
        # Degrees on both sides of the peak 2R^2, including N + 1 <= 2R^2 (tail near 1).
        assert planar_gaf_tail(R, N) == pytest.approx(poisson.sf(N, 2.0 * R * R), rel=1e-10)

    def test_tail_of_a_degree_far_below_the_peak(self):
        assert planar_gaf_tail(50.0, 40) == 1.0
        assert planar_gaf_tail(1e100, 40) == 1.0
        assert planar_gaf_tail(1e200, 40) == 1.0  # 2R^2 overflows
        with pytest.raises(TruncationError):
            planar_gaf_mc(50.0, 1.0, 40, 4, RngStream(seed=1))

    @pytest.mark.parametrize("R", [math.inf, math.nan, 0.0, -1.0])
    def test_tail_rejects_a_radius_outside_the_positive_reals(self, R):
        with pytest.raises(ValueError):
            planar_gaf_tail(R, 40)


def _mp_planar_gaf_coeffs(eta):
    """eta_j 2^{j/2} / sqrt(j!) in 40-digit arithmetic."""
    with mpmath.workdps(40):
        scale = mpmath.mpf(1)
        out = []
        for j, e in enumerate(eta):
            out.append(mpmath.mpc(e.real, e.imag) * scale)
            scale *= mpmath.sqrt(mpmath.mpf(2) / (j + 1))
        return out


def _mp_planar_gaf(coeffs, z):
    """e^{-|z|^2} F(z), F(z) = sum coeffs[j] z^j by Horner's rule in 40-digit arithmetic."""
    with mpmath.workdps(40):
        z = mpmath.mpc(z)
        total = mpmath.mpc(0)
        for c in reversed(coeffs):
            total = total * z + c
        return complex(total * mpmath.exp(-abs(z) ** 2))


def _log_space_tol(R):
    """Absolute tolerance for e^{-|z|^2} F(z) on D(0, R) in double precision.

    The parts of each term's exponent, log scale + j log r - r^2, reach 2 R^2 log R near
    the peak degree j = 2 R^2, so every term carries a relative rounding error of about
    that times 2.2e-16; four times it, and never below 1e-12.
    """
    return max(1e-12, 4.0 * 2.0 * R * R * math.log(R) * 2.2e-16)


@pytest.mark.parametrize("R", [12.0, 30.0])
class TestPlanarGafLargeRadius:
    """At R = 12 (N = 388) the scales 2^{j/2}/sqrt(j!) underflow in double from
    j = 356 on, while their products with |z|^j still matter near |z| = R.  From
    R = 27 on the terms 2^{j/2} |z|^j / sqrt(j!) themselves overflow a double, so only
    the envelope e^{-|z|^2}, applied in log space, keeps them in range."""

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_grid_values_match_mpmath(self, R):
        N = planar_gaf_truncation(R)
        eta = sample_complex_gaussians(RngStream(seed=3).substream(0), N + 1)
        j = np.arange(N + 1)
        log_scales = 0.5 * (j * math.log(2.0) - np.array([math.lgamma(k + 1.0) for k in j]))
        radii = np.array([0.5, R / 2.0, R - 0.5, R - 0.03])
        F = _polar_values(eta, _term_scales(log_scales, radii, 256, log_offset=-radii**2),
                          *np.empty((2, len(radii), 256), dtype=complex))
        coeffs = _mp_planar_gaf_coeffs(eta)
        for i, k in [(0, 3), (1, 100), (2, 12), (3, 0), (3, 201)]:
            z = radii[i] * complex(math.cos(2 * math.pi * k / 256), math.sin(2 * math.pi * k / 256))
            assert abs(F[i, k] - _mp_planar_gaf(coeffs, z)) <= _log_space_tol(R)

    def test_trials_match_mpmath_quadrature(self, R):
        b, n_radial, n_angular = 0.9, 4, 8
        N = planar_gaf_truncation(R)
        rng = RngStream(seed=17)
        mean, stderr = planar_gaf_mc(R, b, N, 2, rng, n_radial=n_radial, n_angular=n_angular)
        x, w = np.polynomial.legendre.leggauss(n_radial)
        nodes, weights = 0.5 * R * (x + 1.0), 0.5 * R * w
        # Control term c (A - E A): A is the same quadrature of e^{-2|z|^2} |F|^2, and
        # E e^{-2|z|^2} |F(z)|^2 = e^{-2|z|^2} sum_{j<=N} (2|z|^2)^j / j! for the truncated series.
        c = b * b - b * math.sqrt(math.pi) / 2.0
        with mpmath.workdps(40):
            mean_a = float(sum(
                wr * r * mpmath.exp(-2 * mpmath.mpf(r) ** 2)
                * sum((2 * mpmath.mpf(r) ** 2) ** j / mpmath.factorial(j) for j in range(N + 1))
                for r, wr in zip(nodes, weights)
            ) * 2 / (R * R))
        trials = []
        for i in range(2):
            coeffs = _mp_planar_gaf_coeffs(sample_complex_gaussians(rng.substream(i), N + 1))
            total = total_a = 0.0
            for r, wr in zip(nodes, weights):
                ring = [abs(_mp_planar_gaf(coeffs, r * np.exp(2j * math.pi * k / n_angular)))
                        for k in range(n_angular)]
                total += wr * r * sum((b * v - 1.0) ** 2 for v in ring)
                total_a += wr * r * sum(v * v for v in ring)
            x_trial, a = (2.0 * t / (R * R * n_angular) for t in (total, total_a))
            trials.append(x_trial - c * (a - mean_a))
        assert mean == pytest.approx(0.5 * (trials[0] + trials[1]), abs=_log_space_tol(R))
        assert stderr == pytest.approx(0.5 * abs(trials[0] - trials[1]), abs=_log_space_tol(R))

