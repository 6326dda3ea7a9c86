import math
import warnings
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy import stats as sps

from semdrift import (DegenerateVarianceWarning, GroupSample, f_cdf, one_way_anova, stats,
                      studentized_range_cdf, tukey_hsd)
from semdrift.errors import ValidationError

import panel_table
from helpers import forbid_panel_building


def invert(fn, p, lo=1e-12, hi=1e4, iters=200):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fn(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestAnova:
    def test_identical_groups(self):
        groups = [GroupSample("a", (1, 2, 3)), GroupSample("b", (1, 2, 3))]
        result = one_way_anova(groups)
        assert result.f_stat == 0.0
        assert result.p_value == 1.0

    def test_all_values_identical(self):
        groups = [GroupSample("a", (5, 5)), GroupSample("b", (5, 5))]
        result = one_way_anova(groups)
        assert result.f_stat == 0.0 and result.p_value == 1.0 and result.degenerate

    def test_degenerate_variance_warns(self):
        groups = [GroupSample("a", (0, 0)), GroupSample("b", (10, 10))]
        with pytest.warns(DegenerateVarianceWarning):
            result = one_way_anova(groups)
        assert math.isinf(result.f_stat)
        assert result.p_value == 0.0
        assert result.degenerate

    def test_hand_computed_decomposition(self):
        # SS_between = 3[(5-22/3)^2 + (7-22/3)^2 + (10-22/3)^2] = 38
        # SS_within  = three groups, each sum (x-mean)^2 = 2          = 6
        groups = [GroupSample("a", (4, 5, 6)), GroupSample("b", (6, 7, 8)),
                  GroupSample("c", (9, 10, 11))]
        result = one_way_anova(groups)
        assert result.ss_between == pytest.approx(38.0, abs=1e-12)
        assert result.ss_within == pytest.approx(6.0, abs=1e-12)
        assert result.f_stat == pytest.approx(19.0, abs=1e-12)
        # textbook recomputation: F = (SS_b/2)/(SS_w/6); p from the F law
        assert result.p_value == pytest.approx(1.0 - sps.f.cdf(19.0, 2, 6), abs=1e-10)

    def test_levene_diagnostic_matches_scipy(self):
        rng = np.random.default_rng(23)
        data = [tuple(rng.normal(0, s, 8)) for s in (1.0, 2.5, 0.5)]
        groups = [GroupSample(f"g{i}", d) for i, d in enumerate(data)]
        result = one_way_anova(groups)
        ref_stat, ref_p = sps.levene(*data, center="mean")
        assert result.levene_stat == pytest.approx(ref_stat, rel=1e-9)
        assert result.levene_p == pytest.approx(ref_p, abs=1e-9)

    def test_preconditions(self):
        with pytest.raises(ValidationError):
            one_way_anova([GroupSample("a", (1, 2))])
        with pytest.raises(ValidationError):
            one_way_anova([GroupSample("a", (1,)), GroupSample("b", (1, 2))])
        with pytest.raises(ValidationError):
            one_way_anova([GroupSample("a", (1, 2)), GroupSample("a", (3, 4))])

    @given(st.floats(-1e6, 1e6), st.floats(0.01, 1e3))
    @settings(max_examples=50)
    def test_shift_and_scale_invariance(self, shift, scale):
        base = [GroupSample("a", (4, 5, 6)), GroupSample("b", (6, 7, 8)),
                GroupSample("c", (9, 10, 11))]
        shifted = [GroupSample(g.label, tuple(v + shift for v in g.values)) for g in base]
        scaled = [GroupSample(g.label, tuple(v * scale for v in g.values)) for g in base]
        f0 = one_way_anova(base).f_stat
        assert one_way_anova(shifted).f_stat == pytest.approx(f0, rel=1e-6)
        assert one_way_anova(scaled).f_stat == pytest.approx(f0, rel=1e-9)

    @given(st.lists(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=12),
                    min_size=2, max_size=4))
    @example([[0.1] * 10, [0.2] * 10, [0.3, 0.1, 0.7]])
    @settings(max_examples=50)
    def test_decomposition_is_made_of_fsums(self, data):
        # exactly rounded sums leave no digit to the Python version's sum(), which
        # compensates from 3.12 on; summed naively, ten 0.1s have a mean of 0.09999999999999999
        import warnings

        groups = [GroupSample(f"g{i}", tuple(vals)) for i, vals in enumerate(data)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateVarianceWarning)
            result = one_way_anova(groups)
        means = [math.fsum(vals) / len(vals) for vals in data]
        grand = math.fsum(v for vals in data for v in vals) / sum(map(len, data))
        assert result.group_means == {g.label: m for g, m in zip(groups, means)}
        if result.f_stat == 0.0 and result.degenerate:
            return  # every value the same: both sums of squares are reported as 0
        assert result.ss_between == math.fsum(
            len(vals) * (m - grand) ** 2 for vals, m in zip(data, means))
        assert result.ss_within == math.fsum(
            (v - m) ** 2 for vals, m in zip(data, means) for v in vals)

    @given(st.lists(st.lists(st.floats(-100, 100), min_size=2, max_size=6),
                    min_size=2, max_size=5))
    @settings(max_examples=50)
    def test_sum_of_squares_decomposition(self, data):
        import warnings

        groups = [GroupSample(f"g{i}", tuple(vals)) for i, vals in enumerate(data)]
        with warnings.catch_warnings():
            # generated data may legitimately have zero within-group variance
            warnings.simplefilter("ignore", DegenerateVarianceWarning)
            result = one_way_anova(groups)
        flat = [v for g in groups for v in g.values]
        grand = sum(flat) / len(flat)
        ss_total = sum((v - grand) ** 2 for v in flat)
        assert result.ss_between + result.ss_within == \
            pytest.approx(ss_total, rel=1e-9, abs=1e-9)


class TestFCdf:
    def test_zero(self):
        assert f_cdf(0.0, 3, 7) == 0.0

    def test_upper_limit(self):
        assert f_cdf(1e9, 2, 12) >= 1.0 - 1e-9

    def test_inverse_matches_published_table(self):
        x = invert(lambda v: f_cdf(v, 2, 12), 0.95)
        assert x == pytest.approx(3.885, abs=0.005)

    def test_against_quadrature_oracle(self):
        # adaptive quadrature of the F density, written independently
        def density(t, d1, d2):
            c = math.exp(math.lgamma((d1 + d2) / 2) - math.lgamma(d1 / 2)
                         - math.lgamma(d2 / 2) + (d1 / 2) * math.log(d1 / d2))
            return c * t ** (d1 / 2 - 1) * (1 + d1 * t / d2) ** (-(d1 + d2) / 2)

        for x, d1, d2 in [(0.5, 2, 12), (3.885, 2, 12), (1.0, 5, 5), (2.5, 1, 8),
                          (19.0, 2, 6), (0.2, 12, 3)]:
            oracle, err = integrate.quad(density, 0, x, args=(d1, d2), epsabs=1e-12)
            assert f_cdf(x, d1, d2) == pytest.approx(oracle, abs=1e-9)

    def test_against_scipy_grid(self):
        worst = 0.0
        for d1 in (1, 2, 5, 12, 40, 120):
            for d2 in (1, 3, 6, 12, 60, 240):
                for x in (0.01, 0.3, 1.0, 2.5, 3.885, 10.0, 1e3):
                    worst = max(worst, abs(f_cdf(x, d1, d2) - sps.f.cdf(x, d1, d2)))
        assert worst <= 1e-10

    @given(st.integers(1, 60), st.integers(1, 60),
           st.floats(0, 50), st.floats(0, 50))
    @settings(max_examples=60)
    def test_monotone_and_bounded(self, d1, d2, a, b):
        lo, hi = min(a, b), max(a, b)
        assert 0.0 <= f_cdf(lo, d1, d2) <= f_cdf(hi, d1, d2) <= 1.0

    def test_rejects_bad_dof(self):
        with pytest.raises(ValidationError):
            f_cdf(1.0, 0, 5)

    @pytest.mark.parametrize("df", [1, 2, 16, 1000])
    def test_nan_reads_as_zero(self, df):
        # as a NaN q does in the studentized range, which for two groups is
        # P(F(1, df) <= q^2 / 2)
        assert f_cdf(math.nan, 3, df) == 0.0
        assert f_cdf(math.nan, 1, df) == studentized_range_cdf(math.nan, 2, df) == 0.0


# 0.5 * (1 + erf(x / sqrt(2))) is exactly 0.0 at and below PHI_ZERO and exactly 1.0 at
# and above PHI_ONE, so the dense reference fills the cells outside them without erf
PHI_ZERO = -8.3744
PHI_ONE = 8.2441
EPS = stats._PRUNE_EPS


def _rule(n, lo, hi):
    """The n-point Gauss-Legendre rule on [lo, hi] as numpy arrays."""
    nodes, weights = map(np.array, stats._legendre_rule(n))
    half = 0.5 * (hi - lo)
    return half * nodes + 0.5 * (hi + lo), half * weights


def _chi_density(s, df):
    ln_norm = (0.5 * df * math.log(df) - math.lgamma(0.5 * df)
               - (0.5 * df - 1.0) * math.log(2.0))
    return np.exp(ln_norm + (df - 1.0) * np.log(s) - 0.5 * df * s * s)


def _normal_cdf_array(values):
    """The normal CDF at each value; math.erf runs only where it is not saturated."""
    out = (values >= PHI_ONE).astype(float)
    live = (values > PHI_ZERO) & (values < PHI_ONE)
    scaled = values[live] * (1.0 / math.sqrt(2.0))
    erf = np.fromiter(map(math.erf, scaled.tolist()), float, scaled.size)
    out[live] = 0.5 * (1.0 + erf)
    return out


def _dense_outer_rule(df):
    """Every node of the chi-scale rule for `df` and its weight times the chi density."""
    if df < 4:
        s, ws = _rule(160, 0.0, 14.0)
        return s, ws * _chi_density(s, df)
    s, ws = _rule(64, *stats._chi_range(df))
    t = s * s * (df / (df - 1.0))
    weights = ws * np.exp(0.5 * (df - 1.0) * (np.log(t) - t + 1.0))
    return s, weights / math.fsum(weights.tolist())


def dense_srange_cdf(q, k, df):
    """The numpy kernel `studentized_range_cdf` used for k >= 3 before the pruning bounds:
    every cell of the 64x96 (160x96 for df < 4) grid, rows summed by numpy."""
    z, wz = _rule(96, -9.0, 9.0)
    phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    big_phi = _normal_cdf_array(z)
    s, weighted_density = _dense_outer_rule(df)
    shifted = _normal_cdf_array(z[None, :] - (q * s)[:, None])
    rows = (wz * k * phi * (big_phi - shifted) ** (k - 1)).sum(axis=1)
    total = float(sum(weighted_density * rows))
    return min(1.0, max(0.0, total))


def row_loop_rows(q, k, df):
    """The k >= 3 quadrature of `studentized_range_cdf` before its rows were interpolated,
    one outer node and one cell at a time: the weight, range r and row of each outer node.

    Leading inner nodes go while their cell bounds c Phi(z)^(k-1) add up to at most EPS
    (the inner bound), and outer nodes of weight at most EPS are skipped (the outer
    bound). A cell is c / 2^(k-1) times
    (erf(z / sqrt 2) - erf(z / sqrt 2 - r / sqrt 2))^(k-1).
    """
    inv = 1.0 / math.sqrt(2.0)
    z, wz = (v.tolist() for v in _rule(96, -9.0, 9.0))
    c = [w * k * (math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)) for x, w in zip(z, wz)]
    first, dropped = 0, 0.0
    while True:
        dropped += c[first] * (0.5 * (1.0 + math.erf(z[first] * inv))) ** (k - 1)
        if dropped > EPS:
            break
        first += 1
    if df < 4:
        s, ws = (v.tolist() for v in _rule(160, 0.0, 14.0))
        ln_norm = (0.5 * df * math.log(df) - math.lgamma(0.5 * df)
                   - (0.5 * df - 1.0) * math.log(2.0))
        weights = [w * math.exp(ln_norm + (df - 1.0) * math.log(x) - 0.5 * df * x * x)
                   for x, w in zip(s, ws)]
    else:
        s, ws = (v.tolist() for v in _rule(64, *stats._chi_range(df)))
        weights = []
        for x, w in zip(s, ws):
            t = x * x * (df / (df - 1.0))
            weights.append(w * math.exp(0.5 * (df - 1.0) * (math.log(t) - t + 1.0)))
        mass = math.fsum(weights)
        weights = [w / mass for w in weights]
    rows = []
    for w, sv in zip(weights, s):
        if w <= EPS:
            continue
        r = q * sv
        cells = []
        for j in range(first, 96):
            u = z[j] * inv
            cells.append(c[j] / 2 ** (k - 1) * (math.erf(u) - math.erf(u - r * inv)) ** (k - 1))
        rows.append((w, r, math.fsum(cells)))
    return rows


def row_loop_srange_cdf(q, k, df):
    """The quadrature's value with every row summed cell by cell by `row_loop_rows`."""
    return min(1.0, max(0.0, math.fsum(w * row for w, _, row in row_loop_rows(q, k, df))))


def fixed_rule_srange_cdf(q, k, df):
    """The quadrature used for every k before the fitted range: 160 chi-scale nodes on
    [0, 14] for df < 4, else on 1 -+ 12/sqrt(df), times 96 location nodes on [-9, 9]."""
    z, wz = _rule(96, -9.0, 9.0)
    phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    big_phi = _normal_cdf_array(z)
    if df < 4:
        s_lo, s_hi = 0.0, 14.0
    else:
        s_lo, s_hi = max(0.0, 1.0 - 12.0 / math.sqrt(df)), 1.0 + 12.0 / math.sqrt(df)
    s, ws = _rule(160, s_lo, s_hi)
    shifted = _normal_cdf_array(z[None, :] - (q * s)[:, None])
    rows = np.sum(wz * k * phi * (big_phi - shifted) ** (k - 1), axis=1)
    return min(1.0, max(0.0, float(sum(ws * _chi_density(s, df) * rows))))


def _tabulated_rule_sizes():
    lines = stats._LEGENDRE_TABLE.read_text(encoding="ascii").splitlines()
    return sorted({int(line.split()[0]) for line in lines if line and line[0] != "#"})


class TestLegendreTable:
    @pytest.mark.parametrize("n", _tabulated_rule_sizes())
    def test_matches_leggauss(self, n):
        nodes, weights = stats._legendre_rule(n)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        np.testing.assert_array_max_ulp(np.array(nodes), ref_nodes, maxulp=4)
        np.testing.assert_array_max_ulp(np.array(weights), ref_weights, maxulp=4)


class TestSaturatedNormalCdf:
    """The saturation bounds of the dense reference kernel are exact."""

    def test_erf_formula_is_exact_beyond_the_bounds(self):
        # every cell the dense reference fills without an erf call gets the value erf
        # would give
        def formula(x):
            return 0.5 * (1.0 + math.erf(x * (1.0 / math.sqrt(2.0))))

        below = np.concatenate([np.linspace(PHI_ZERO - 2.0, PHI_ZERO, 100_000),
                                -np.logspace(1.0, 300.0, 1_000)])
        above = np.linspace(PHI_ONE, 9.0, 100_000)
        assert all(formula(x) == 0.0 for x in below.tolist())
        assert all(formula(x) == 1.0 for x in above.tolist())
        # the bounds are tight to about 1e-4: just inside them erf is not saturated
        assert formula(PHI_ZERO + 1e-4) > 0.0
        assert formula(PHI_ONE - 1e-4) < 1.0

    @given(st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_array_equals_per_value_erf(self, values):
        x = np.array(values)
        expected = [0.5 * (1.0 + math.erf(v * (1.0 / math.sqrt(2.0)))) for v in values]
        assert _normal_cdf_array(x).tolist() == expected


def _inner_rule():
    """The inner rule's nodes and weights, and the normal density and CDF at each node."""
    z, wz = (v.tolist() for v in _rule(96, -9.0, 9.0))
    phi = [math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) for x in z]
    return z, wz, phi, _normal_cdf_array(np.array(z)).tolist()


class TestPruningBounds:
    @pytest.mark.parametrize("k", range(3, 21))
    def test_leading_inner_nodes(self, k):
        # the dropped nodes' cell bounds c_j Phi(z_j)^(k-1) add up to at most EPS, and one
        # more node would pass it
        z, wz, phi, big_phi = _inner_rule()
        bounds = [w * k * f * p ** (k - 1) for w, f, p in zip(wz, phi, big_phi)]
        first = 96 - len(stats._inner_cells(k))
        assert 0 < first < len(z)
        assert math.fsum(bounds[:first]) <= EPS < math.fsum(bounds[:first + 1])
        # the kept cells are those of the trailing nodes, with constants (u_j, e_j, b_j)
        inv = stats._INV_SQRT2
        assert stats._inner_cells(k) == tuple(
            (x * inv, math.erf(x * inv), math.ldexp(w * k * f, 1 - k))
            for x, w, f in zip(z[first:], wz[first:], phi[first:]))

    @pytest.mark.parametrize("df", [1, 2, 3, 4, 5, 15, 16, 38, 120, 1000, 10**7])
    def test_outer_nodes(self, df):
        # the kept nodes are exactly the ones whose weight exceeds EPS ...
        s, weights = _dense_outer_rule(df)
        kept_s, kept_w = stats._outer_rule(df)
        assert list(kept_s) == [x for x, w in zip(s.tolist(), weights.tolist()) if w > EPS]
        np.testing.assert_allclose(kept_w, weights[weights > EPS], rtol=1e-13)
        # ... and a row, at most the rule's sum of c_j Phi(z_j)^(k-1), whose integral is 1,
        # is at most 1 to within 2e-11 (the inner rule's error at k = 20); the c_j add up
        # to k times the rule's mass of phi, which is 1 to within 4e-15
        z, wz, phi, big_phi = _inner_rule()
        assert math.fsum(w * f for w, f in zip(wz, phi)) == pytest.approx(1.0, abs=4e-15)
        for k in range(3, 21):
            row_bound = math.fsum(w * k * f * p ** (k - 1) for w, f, p in zip(wz, phi, big_phi))
            assert row_bound <= 1.0 + 2e-11


class TestChiRange:
    @pytest.mark.parametrize("df", [4, 5, 15, 16, 38, 120, 1000, 10**6])
    def test_density_at_the_ends_is_the_drop_below_the_peak(self, df):
        def log_density(s):
            return (df - 1.0) * math.log(s) - 0.5 * df * s * s

        peak = math.sqrt((df - 1.0) / df)
        lo, hi = stats._chi_range(df)
        assert 0.0 < lo < peak < hi
        for end in (lo, hi):
            assert log_density(end) - log_density(peak) == \
                pytest.approx(-stats._CHI_LOG_DROP, abs=1e-8)


def panel_value(panel, t):
    """A row panel's offset plus its Chebyshev series at t in [-1, 1], by numpy."""
    offset, coefficients = panel
    return offset + float(np.polynomial.chebyshev.chebval(t, coefficients[::-1]))


class TestRowInterpolant:
    @given(st.floats(0.0, 1e6), st.integers(3, 20))
    @example(0.0, 3)
    @settings(max_examples=50, deadline=None)
    def test_row_is_one_constant_past_the_saturation_point(self, past, k):
        cutoff, top, _ = stats._row_interpolant(k)
        assert stats._row(cutoff + past, k) == top

    @pytest.mark.parametrize("k", [3, 5, 20, 100])
    def test_saturation_point(self, k):
        cutoff, top, _ = stats._row_interpolant(k)
        # it is the largest inner node plus sqrt(2) times where erf rounds to -1 ...
        z = _inner_rule()[0]
        assert cutoff == pytest.approx(z[-1] + math.sqrt(2.0) * 5.9215872, abs=1e-6)
        # ... every row from there on is the same constant, on a dense grid too ...
        for r in np.linspace(cutoff, cutoff + 1.0, 2001).tolist():
            assert stats._row(r, k) == top
        # ... and one float below it the last cell's erf is not yet -1
        below = math.nextafter(cutoff, 0.0)
        assert math.erf(stats._inner_cells(k)[-1][0] - below * stats._INV_SQRT2) > -1.0

    @pytest.mark.parametrize("k", range(3, 21))
    def test_adjacent_panels_agree_at_each_shared_edge(self, k):
        cutoff, top, _ = stats._row_interpolant(k)
        panels = [stats._build_panel(k, i, top)
                  for i in range(math.ceil(cutoff / stats._PANEL_WIDTH))]
        for left, right in zip(panels, panels[1:]):
            assert abs(panel_value(left, 1.0) - panel_value(right, -1.0)) <= 1e-15

    @pytest.mark.parametrize("k", range(3, 21))
    def test_interpolated_rows_match_the_row_function(self, k):
        # the gap grows with k because the row function's own rounding does: erf's is
        # raised to the power k - 1 in every cell, 1.7e-15 at k = 20
        cutoff, top, panels = stats._row_interpolant(k)
        worst = 0.0
        for r in np.linspace(0.0, cutoff, 1001)[:-1].tolist():
            value = stats._interpolated_row(r, k, top, panels)
            worst = max(worst, abs(value - stats._row(r, k)))
            assert value == pytest.approx(panel_value(
                panels[int(r / stats._PANEL_WIDTH)], 2.0 * (r / stats._PANEL_WIDTH % 1.0) - 1.0),
                abs=2e-16)
        assert worst <= 2e-15

    def test_a_lone_call_builds_only_the_panels_its_rows_fall_in(self):
        q, k, df = 0.9, 4, 16
        stats._row_interpolant.cache_clear()
        studentized_range_cdf(q, k, df)
        cutoff, _, panels = stats._row_interpolant(k)
        built = {i for i, panel in enumerate(panels) if panel is not None}
        assert built == {int(q * s / stats._PANEL_WIDTH) for s in stats._outer_rule(df)[0]}
        assert len(built) < len(panels)

    def test_a_lone_call_past_the_table_builds_only_the_panels_its_rows_fall_in(self):
        q, k, df = 0.9, 11, 16
        assert k not in stats._TABLED_K
        stats._row_interpolant.cache_clear()
        studentized_range_cdf(q, k, df)
        cutoff, _, panels = stats._row_interpolant(k)
        built = {i for i, panel in enumerate(panels) if panel is not None}
        assert built == {int(q * s / stats._PANEL_WIDTH) for s in stats._outer_rule(df)[0]}
        assert len(built) < len(panels)

    @pytest.mark.parametrize("k", stats._TABLED_K)
    def test_a_tabled_k_builds_no_panel(self, k, monkeypatch):
        forbid_panel_building(monkeypatch)
        for q in np.linspace(0.1, 20.0, 40).tolist():
            studentized_range_cdf(q, k, 16)
        assert None not in stats._row_interpolant(k)[2]


def panel_hexes(panel):
    """A panel's offset and coefficients, each as `float.hex`."""
    offset, coefficients = panel
    return [offset.hex(), *(c.hex() for c in coefficients)]


class TestPanelTable:
    def test_is_what_the_builder_writes(self):
        shipped = stats._PANEL_TABLE.read_text(encoding="ascii").splitlines()
        assert shipped == panel_table.render().splitlines(), (
            f"{stats._PANEL_TABLE.name} is not what stats._build_panel makes; "
            f"rewrite it with `{panel_table.REWRITE}`")

    @pytest.mark.parametrize("k", stats._TABLED_K)
    def test_reads_back_every_panel_of_the_builder(self, k):
        cutoff, top, _ = stats._row_interpolant(k)
        assert [panel_hexes(panel) for panel in stats._tabled_panels(k)] == [
            panel_hexes(stats._build_panel(k, i, top))
            for i in range(math.ceil(cutoff / stats._PANEL_WIDTH))]

    @given(st.floats(1e-3, 30.0), st.integers(3, 10), st.integers(1, 2000))
    @example(2.5, 5, 15)
    @example(2.5, 4, 16)
    @settings(max_examples=30, deadline=None)
    def test_the_kernel_with_the_table_equals_it_without(self, q, k, df):
        tabled = studentized_range_cdf(q, k, df)
        stats._row_interpolant.cache_clear()
        try:
            with mock.patch.object(stats, "_TABLED_K", range(0)):
                built = studentized_range_cdf(q, k, df)
        finally:
            stats._row_interpolant.cache_clear()
        assert built.hex() == tabled.hex()


class TestStudentizedRangeCdf:
    @given(st.floats(1e-3, 30.0), st.integers(3, 20), st.integers(1, 2000))
    @settings(max_examples=30, deadline=None)
    def test_equals_row_loop_reference(self, q, k, df):
        # the row function that the interpolant samples is the reference's inner sum
        for _, r, row in row_loop_rows(q, k, df):
            assert stats._row(r, k) == row

    @given(st.floats(1e-3, 30.0), st.integers(3, 20), st.integers(1, 2000))
    @settings(max_examples=30, deadline=None)
    def test_within_1e15_of_the_row_loop_reference(self, q, k, df):
        assert abs(studentized_range_cdf(q, k, df) - row_loop_srange_cdf(q, k, df)) <= 1e-15

    def test_within_1e15_of_the_dense_kernel(self):
        # every cell of the grid, before the pruning bounds, summed by numpy
        worst = 0.0
        for k in (3, 4, 5, 7, 10, 20):
            for df in (1, 2, 3, 4, 5, 10, 15, 16, 38, 120, 1000, 10**5, 10**7):
                for q in (0.01, 0.1, 0.5, 1.0, 2.0, 3.77, 5.0, 8.0, 12.0, 20.0, 60.0):
                    worst = max(worst, abs(studentized_range_cdf(q, k, df)
                                           - dense_srange_cdf(q, k, df)))
        assert worst <= 1e-15

    def test_zero(self):
        assert studentized_range_cdf(0.0, 3, 12) == 0.0
        # a NaN q reads as 0 too, as it did when the quadrature's clamp turned NaN into 0
        assert studentized_range_cdf(math.nan, 5, 15) == 0.0

    def test_published_value(self):
        assert studentized_range_cdf(3.77, 3, 12) == pytest.approx(0.95, abs=0.002)

    def test_critical_value_inversion(self):
        q = invert(lambda v: studentized_range_cdf(v, 3, 12), 0.95, hi=100.0)
        assert q == pytest.approx(3.77, abs=0.02)

    def test_monotone_on_grid(self):
        for k, df in [(2, 5), (3, 12), (6, 30)]:
            values = [studentized_range_cdf(q, k, df) for q in np.linspace(0.1, 12, 40)]
            assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
            assert all(0.0 <= v <= 1.0 for v in values)

    def test_against_scipy_grid(self):
        # df 15, 16 and 38 are the error degrees of freedom of the benchmark workloads
        worst = 0.0
        for k in range(2, 11):
            for df in (1, 2, 3, 15, 16, 38, 120, 1000):
                for q in (0.5, 1.0, 2.0, 3.77, 5.0, 8.0):
                    ref = sps.studentized_range.cdf(q, k, df)
                    worst = max(worst, abs(studentized_range_cdf(q, k, df) - ref))
        # the worst gap, 1.33e-12 at q = 0.5, k = 9, df = 1, is scipy's own error
        assert worst <= 1.5e-12

    def test_certain_range_has_cdf_one_at_large_df(self):
        # the upper tail at q = 60 is far below 1e-100 for these df; a chi density
        # whose normalising constant lost ~eps * df to lgamma cancellation missed 1
        # by 2.3e-13 at df = 1000 and 6.5e-9 at df = 10^7
        for k in (3, 7):
            for df in (38, 1000, 10**5, 10**7):
                assert studentized_range_cdf(60.0, k, df) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("df", [1, 2, 3, 5, 15, 16, 38, 120, 1000])
    def test_two_groups_in_closed_form(self, df):
        # P(Q <= q) = P(F(1, df) <= q^2 / 2) for k = 2; the worst gaps over this grid are
        # 2.4e-13 to scipy and 3.0e-13 to the quadrature, both at df = 1000
        for q in (0.05, 0.5, 1.0, 2.0, 2.77, 3.77, 5.0, 8.0, 12.0):
            closed = studentized_range_cdf(q, 2, df)
            assert closed == f_cdf(q * q / 2.0, 1, df)
            assert closed == pytest.approx(sps.studentized_range.cdf(q, 2, df), abs=4e-13)
            assert closed == pytest.approx(fixed_rule_srange_cdf(q, 2, df), abs=4e-13)

    def test_against_double_quadrature_oracle(self):
        # independent adaptive double integration of the defining integral
        def oracle(q, k, df):
            def inner(s):
                def range_integrand(z):
                    phi = math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
                    big = 0.5 * (1 + math.erf(z / math.sqrt(2)))
                    shifted = 0.5 * (1 + math.erf((z - q * s) / math.sqrt(2)))
                    return k * phi * (big - shifted) ** (k - 1)
                val, _ = integrate.quad(range_integrand, -9, 9, epsabs=1e-11, limit=200)
                return val

            def outer(s):
                ln = (0.5 * df * math.log(df) - math.lgamma(0.5 * df)
                      - (0.5 * df - 1) * math.log(2.0))
                return math.exp(ln + (df - 1) * math.log(s) - 0.5 * df * s * s) * inner(s)

            hi = 14.0 if df < 4 else 1 + 12 / math.sqrt(df)
            val, _ = integrate.quad(outer, 1e-12, hi, epsabs=1e-10, limit=200)
            return val

        for q, k, df in [(3.77, 3, 12), (2.0, 2, 5), (5.0, 4, 20)]:
            assert studentized_range_cdf(q, k, df) == \
                pytest.approx(oracle(q, k, df), abs=1e-6)


class TestTukey:
    def test_identical_groups_pair(self):
        groups = [GroupSample("a", (1, 2, 3)), GroupSample("b", (1, 2, 3))]
        result = tukey_hsd(groups)
        pair = result.pairs[0]
        assert pair.mean_diff == 0.0
        assert pair.p_adj == pytest.approx(1.0)
        assert not pair.significant

    def test_pair_count(self):
        groups = [GroupSample(f"g{i}", (float(i), float(i) + 1)) for i in range(4)]
        assert len(tukey_hsd(groups).pairs) == 6

    def test_matches_scipy_equal_sizes(self):
        data = [(4., 5., 6.), (6., 7., 8.), (9., 10., 11.)]
        groups = [GroupSample(f"g{i}", d) for i, d in enumerate(data)]
        ours = tukey_hsd(groups)
        ref = sps.tukey_hsd(*data)
        expected = [ref.pvalue[0, 1], ref.pvalue[0, 2], ref.pvalue[1, 2]]
        for pair, p_ref in zip(ours.pairs, expected):
            assert pair.p_adj == pytest.approx(p_ref, abs=1e-6)

    def test_matches_scipy_unequal_sizes(self):
        data = [(1., 2., 3., 4.), (2., 4., 5.), (8., 9.)]
        groups = [GroupSample(f"g{i}", d) for i, d in enumerate(data)]
        ours = tukey_hsd(groups)
        ref = sps.tukey_hsd(*data)
        expected = [ref.pvalue[0, 1], ref.pvalue[0, 2], ref.pvalue[1, 2]]
        for pair, p_ref in zip(ours.pairs, expected):
            assert pair.p_adj == pytest.approx(p_ref, abs=1e-6)

    def test_significance_sets_nest_across_alpha(self):
        rng = np.random.default_rng(17)
        groups = [GroupSample(f"g{i}", tuple(rng.normal(i * 0.8, 1.0, 6)))
                  for i in range(4)]
        strict = {(p.a, p.b) for p in tukey_hsd(groups, 0.01).pairs if p.significant}
        loose = {(p.a, p.b) for p in tukey_hsd(groups, 0.05).pairs if p.significant}
        assert strict <= loose

    def test_one_cdf_per_distinct_q(self, monkeypatch):
        # equal sizes and variances, means 0, 1, 2, 3, 5: pairs tie at distances 1,
        # 2 and 3, so the 10 pairs need only 5 distinct q values
        means = (0.0, 1.0, 2.0, 3.0, 5.0)
        groups = [GroupSample(f"g{i}", (m - 1.0, m, m + 1.0)) for i, m in enumerate(means)]
        calls = []

        def counting_cdf(q, k, df):
            calls.append(q)
            return studentized_range_cdf(q, k, df)

        monkeypatch.setattr(stats, "studentized_range_cdf", counting_cdf)
        result = tukey_hsd(groups)
        assert len(result.pairs) == 10
        distinct = {p.q_stat for p in result.pairs}
        assert len(distinct) == 5
        assert sorted(calls) == sorted(distinct)
        for pair in result.pairs:
            assert pair.p_adj == 1.0 - studentized_range_cdf(
                pair.q_stat, len(groups), result.df_within)

    def test_degenerate_variance_warns(self):
        groups = [GroupSample("a", (1, 1)), GroupSample("b", (2, 2))]
        with pytest.warns(DegenerateVarianceWarning):
            result = tukey_hsd(groups)
        assert result.pairs[0].p_adj == 0.0

    def test_alpha_validated(self):
        groups = [GroupSample("a", (1, 2)), GroupSample("b", (3, 4))]
        with pytest.raises(ValidationError, match="alpha"):
            tukey_hsd(groups, 1.5)


def branching_anova(groups):
    """One-way ANOVA and Levene's W with each degenerate p-value written out by hand, the
    reference for `_f_test`, which takes every p-value from `f_cdf`."""
    _, ns, means, ss_between, ss_within, identical = stats._decompose(groups)
    df_between, df_within = len(groups) - 1, sum(ns) - len(groups)
    if identical:
        return 0.0, 1.0, 0.0, 1.0
    deviations = [GroupSample(g.label, tuple(abs(v - m) for v in g.values))
                  for g, m in zip(groups, means)]
    _, _, _, z_between, z_within, z_identical = stats._decompose(deviations)
    if z_identical or z_between == 0.0:
        w, w_p = 0.0, 1.0
    elif z_within == 0.0:
        w, w_p = math.inf, 0.0
    else:
        w = (z_between / df_between) / (z_within / df_within)
        w_p = 1.0 - f_cdf(w, df_between, df_within)
    if ss_within == 0.0:
        return math.inf, 0.0, w, w_p
    f = (ss_between / df_between) / (ss_within / df_within)
    return f, 1.0 - f_cdf(f, df_between, df_within), w, w_p


def branching_tukey(groups):
    """Tukey's (q, p) per pair with the degenerate p-values written out by hand."""
    _, ns, means, _, ss_within, _ = stats._decompose(groups)
    k = len(groups)
    df_within = sum(ns) - k
    pairs = []
    for i, j in combinations(range(k), 2):
        diff = means[j] - means[i]
        if ss_within == 0.0:
            pairs.append((0.0, 1.0) if diff == 0.0 else (math.inf, 0.0))
        else:
            se = math.sqrt(ss_within / df_within / 2.0 * (1.0 / ns[i] + 1.0 / ns[j]))
            q = abs(diff) / se
            pairs.append((q, 1.0 - studentized_range_cdf(q, k, df_within)))
    return pairs


_small_count = st.integers(0, 4).map(float)
_group = st.one_of(st.lists(_small_count, min_size=2, max_size=5),
                   st.tuples(_small_count, st.integers(2, 5)).map(lambda c: [c[0]] * c[1]))
_layouts = st.one_of(
    st.lists(_group, min_size=2, max_size=4),
    st.tuples(_small_count, st.integers(2, 4), st.integers(2, 4)).map(
        lambda c: [[c[0]] * c[2]] * c[1]))  # every value the same


def _samples(data, scale=1.0):
    return [GroupSample(f"g{i}", tuple(v * scale for v in vals)) for i, vals in enumerate(data)]


class TestDegenerateStatistics:
    """Every p-value is `1 - cdf(statistic)`: a degenerate statistic is 0 or inf, where the
    CDFs are 0 and 1, and Levene's W is the ANOVA's F on the absolute deviations."""

    @given(_layouts, st.sampled_from([1.0, 1e-3, 0.1, 7.0, 1e3]))
    @settings(max_examples=120, deadline=None)
    def test_agrees_with_the_branching_reference_bit_for_bit(self, data, scale):
        groups = _samples(data, scale)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateVarianceWarning)
            anova, tukey = one_way_anova(groups), tukey_hsd(groups)
        assert repr((anova.f_stat, anova.p_value, anova.levene_stat, anova.levene_p)) == \
            repr(branching_anova(groups))
        assert repr([(p.q_stat, p.p_adj) for p in tukey.pairs]) == \
            repr(branching_tukey(groups))

    @given(st.one_of(_layouts, st.lists(st.lists(st.floats(-1e3, 1e3), min_size=2,
                                                  max_size=6), min_size=2, max_size=4)))
    @settings(max_examples=100, deadline=None)
    def test_levene_is_the_anova_of_the_absolute_deviations(self, data):
        groups = _samples(data)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateVarianceWarning)
            result = one_way_anova(groups)
            means = result.group_means
            deviations = one_way_anova([GroupSample(g.label, tuple(
                abs(v - means[g.label]) for v in g.values)) for g in groups])
        assert (result.levene_stat, result.levene_p) == (deviations.f_stat, deviations.p_value)

    def test_a_group_of_equal_values_has_that_value_as_its_mean(self):
        # fsum of three copies of v, divided by 3, is 342.0150174325275, one ulp off v
        v, w = 342.01501743252754, 7.0
        same = [GroupSample("a", (v, v)), GroupSample("b", (v, v, v))]
        anova = one_way_anova(same)
        assert anova.group_means == {"a": v, "b": v}
        assert (anova.f_stat, anova.p_value) == (0.0, 1.0)
        [pair] = tukey_hsd(same).pairs
        assert (pair.mean_diff, pair.q_stat, pair.p_adj, pair.significant) == \
            (0.0, 0.0, 1.0, False)
        # with a third group the layout is not all one value: every absolute deviation
        # from a group's mean is 0, so Levene's W is 0, and the within sum of squares too
        with pytest.warns(DegenerateVarianceWarning):
            anova = one_way_anova(same + [GroupSample("c", (w, w))])
        assert anova.group_means == {"a": v, "b": v, "c": w}
        assert (anova.ss_within, anova.f_stat, anova.p_value) == (0.0, math.inf, 0.0)
        assert (anova.levene_stat, anova.levene_p) == (0.0, 1.0)

    def test_levene_is_inf_when_both_deviation_sums_underflow(self):
        # the deviations, 1e-170 in one group and 2e-170 in the other, square to 0, so both
        # of their sums of squares are 0 although the groups differ: W is inf, as F is here
        groups = [GroupSample("a", (0.0, 2e-170)), GroupSample("b", (0.0, 4e-170))]
        with pytest.warns(DegenerateVarianceWarning):
            result = one_way_anova(groups)
        assert (result.f_stat, result.p_value) == (math.inf, 0.0)
        assert (result.levene_stat, result.levene_p) == (math.inf, 0.0)

    def test_a_mean_square_that_underflows_reads_as_zero(self):
        # a within-group sum of squares of 5e-324, the least subnormal, has a mean square
        # of 0: F and every q are inf rather than a ZeroDivisionError
        groups = [GroupSample("a", (0.0, 0.0, 3e-162)), GroupSample("b", (1.0, 1.0, 1.0))]
        result = one_way_anova(groups)
        assert result.ss_within == 5e-324
        assert (result.f_stat, result.p_value) == (math.inf, 0.0)
        [pair] = tukey_hsd(groups).pairs
        assert (pair.q_stat, pair.p_adj, pair.significant) == (math.inf, 0.0, True)
