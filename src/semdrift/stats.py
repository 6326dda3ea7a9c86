"""One-way ANOVA and Tukey HSD with self-contained distribution kernels.

The F CDF uses the regularized incomplete beta function evaluated by Lentz's
continued fraction. The studentized range CDF of two groups is the F CDF itself:
P(Q <= q) = P(F(1, df) <= q^2 / 2). For three or more groups it is a fixed
double Gauss-Legendre quadrature in pure Python: 96 nodes over the normal location,
and over the scaled chi variable either 64 nodes on the range where its density is
within e^-46 of its peak (df >= 4; the weights are scaled to unit mass there) or 160
nodes on [0, 14] (df < 4). Two bounds each drop cells of that grid that add at most
1e-19 in all: the leading location nodes of k and the chi nodes of negligible weight.

A row, the location integral at range r = q s, depends on k and r alone, so it is
read from one piecewise Chebyshev interpolant per k (Trefethen 2013, "Approximation
Theory and Approximation Practice"); see `studentized_range_cdf`. Its panels for
k = 3-10 are read from the table `chebyshev_panels.txt`, and for larger k built on
first use. Against `scipy.stats.studentized_range.cdf` the kernel agrees within
1.4e-12 over k = 2-10, df = 1-1000 and q = 0.5-8, most of which is scipy's own error.
The rules are read from the table `gauss_legendre.txt`. Both tables ship with the
package, so no process recomputes them, and the p-values do not depend on the
platform's eigenvalue solver.
"""

import math
import warnings
from functools import lru_cache
from itertools import combinations
from pathlib import Path

from .errors import DegenerateVarianceWarning, FrozenRecord, ValidationError

_INNER_NODES = 96          # normal-location integral, truncated to [-9, 9]
_OUTER_NODES = 64          # chi-scale integral over the fitted range (df >= 4)
_SMALL_DF_NODES = 160      # chi-scale integral over [0, 14] (df < 4)
_CHI_LOG_DROP = 46.0       # the fitted range ends where the chi density is e^-46 of its peak
_PRUNE_EPS = 1e-19         # each of the two pruning bounds drops at most this much
_PANEL_WIDTH = 0.5         # the row interpolant's panels in the range r ...
_PANEL_DEGREE = 12         # ... and the degree of each one's Chebyshev series
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_BETA_MAX_ITER = 300
_BETA_EPS = 3e-16
_LEGENDRE_TABLE = Path(__file__).with_name("gauss_legendre.txt")
_PANEL_TABLE = Path(__file__).with_name("chebyshev_panels.txt")
_TABLED_K = range(3, 11)   # the k whose row panels _PANEL_TABLE holds

_Rule = tuple[tuple[float, ...], tuple[float, ...]]  # nodes and weights


class GroupSample(FrozenRecord):
    def __init__(self, label: str, values: tuple[float, ...]):
        values = tuple(map(float, values))
        if not all(map(math.isfinite, values)):
            raise ValidationError(f"group {label!r} contains non-finite values")
        self.__dict__.update(label=label, values=values)


class AnovaResult(FrozenRecord):
    # levene_stat and levene_p: a variance-heterogeneity diagnostic (Levene on deviations
    # from group means), reported alongside the test but never acted upon
    def __init__(self, f_stat: float, df_between: int, df_within: int, p_value: float,
                 group_means: dict[str, float], ss_between: float, ss_within: float,
                 degenerate: bool = False, levene_stat: float = 0.0, levene_p: float = 1.0):
        self.__dict__.update(f_stat=f_stat, df_between=df_between, df_within=df_within,
                             p_value=p_value, group_means=group_means, ss_between=ss_between,
                             ss_within=ss_within, degenerate=degenerate,
                             levene_stat=levene_stat, levene_p=levene_p)


class PairComparison(FrozenRecord):
    def __init__(self, a: str, b: str, mean_diff: float, q_stat: float, p_adj: float,
                 significant: bool):
        self.__dict__.update(a=a, b=b, mean_diff=mean_diff, q_stat=q_stat, p_adj=p_adj,
                             significant=significant)


class TukeyResult(FrozenRecord):
    def __init__(self, pairs: tuple[PairComparison, ...], df_within: int,
                 degenerate: bool = False):
        self.__dict__.update(pairs=pairs, df_within=df_within, degenerate=degenerate)


def _mean(values) -> float:
    """The mean of `values`, rounded once: math.fsum rounds the sum once, so no Python
    version's sum() can move a digit. Equal values have that value as their mean, which
    the rounded sum divided by the count can miss (three copies of 342.01501743252754
    give 342.0150174325275)."""
    first = values[0]
    if all(v == first for v in values):
        return first
    return math.fsum(values) / len(values)


def _decompose(groups: list[GroupSample]):
    if len(groups) < 2:
        raise ValidationError("need at least 2 groups")
    labels = [g.label for g in groups]
    if len(set(labels)) != len(labels):
        raise ValidationError("group labels must be unique")
    for g in groups:
        if len(g.values) < 2:
            raise ValidationError(f"group {g.label!r} needs at least 2 values")
    ns = [len(g.values) for g in groups]
    means = [_mean(g.values) for g in groups]
    total_n = sum(ns)
    grand = math.fsum(v for g in groups for v in g.values) / total_n
    ss_between = math.fsum(n * (m - grand) ** 2 for n, m in zip(ns, means))
    ss_within = math.fsum((v - m) ** 2 for g, m in zip(groups, means) for v in g.values)
    first = groups[0].values[0]
    all_identical = all(v == first for g in groups for v in g.values)
    return labels, ns, means, ss_between, ss_within, all_identical


def _f_test(ns: list[int], ss_between: float, ss_within: float,
            identical: bool) -> tuple[float, float]:
    """The one-way F statistic and its p-value. F is 0 when every value is the same and
    inf when only the within-group mean square is 0; there the CDF gives p = 1 and 0."""
    df_between, df_within = len(ns) - 1, sum(ns) - len(ns)
    ms_within = ss_within / df_within
    if identical:
        f = 0.0
    elif ms_within == 0.0:
        f = math.inf
    else:
        f = (ss_between / df_between) / ms_within
    return f, 1.0 - f_cdf(f, df_between, df_within)


def one_way_anova(groups: list[GroupSample]) -> AnovaResult:
    """Classic one-way ANOVA over two or more groups.

    Parameters
    ----------
    groups : list of GroupSample
        At least two groups with at least two finite values each.

    Returns
    -------
    AnovaResult
        F statistic, degrees of freedom, p-value from the F distribution, the
        sum-of-squares decomposition, and Levene's variance-heterogeneity
        diagnostic W, the F of the same test on the absolute deviations from the
        group means. Zero within-group variance with a nonzero between-group
        component reports an infinite F with p = 0 and raises
        DegenerateVarianceWarning; fully identical data reports F = 0, p = 1.
    """
    labels, ns, means, ss_between, ss_within, all_identical = _decompose(groups)
    k = len(groups)
    df_between = k - 1
    df_within = sum(ns) - k
    group_means = dict(zip(labels, means))
    if all_identical:
        return AnovaResult(0.0, df_between, df_within, 1.0, group_means,
                           0.0, 0.0, degenerate=True)
    f_stat, p_value = _f_test(ns, ss_between, ss_within, False)
    deviations = [GroupSample(g.label, tuple(abs(v - m) for v in g.values))
                  for g, m in zip(groups, means)]
    _, _, _, z_between, z_within, z_identical = _decompose(deviations)
    levene_stat, levene_p = _f_test(ns, z_between, z_within, z_identical)
    degenerate = ss_within == 0.0
    if degenerate:
        warnings.warn("zero within-group variance with nonzero between-group variance",
                      DegenerateVarianceWarning, stacklevel=2)
    return AnovaResult(f_stat, df_between, df_within, p_value, group_means, ss_between,
                       ss_within, degenerate, levene_stat, levene_p)


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        for coef in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                     -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + coef * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + coef / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def _betainc_reg(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    # continued fraction converges fast below the distribution's mean
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def f_cdf(x: float, d1: int, d2: int) -> float:
    """CDF of the F distribution with (d1, d2) degrees of freedom.

    Evaluates the regularized incomplete beta function by continued fraction;
    absolute error is well below 1e-10 over the tested grid.
    """
    if d1 < 1 or d2 < 1:
        raise ValidationError("degrees of freedom must be >= 1")
    if not x > 0.0:  # a NaN x as well, as studentized_range_cdf reads a NaN q
        return 0.0
    scaled = d1 * x
    if math.isinf(scaled):  # x is inf, or so large that d1 * x overflows: inf/inf is NaN
        return 1.0
    ratio = scaled / (scaled + d2)
    return min(1.0, max(0.0, _betainc_reg(d1 / 2.0, d2 / 2.0, ratio)))


def _table_rows(path: Path, key: int) -> list[tuple[float, ...]]:
    """The values of each line of a shipped table that starts with `key`, in file order.

    A table line is the key and then values written with `float.hex`, and each key's lines
    form one block. The file is read a line at a time, only the key's lines are split,
    and the read stops at the end of their block.
    """
    prefix, rows = f"{key} ", []
    with path.open(encoding="utf-8") as table:  # ASCII, read without loading its codec
        for line in table:
            if line.startswith(prefix):
                rows.append(tuple(map(float.fromhex, line.split()[1:])))
            elif rows:
                break
    return rows


@lru_cache(maxsize=None)
def _legendre_rule(n: int) -> _Rule:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], from the table
    of lines `n node weight`."""
    nodes, weights = zip(*_table_rows(_LEGENDRE_TABLE, n))
    return nodes, weights


def _gauss_legendre(n: int, lo: float, hi: float) -> _Rule:
    """The n-point Gauss-Legendre rule on [lo, hi]: nodes and weights."""
    nodes, weights = _legendre_rule(n)
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    return tuple(half * x + mid for x in nodes), tuple(half * w for w in weights)


# The two pruning bounds. Each drops only cells whose sum is provably at most
# _PRUNE_EPS: a cell of inner node j in the row at range r is
# c_j (Phi(z_j) - Phi(z_j - r))^(k-1) with c_j = w_j k phi(z_j), and the c_j add up to k
# times the inner rule's mass of phi, 1 + 4e-15.

@lru_cache(maxsize=128)
def _inner_cells(k: int) -> tuple[tuple[float, float, float], ...]:
    """The constants (u_j, e_j, b_j) of the cell of each inner node that the inner bound
    keeps for k.

    As Phi(z) - Phi(z - r) = (erf(u) - erf(u - r / sqrt(2))) / 2 with u = z / sqrt(2), a
    cell is b_j (e_j - erf(u_j - r / sqrt(2)))^(k-1) with e_j = erf(u_j) and
    b_j = c_j / 2^(k-1).

    The inner bound, leading inner nodes: as 0 <= Phi(z - r) <= Phi(z), a cell is at most
    c_j Phi(z_j)^(k-1) = b_j (1 + e_j)^(k-1) for every r, so the leading nodes whose such
    bounds add up to at most _PRUNE_EPS are dropped from every row.
    """
    cells, dropped = [], 0.0
    for x, w in zip(*_gauss_legendre(_INNER_NODES, -9.0, 9.0)):
        u = x * _INV_SQRT2
        e = math.erf(u)
        b = math.ldexp(w * k * (math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)), 1 - k)
        if not cells:
            dropped += b * (1.0 + e) ** (k - 1)
            if dropped <= _PRUNE_EPS:
                continue
        cells.append((u, e, b))
    return tuple(cells)


def _chi_range(df: int) -> tuple[float, float]:
    """Where the density of s = sqrt(chi^2_df / df), df >= 4, is e^-_CHI_LOG_DROP of its peak.

    With t = s^2 df / (df - 1) the log density lies (df - 1)/2 (ln t - t + 1) below its
    peak, so the ends are the two roots of t - ln t = 1 + 2 drop / (df - 1). Newton's
    method approaches each root monotonically from outside, as the function is convex.
    """
    c = 1.0 + 2.0 * _CHI_LOG_DROP / (df - 1.0)
    ends = []
    for t in (math.exp(-c), 2.0 * c):
        for _ in range(50):
            step = (t - math.log(t) - c) / (1.0 - 1.0 / t)
            t -= step
            if abs(step) <= 1e-15 * t:
                break
        ends.append(math.sqrt(t * (df - 1.0) / df))
    return ends[0], ends[1]


@lru_cache(maxsize=128)
def _outer_rule(df: int) -> _Rule:
    """Nodes of the chi-scale rule for `df` and their weights times the chi density.

    The outer bound: a row is at most the sum of c_j Phi(z_j)^(k-1), the inner rule's value
    of an integral that is 1 (within 2e-11 of it for k <= 20), so a node whose weight is
    at most _PRUNE_EPS is dropped.
    """
    if df < 4:
        s, ws = _gauss_legendre(_SMALL_DF_NODES, 0.0, 14.0)
        ln_norm = (0.5 * df * math.log(df) - math.lgamma(0.5 * df)
                   - (0.5 * df - 1.0) * math.log(2.0))
        weights = [w * math.exp(ln_norm + (df - 1.0) * math.log(x) - 0.5 * df * x * x)
                   for x, w in zip(s, ws)]
    else:
        s, ws = _gauss_legendre(_OUTER_NODES, *_chi_range(df))
        # the density relative to its peak (see _chi_range), scaled to unit mass on the
        # rule: the range holds all but e^-46 of it, and the normalising constant's
        # lgamma terms, which cancel to ~eps * df, never enter
        t = [x * x * (df / (df - 1.0)) for x in s]
        weights = [w * math.exp(0.5 * (df - 1.0) * (math.log(v) - v + 1.0))
                   for v, w in zip(t, ws)]
        mass = math.fsum(weights)
        weights = [w / mass for w in weights]
    kept = [(x, w) for x, w in zip(s, weights) if w > _PRUNE_EPS]
    return tuple(x for x, _ in kept), tuple(w for _, w in kept)


def _row(r: float, k: int) -> float:
    """The inner integral at range r: the `math.fsum` of the cells that the inner bound
    keeps."""
    v, power, erf = r * _INV_SQRT2, k - 1, math.erf
    return math.fsum([b * (e - erf(u - v)) ** power for u, e, b in _inner_cells(k)])


def _saturation_point(k: int) -> float:
    """The least r from which every erf(u_j - r / sqrt(2)) is exactly -1, so that
    `_row(r, k)` is one constant. It is the largest inner node plus sqrt(2) times where
    erf rounds to -1: 8.997 + 8.374 for every k up to 100. The condition only grows more
    true with r, and each halving of [lo, hi] keeps it true at `hi`."""
    last = _inner_cells(k)[-1][0]
    lo, hi = 0.0, 40.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if math.erf(last - mid * _INV_SQRT2) == -1.0:
            hi = mid
        else:
            lo = mid
    return hi


@lru_cache(maxsize=1)
def _chebyshev_cosines() -> tuple[float, ...]:
    """cos(pi p / n) for p < 2n, n = _PANEL_DEGREE: the Chebyshev points and the DCT."""
    n = _PANEL_DEGREE
    return tuple(math.cos(math.pi * p / n) for p in range(2 * n))


def _build_panel(k: int, i: int, top: float) -> tuple[float, tuple[float, ...]]:
    """Panel i of k: an offset, 0 or `top`, and the Chebyshev coefficients (highest degree
    first) of `_row - offset` at the n + 1 Chebyshev points of [i w, (i + 1) w]. It is
    also the specification of `_PANEL_TABLE`, which the tests regenerate from it."""
    n, cosines = _PANEL_DEGREE, _chebyshev_cosines()
    lo, half = i * _PANEL_WIDTH, 0.5 * _PANEL_WIDTH
    values = [_row(lo + half * (1.0 + cosines[m]), k) for m in range(n + 1)]
    offset = top if values[n // 2] > 0.5 else 0.0
    values = [v - offset for v in values]
    values[0] *= 0.5
    values[n] *= 0.5
    coefficients = [2.0 / n * math.fsum(v * cosines[j * m % (2 * n)]
                                        for m, v in enumerate(values))
                    for j in range(n + 1)]
    coefficients[0] *= 0.5
    coefficients[n] *= 0.5
    return offset, tuple(reversed(coefficients))


@lru_cache(maxsize=None)
def _tabled_panels(k: int) -> tuple[tuple[float, tuple[float, ...]], ...]:
    """The panels of k in `_PANEL_TABLE`, whose lines are `k offset coefficients...`, in
    panel order."""
    return tuple((row[0], row[1:]) for row in _table_rows(_PANEL_TABLE, k))


@lru_cache(maxsize=128)
def _row_interpolant(k: int) -> tuple[float, float, list]:
    """The saturation point of k, the row from there on, and a slot per panel below it,
    None until a row falls in the panel."""
    cutoff = _saturation_point(k)
    return cutoff, _row(cutoff, k), [None] * math.ceil(cutoff / _PANEL_WIDTH)


def _interpolated_row(r: float, k: int, top: float, panels: list) -> float:
    """`_row(r, k)` below the saturation point, by Clenshaw's recurrence on r's panel,
    which is read from the table or, past its k, built the first time a row falls in it."""
    x = r / _PANEL_WIDTH
    i = int(x)
    panel = panels[i]
    if panel is None:
        panel = panels[i] = (_tabled_panels(k)[i] if k in _TABLED_K
                             else _build_panel(k, i, top))
    offset, coefficients = panel
    t = 2.0 * (x - i) - 1.0
    t2, b1, b2 = 2.0 * t, 0.0, 0.0
    for c in coefficients:
        b1, b2 = c + t2 * b1 - b2, b1
    return offset + (b1 - t * b2)


def studentized_range_cdf(q: float, k: int, df: int) -> float:
    """CDF of the studentized range of k groups with df error degrees of freedom.

    For k = 2 this is exactly P(F(1, df) <= q^2 / 2), from `f_cdf`. For k >= 3 it is a
    double numerical integration of the defining integral: the outer integral runs over
    the scaled chi variable (density of sqrt(chi^2_df / df)), the inner over the normal
    location of the range. The outer rule has 64 Gauss-Legendre nodes on the range where
    the chi density is within e^-46 of its peak, or 160 nodes on [0, 14] when df < 4; the
    inner rule has 96 nodes on [-9, 9]. Two pruning bounds each drop cells that add at
    most 1e-19 in all: the leading inner nodes of k and the outer nodes of negligible
    weight.

    A row, the inner integral at range r = q s, depends on k and r alone. It is read
    from one interpolant per k of the pruned cell sum `_row`: panels of width 0.5 in r,
    each a degree-12 Chebyshev series evaluated by Clenshaw's recurrence. The panels of
    k = 3-10 come from the shipped table `chebyshev_panels.txt`; for larger k a panel is
    built when a row first falls in it. From the saturation point, about 17.37, the row
    is one exact constant, `top`; a panel whose row passes 1/2 at its middle holds the
    deficit `top - row`, so Clenshaw rounds the deficit and not a value near 1. A row is
    within 2e-15 of the cell sum (whose own erf rounding grows with k), the weighted rows
    are summed by `math.fsum`, and the result is within 1e-15 of the quadrature summed
    cell by cell. It agrees with `scipy.stats.studentized_range.cdf` within 1.4e-12 over
    k = 2-10, df = 1-1000 and q = 0.5-8.
    """
    if k < 2:
        raise ValidationError("k must be >= 2")
    if df < 1:
        raise ValidationError("df must be >= 1")
    if not q > 0.0:  # a NaN q as well, which the quadrature's clamp also read as 0
        return 0.0
    if math.isinf(q):
        return 1.0
    if k == 2:
        return f_cdf(q * q / 2.0, 1, df)
    cutoff, top, panels = _row_interpolant(k)
    rows = []
    for s, weight in zip(*_outer_rule(df)):
        r = q * s
        rows.append(weight * (top if r >= cutoff else _interpolated_row(r, k, top, panels)))
    # math.fsum rounds the total once, so no digit depends on the order of the rows
    return min(1.0, max(0.0, math.fsum(rows)))


def tukey_hsd(groups: list[GroupSample], alpha: float = 0.05) -> TukeyResult:
    """Tukey HSD pairwise comparisons after a one-way layout.

    Parameters
    ----------
    groups : list of GroupSample
        Same preconditions as `one_way_anova`. Unequal group sizes use the
        Tukey-Kramer standard error.
    alpha : float
        Familywise significance level in (0, 1).

    Returns
    -------
    TukeyResult
        One comparison per unordered pair, in input order, with the signed
        mean difference (b - a), the q statistic, and the adjusted p-value
        from the studentized range distribution. Pairs with equal q share one
        evaluation of its CDF.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    labels, ns, means, _, ss_within, all_identical = _decompose(groups)
    k = len(groups)
    df_within = sum(ns) - k
    degenerate = ss_within == 0.0
    if degenerate and not all_identical:
        warnings.warn("zero within-group variance; Tukey q statistics are degenerate",
                      DegenerateVarianceWarning, stacklevel=2)
    ms_within = ss_within / df_within
    cdf_at: dict[float, float] = {}
    pairs = []
    for (i, a), (j, b) in combinations(enumerate(labels), 2):
        diff = means[j] - means[i]
        se = math.sqrt(ms_within / 2.0 * (1.0 / ns[i] + 1.0 / ns[j]))
        q = abs(diff) / se if se else math.inf if diff else 0.0  # the CDF is 1 or 0 there
        if q not in cdf_at:
            cdf_at[q] = studentized_range_cdf(q, k, df_within)
        p = 1.0 - cdf_at[q]
        pairs.append(PairComparison(a, b, diff, q, p, p < alpha))
    return TukeyResult(tuple(pairs), df_within, degenerate)
