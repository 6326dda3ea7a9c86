"""Concept-space document vectors and similarity diagnostics.

Each stratum becomes a vector of per-1,000-word concept frequencies, which
makes source and target strata directly comparable regardless of corpus size.
Cosine, Euclidean distance, and a two-component projection operate on these.
"""

import math
import sys
from operator import mul

from .errors import AnalysisError, FrozenRecord, ValidationError
from .ingest import CorpusStratum
from .lexicon import ConceptMap, Side

_JACOBI_SWEEPS = 30  # a safeguard: random, rank-1 and repeated rows, n <= 8, take 8 at most


class ConceptVector(FrozenRecord):
    __eq__, __hash__ = object.__eq__, object.__hash__  # equal only to itself

    def __init__(self, stratum_label: str, dims: tuple[str, ...], values: tuple[float, ...]):
        values = tuple(map(float, values))
        if len(dims) != len(values):
            raise ValidationError("dims and values differ in length")
        if not all(0.0 <= x < math.inf for x in values):
            raise ValidationError("vector values must be finite and non-negative")
        self.__dict__.update(stratum_label=stratum_label, dims=dims, values=values)


def concept_vector(stratum: CorpusStratum, cmap: ConceptMap, side: Side) -> ConceptVector:
    """Per-1,000-word token rate of each concept's lemmas, dims sorted by concept id."""
    cmap.check_language(stratum.language_code, side)
    total = stratum.total_word_count
    if total == 0:
        raise AnalysisError("empty stratum")
    counts = stratum.lemma_counts()
    dims = tuple(sorted(cmap.concepts))
    values = tuple(
        1000.0 * sum(counts[lem] for lem in cmap.concepts[cid].lemmas(side)) / total
        for cid in dims)
    return ConceptVector(stratum.label, dims, values)


def _check_dims(u: ConceptVector, v: ConceptVector) -> None:
    if u.dims != v.dims:
        raise ValidationError("vectors have different dims")


def _dot(a, b) -> float:
    """Dot product: the rounded products are summed with no further rounding error."""
    return math.fsum(map(mul, a, b))


def cosine(u: ConceptVector, v: ConceptVector) -> float:
    """Cosine of the angle between two vectors; undefined for a zero vector."""
    _check_dims(u, v)
    nu, nv = math.hypot(*u.values), math.hypot(*v.values)
    if nu == 0.0 or nv == 0.0:
        raise AnalysisError("undefined cosine for a zero vector")
    return min(1.0, max(-1.0, _dot(u.values, v.values) / (nu * nv)))


def euclidean(u: ConceptVector, v: ConceptVector) -> float:
    """Straight-line distance between the two vectors."""
    _check_dims(u, v)
    return math.dist(u.values, v.values)


class Projection2D(FrozenRecord):
    """`coords` holds one (x, y) per label, and `components` two axes of d loadings (see
    `pca_2d`)."""

    __eq__, __hash__ = object.__eq__, object.__hash__  # equal only to itself

    def __init__(self, labels: tuple[str, ...], coords: tuple[tuple[float, float], ...],
                 explained_variance: tuple[float, float],
                 components: tuple[tuple[float, ...], ...], eigenvalues: tuple[float, float]):
        self.__dict__.update(labels=labels, coords=coords, explained_variance=explained_variance,
                             components=components, eigenvalues=eigenvalues)


def _orient(vec: list[float]) -> tuple[float, ...]:
    # reproducible sign: the largest-magnitude loading points positive
    idx = max(range(len(vec)), key=lambda i: abs(vec[i]))
    return tuple(-x for x in vec) if vec[idx] < 0 else tuple(vec)


def _rotate(x, y, c: float, s: float) -> tuple[list[float], list[float]]:
    return [c * a - s * b for a, b in zip(x, y)], [s * a + c * b for a, b in zip(x, y)]


def _orthogonalize(rows: list, partner: list | None = None) -> list:
    """Rotate pairs of rows until every two are orthogonal: one-sided Jacobi (Hestenes).

    Each plane rotation makes one pair orthogonal, and sweeps over all pairs repeat
    until no pair's cosine exceeds sqrt(len) * eps; `partner`'s rows, if given, take
    the same rotations. Two rows whose squared norms are both at most eps^2 times
    the sum over all rows are rounding noise and stay as they are: they may be
    parallel, as the rows of equal centred columns are, and turning one against the
    other would only shrink it towards underflow. The rotations are orthogonal, so
    with no more rows than columns the rows end as s_k times the right singular
    vectors of the input.
    """
    if len(rows) < 2:
        return rows
    eps = sys.float_info.epsilon
    tol = math.sqrt(len(rows[0])) * eps
    noise = eps * eps * math.fsum(_dot(row, row) for row in rows)
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for i in range(len(rows) - 1):
            for j in range(i + 1, len(rows)):
                a, b, g = _dot(rows[i], rows[i]), _dot(rows[j], rows[j]), _dot(rows[i], rows[j])
                if max(a, b) <= noise or abs(g) <= tol * math.sqrt(a) * math.sqrt(b):
                    continue
                zeta = (b - a) / (2.0 * g)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.hypot(1.0, t)
                rows[i], rows[j] = _rotate(rows[i], rows[j], c, c * t)
                if partner is not None:
                    partner[i], partner[j] = _rotate(partner[i], partner[j], c, c * t)
                rotated = True
        if not rotated:
            break
    return rows


def pca_2d(vectors: list[ConceptVector]) -> Projection2D:
    """Project vectors onto the top two principal axes of their sample covariance.

    The axes come from a one-sided Jacobi SVD of the centred n x d data, so no
    d x d matrix is formed: with n <= d it rotates the n rows, which end as s_k
    times the axes; with more rows than dimensions it rotates the d columns,
    which end as s_k times the left singular vectors, and the axes are the
    same rotations applied to the identity. Each axis points so that its
    largest-magnitude loading is positive. Centred rows span at most
    min(n - 1, d) axes: one beyond that, or one along which the rows have no
    spread, is a zero row with zero coordinates, eigenvalue and fraction.
    Eigenvalues are coordinate variances; fractions are s_k^2 over the sum for
    the axes that exist, so none exceeds 1. Identical input vectors raise an
    error.
    """
    if len(vectors) < 2:
        raise ValidationError("need at least 2 vectors")
    for v in vectors[1:]:
        _check_dims(vectors[0], v)
    n, d = len(vectors), len(vectors[0].dims)
    means = [math.fsum(column) / n for column in zip(*(v.values for v in vectors))]
    centered = [[x - m for x, m in zip(v.values, means)] for v in vectors]
    if n <= d:
        rows = axes = _orthogonalize(list(centered))
    else:
        axes = [[float(i == j) for j in range(d)] for i in range(d)]
        rows = _orthogonalize(list(zip(*centered)), axes)
    power = sorted(((_dot(row, row), k) for k, row in enumerate(rows)), reverse=True)
    power = power[:min(n - 1, d)]  # one per axis that exists, largest first
    total = math.fsum(p for p, _ in power)
    if total <= 0.0:
        raise AnalysisError("degenerate covariance: all vectors identical")

    components = []
    for p, k in power[:2]:
        norm = math.hypot(*axes[k])
        components.append(_orient([x / norm for x in axes[k]]) if p > 0.0 else (0.0,) * d)
    missing = 2 - len(components)
    coords = tuple((*(_dot(row, w) for w in components), *(0.0,) * missing)
                   for row in centered)
    components += [(0.0,) * d] * missing
    fractions = [p / total for p, _ in power] + [0.0]  # at least one axis exists
    return Projection2D(
        labels=tuple(v.stratum_label for v in vectors),
        coords=coords,
        explained_variance=(fractions[0], fractions[1]),
        components=tuple(components),
        eigenvalues=tuple(math.fsum(c * c for c in column) / (n - 1)
                          for column in zip(*coords)),
    )
