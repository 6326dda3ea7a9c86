"""Concept-space document vectors and similarity diagnostics.

Each stratum becomes a vector of per-1,000-word concept frequencies, which
makes source and target strata directly comparable regardless of corpus size.
Cosine, Euclidean distance, and a two-component projection operate on these.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError, ValidationError
from .ingest import CorpusStratum
from .lexicon import ConceptMap, Side

@dataclass(frozen=True, eq=False)
class ConceptVector:
    stratum_label: str
    dims: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if len(self.dims) != values.shape[0]:
            raise ValidationError("dims and values differ in length")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ValidationError("vector values must be finite and non-negative")


def concept_vector(stratum: CorpusStratum, cmap: ConceptMap, side: Side) -> ConceptVector:
    """Per-1,000-word token rate of each concept's lemmas, dims sorted by concept id."""
    cmap.check_language(stratum.language_code, side)
    total = stratum.total_word_count
    if total == 0:
        raise AnalysisError("empty stratum")
    counts = stratum.lemma_counts()
    dims = tuple(sorted(cmap.concepts))
    values = np.array([
        1000.0 * sum(counts[lem] for lem in cmap.concepts[cid].lemmas(side)) / total
        for cid in dims])
    return ConceptVector(stratum.label, dims, values)


def _check_dims(u: ConceptVector, v: ConceptVector) -> None:
    if u.dims != v.dims:
        raise ValidationError("vectors have different dims")


def cosine(u: ConceptVector, v: ConceptVector) -> float:
    """Cosine of the angle between two vectors; undefined for a zero vector."""
    _check_dims(u, v)
    nu = float(np.linalg.norm(u.values))
    nv = float(np.linalg.norm(v.values))
    if nu == 0.0 or nv == 0.0:
        raise AnalysisError("undefined cosine for a zero vector")
    return float(np.clip(np.dot(u.values, v.values) / (nu * nv), -1.0, 1.0))


def euclidean(u: ConceptVector, v: ConceptVector) -> float:
    """Straight-line distance between the two vectors."""
    _check_dims(u, v)
    return float(np.linalg.norm(u.values - v.values))


@dataclass(frozen=True, eq=False)
class Projection2D:
    labels: tuple[str, ...]
    coords: np.ndarray              # shape (n, 2)
    explained_variance: tuple[float, float]
    components: np.ndarray          # shape (2, d); a row past min(n - 1, d) is zero
    eigenvalues: tuple[float, float]


def _orient(vec: np.ndarray) -> np.ndarray:
    # reproducible sign: the largest-magnitude loading points positive
    idx = int(np.argmax(np.abs(vec)))
    return -vec if vec[idx] < 0 else vec


def pca_2d(vectors: list[ConceptVector]) -> Projection2D:
    """Project vectors onto the top two principal axes of their sample covariance.

    The axes come from one thin SVD of the centred n x d data, so no d x d
    matrix is formed; each points so that its largest-magnitude loading is
    positive. Centred rows span at most min(n - 1, d) axes: one beyond that is
    a zero row with zero coordinates, eigenvalue and fraction. Eigenvalues are
    coordinate variances; fractions are s_i^2 over the sum for the axes that
    exist, so none exceeds 1. Identical input vectors raise an error.
    """
    if len(vectors) < 2:
        raise ValidationError("need at least 2 vectors")
    dims = vectors[0].dims
    for v in vectors[1:]:
        _check_dims(vectors[0], v)
    X = np.vstack([v.values for v in vectors])
    centered = X - X.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    power = s[:min(len(vectors) - 1, len(dims))] ** 2  # one per axis that exists
    if power.sum() <= 0.0:
        raise AnalysisError("degenerate covariance: all vectors identical")

    axes = min(len(power), 2)
    components = np.zeros((2, len(dims)))
    components[:axes] = [_orient(w) for w in vt[:axes]]
    coords = np.zeros((len(vectors), 2))
    coords[:, :axes] = centered @ components[:axes].T
    fractions = np.append(power / power.sum(), 0.0)  # at least one axis exists
    return Projection2D(
        labels=tuple(v.stratum_label for v in vectors),
        coords=coords,
        explained_variance=(float(fractions[0]), float(fractions[1])),
        components=components,
        eigenvalues=tuple(float(c @ c) / (len(vectors) - 1) for c in coords.T),
    )
