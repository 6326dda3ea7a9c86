from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from semdrift import ConceptVector, Side, concept_vector, cosine, euclidean, pca_2d
from semdrift.errors import AnalysisError, ValidationError

from helpers import fixture_concept_map, make_stratum

DIMS8 = tuple(f"c{i}" for i in range(8))


def vec(values, label="v", dims=None):
    values = np.asarray(values, dtype=float)
    return ConceptVector(label, dims or tuple(f"c{i}" for i in range(len(values))), values)


class TestConceptVector:
    def test_per_thousand_rate(self):
        cmap = fixture_concept_map()
        stratum = make_stratum(["say"] * 5 + ["filler"] * 495, language="en")
        v = concept_vector(stratum, cmap, Side.TARGET)
        assert v.values[v.dims.index("say")] == pytest.approx(10.0)

    def test_no_hits_is_zero_vector(self):
        cmap = fixture_concept_map()
        v = concept_vector(make_stratum(["filler"] * 10, language="en"), cmap, Side.TARGET)
        assert np.all(np.asarray(v.values) == 0.0)

    def test_document_permutation_invariance(self):
        cmap = fixture_concept_map()
        lemmas = ["say", "tell", "good", "filler", "bad", "say"]
        a = concept_vector(make_stratum(lemmas, language="en"), cmap, Side.TARGET)
        b = concept_vector(make_stratum(lemmas[::-1], language="en"), cmap, Side.TARGET)
        assert np.array_equal(np.asarray(a.values), np.asarray(b.values))

    def test_empty_stratum_errors(self):
        cmap = fixture_concept_map()
        with pytest.raises(AnalysisError, match="empty stratum"):
            concept_vector(make_stratum([], language="en"), cmap, Side.TARGET)

    def test_dims_sorted(self):
        cmap = fixture_concept_map()
        v = concept_vector(make_stratum(["say"], language="en"), cmap, Side.TARGET)
        assert list(v.dims) == sorted(v.dims)


class TestCosine:
    def test_identical_vectors(self):
        u = vec([1, 2, 3])
        assert cosine(u, u) == pytest.approx(1.0)

    def test_disjoint_support_is_orthogonal(self):
        assert cosine(vec([1, 0, 2]), vec([0, 3, 0])) == pytest.approx(0.0)

    def test_hand_computed_three_dim(self):
        # (1,2,0) . (2,1,0) = 4; norms sqrt(5) each -> 4/5
        assert cosine(vec([1, 2, 0]), vec([2, 1, 0])) == pytest.approx(0.8)

    def test_zero_vector_undefined(self):
        with pytest.raises(AnalysisError, match="undefined cosine"):
            cosine(vec([0, 0]), vec([1, 1]))

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError, match="different dims"):
            cosine(vec([1, 2]), vec([1, 2, 3]))

    @given(arrays(float, 5, elements=st.floats(0, 100)),
           arrays(float, 5, elements=st.floats(0, 100)),
           st.floats(0.01, 50))
    def test_symmetry_and_scale_invariance(self, a, b, alpha):
        if np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
            return
        u, v = vec(a), vec(b)
        assert cosine(u, v) == pytest.approx(cosine(v, u))
        assert cosine(vec(alpha * a), v) == pytest.approx(cosine(u, v), abs=1e-9)
        assert 0.0 <= cosine(u, v) <= 1.0   # non-negative inputs


class TestEuclidean:
    def test_identical_is_zero(self):
        u = vec([3, 4, 5])
        assert euclidean(u, u) == 0.0

    def test_three_four_five(self):
        assert euclidean(vec([0, 0]), vec([3, 4])) == pytest.approx(5.0)

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError, match="different dims"):
            euclidean(vec([1]), vec([1, 2]))

    def test_metric_properties_on_random_triples(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            a, b, c = (vec(rng.random(4) * 10) for _ in range(3))
            dab, dbc, dac = euclidean(a, b), euclidean(b, c), euclidean(a, c)
            assert dab >= 0
            assert dab == pytest.approx(euclidean(b, a))
            assert dac <= dab + dbc + 1e-9


def dense_projection(vectors):
    """Oracle: full dense eigendecomposition of the sample covariance."""
    X = np.vstack([v.values for v in vectors])
    centered = X - X.mean(axis=0)
    cov = centered.T @ centered / (X.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    top = eigvecs[:, order[:2]]
    return centered @ top, eigvals[order], cov


def svd_projection(vectors):
    """Oracle: numpy's thin SVD of the centred data; coordinates are U times s."""
    X = np.vstack([v.values for v in vectors])
    u, s, _ = np.linalg.svd(X - X.mean(axis=0), full_matrices=False)
    return u[:, :2] * s[:2], s


# concept rates as the CLI sees them: per-1,000-word values with two decimals
RATES = st.integers(0, 10_000).map(lambda k: k / 100)


@st.composite
def low_rank_rows(draw):
    """2-8 rows of 1-12 rates: multiples of one row, or repeats of at most three rows."""
    n, d = draw(st.integers(2, 8)), draw(st.integers(1, 12))
    if draw(st.booleans()):
        scales = draw(st.lists(st.integers(0, 100), min_size=n, max_size=n))
        return np.outer(np.array(scales) / 10, draw(arrays(float, d, elements=RATES)))
    distinct = draw(st.lists(arrays(float, d, elements=RATES), min_size=1, max_size=3))
    picks = draw(st.lists(st.sampled_from(range(len(distinct))), min_size=n, max_size=n))
    return np.array([distinct[i] for i in picks])


class TestPca2d:
    def test_collinear_input_is_rank_one(self):
        base = np.array([1.0, 2, 3, 4, 0, 0, 0, 0])
        vectors = [vec(base * k, label=f"v{k}", dims=DIMS8) for k in (1, 2, 3, 4)]
        proj = pca_2d(vectors)
        assert proj.explained_variance[1] < 1e-9
        assert np.all(np.abs(np.asarray(proj.coords)[:, 1]) < 1e-9)

    def test_centering_makes_projections_sum_to_zero(self):
        rng = np.random.default_rng(3)
        vectors = [vec(rng.random(8) * 5, label=f"v{i}", dims=DIMS8) for i in range(6)]
        proj = pca_2d(vectors)
        assert np.allclose(np.asarray(proj.coords).sum(axis=0), 0.0, atol=1e-8)

    def test_matches_dense_eigendecomposition(self):
        rng = np.random.default_rng(42)
        for trial in range(5):
            vectors = [vec(rng.random(8) * 10, label=f"v{i}", dims=DIMS8)
                       for i in range(5)]
            proj = pca_2d(vectors)
            coords = np.asarray(proj.coords)
            oracle, eigvals, cov = dense_projection(vectors)
            n = len(vectors)
            for i in range(n):
                for j in range(i + 1, n):
                    mine = np.linalg.norm(coords[i] - coords[j])
                    ref = np.linalg.norm(oracle[i] - oracle[j])
                    assert mine == pytest.approx(ref, abs=1e-6)
            assert proj.explained_variance[0] >= proj.explained_variance[1]
            assert proj.eigenvalues[0] == pytest.approx(eigvals[0], rel=1e-8)

    def test_eigenpair_residual_tolerance(self):
        rng = np.random.default_rng(5)
        vectors = [vec(rng.random(8) * 10, label=f"v{i}", dims=DIMS8) for i in range(6)]
        proj = pca_2d(vectors)
        _, _, cov = dense_projection(vectors)
        for lam, w in zip(proj.eigenvalues, np.asarray(proj.components)):
            assert np.linalg.norm(cov @ w - lam * w) <= 1e-8 * np.linalg.norm(w)

    def test_projection_contracts_distances(self):
        rng = np.random.default_rng(9)
        vectors = [vec(rng.random(8) * 10, label=f"v{i}", dims=DIMS8) for i in range(7)]
        coords = np.asarray(pca_2d(vectors).coords)
        for i in range(len(vectors)):
            for j in range(i + 1, len(vectors)):
                projected = np.linalg.norm(coords[i] - coords[j])
                original = euclidean(vectors[i], vectors[j])
                assert projected <= original + 1e-9

    def test_one_dimension_has_a_zero_second_axis(self):
        proj = pca_2d([vec([1.0], label="a"), vec([3.0], label="b"), vec([5.0], label="c")])
        assert proj.eigenvalues == (4.0, 0.0)
        assert proj.explained_variance == (1.0, 0.0)
        assert np.array_equal(proj.components, [[1.0], [0.0]])
        assert np.array_equal(proj.coords, [[-2.0, 0.0], [0.0, 0.0], [2.0, 0.0]])

    def test_two_vectors_have_a_zero_second_axis(self):
        rng = np.random.default_rng(8)
        proj = pca_2d([vec(rng.random(8) * 10, label=label, dims=DIMS8) for label in "ab"])
        assert proj.eigenvalues[1] == 0.0
        assert proj.explained_variance == (1.0, 0.0)
        assert np.array_equal(np.asarray(proj.coords)[:, 1], [0.0, 0.0])
        assert np.array_equal(np.asarray(proj.components[1]), np.zeros(8))

    @settings(deadline=None)
    @given(low_rank_rows())
    def test_low_rank_inputs_keep_fractions_and_missing_axes_exact(self, rows):
        assume(np.any(rows != rows[0]))
        vectors = [vec(row, label=f"v{i}") for i, row in enumerate(rows)]
        proj = pca_2d(vectors)
        coords, components = np.asarray(proj.coords), np.asarray(proj.components)
        first, second = proj.explained_variance
        assert 0.0 <= first <= 1.0 and 0.0 <= second <= 1.0
        assert first + second <= 1.0 + 2.3e-16  # one ulp from two rounded quotients
        if min(len(rows) - 1, rows.shape[1]) < 2:
            assert proj.eigenvalues[1] == 0.0 and second == 0.0
            assert not np.any(coords[:, 1]) and not np.any(components[1])
        oracle, _, _ = dense_projection(vectors)
        for i, j in combinations(range(len(rows)), 2):
            assert np.linalg.norm(coords[i] - coords[j]) == pytest.approx(
                np.linalg.norm(oracle[i] - oracle[j]), abs=1e-6)
        svd_coords, s = svd_projection(vectors)
        power = s[:min(len(rows) - 1, rows.shape[1])] ** 2
        assert first == pytest.approx(power[0] / power.sum(), abs=1e-9)
        for i, j in combinations(range(len(rows)), 2):
            assert np.linalg.norm(coords[i] - coords[j]) == pytest.approx(
                np.linalg.norm(svd_coords[i] - svd_coords[j]), abs=1e-6)

    def test_identical_vectors_degenerate(self):
        v = np.ones(8)
        with pytest.raises(AnalysisError, match="degenerate covariance"):
            pca_2d([vec(v, label="a", dims=DIMS8), vec(v, label="b", dims=DIMS8)])

    def test_no_dimensions_degenerate(self):
        with pytest.raises(AnalysisError, match="degenerate covariance"):
            pca_2d([vec([], label="a"), vec([], label="b")])

    def test_needs_two_vectors(self):
        with pytest.raises(ValidationError, match="at least 2"):
            pca_2d([vec(np.ones(3))])

    def test_reproducible_across_calls(self):
        rng = np.random.default_rng(21)
        vectors = [vec(rng.random(8), label=f"v{i}", dims=DIMS8) for i in range(5)]
        a = pca_2d(vectors)
        b = pca_2d(vectors)
        assert np.array_equal(a.coords, b.coords)
        assert a.explained_variance == b.explained_variance
