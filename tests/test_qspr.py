import math
import random

import pytest

from sombor.chem import load_dataset, octane_dataset_path
from sombor.qspr import (correlation_grid, fit_property, index_value,
                         linear_fit)


@pytest.fixture(scope="module")
def octanes():
    return load_dataset(octane_dataset_path())


class TestLinearFit:
    def test_perfect_fit(self):
        xs = [0.0, 1.0, 2.0, 3.5]
        fit = linear_fit(xs, [2 * x + 1 for x in xs])
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.sample_size == 4

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            linear_fit([1.0, 2.0], [1.0])

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="two points"):
            linear_fit([1.0], [1.0])

    def test_constant_predictor(self):
        with pytest.raises(ValueError, match="constant"):
            linear_fit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_residual_orthogonality(self):
        rng = random.Random(19)
        xs = [rng.uniform(0, 10) for _ in range(40)]
        ys = [3.0 - 0.5 * x + rng.gauss(0, 1) for x in xs]
        fit = linear_fit(xs, ys)
        residuals = [y - fit.predict(x) for x, y in zip(xs, ys)]
        scale = sum(abs(y) for y in ys)
        assert abs(sum(residuals)) <= 1e-9 * scale
        assert abs(sum(r * x for r, x in zip(residuals, xs))) <= 1e-9 * scale * max(xs)

    def test_r_squared_affine_invariance(self):
        rng = random.Random(37)
        xs = [rng.uniform(-5, 5) for _ in range(30)]
        ys = [1.5 * x + rng.gauss(0, 2) for x in xs]
        base = linear_fit(xs, ys).r_squared
        transformed = linear_fit([3.0 * x - 7.0 for x in xs],
                                 [-0.25 * y + 11.0 for y in ys]).r_squared
        assert abs(base - transformed) < 1e-12

    def test_r_squared_symmetry(self):
        rng = random.Random(43)
        xs = [rng.uniform(0, 1) for _ in range(25)]
        ys = [x ** 2 + rng.gauss(0, 0.1) for x in xs]
        assert abs(linear_fit(xs, ys).r_squared
                   - linear_fit(ys, xs).r_squared) < 1e-12


# printed reference fits for the octane data: slope, intercept, and the
# reported correlation magnitude (the square root of r_squared)
REFERENCE_FITS = {
    "AcenFac": (-0.0314, 0.4536, 0.9202),
    "S": (-3.6697, 119.1755, 0.8433),
    "SNar": (-0.3003, 4.6576, 0.9356),
    "HNar": (-0.0815, 1.7137, 0.9512),
}


class TestOctaneRegressions:
    @pytest.mark.parametrize("prop", sorted(REFERENCE_FITS))
    def test_reference_fit(self, octanes, prop):
        slope, intercept, correlation = REFERENCE_FITS[prop]
        fit, points = fit_property(octanes, "so2", prop)
        assert fit.sample_size == 18
        assert len(points) == 18
        assert abs(fit.slope - slope) < 5e-3
        assert abs(fit.intercept - intercept) < 5e-3
        assert abs(math.sqrt(fit.r_squared) - correlation) < 5e-3

    def test_missing_property_reported(self, octanes):
        with pytest.raises(ValueError, match="lacks property"):
            fit_property(octanes, "so2", "BoilingPoint")


# printed reference correlation magnitudes of so2 with the other indices
REFERENCE_INDEX_CORRELATIONS = {
    "so": 0.918,
    "m1": 0.9201,
    "m2": 0.8679,
    "f": 0.9022,
    "r": 0.8969,
    "sci": 0.9150,
    "sdd": 0.8820,
    "mn": 0.9123,
}


class TestCorrelationGrid:
    def test_self_correlation_is_one(self, octanes):
        grid = correlation_grid(octanes, ["so2"], ["so2"])
        assert grid[("so2", "so2")] == pytest.approx(1.0, abs=1e-12)

    def test_index_row_matches_reference(self, octanes):
        targets = sorted(REFERENCE_INDEX_CORRELATIONS)
        grid = correlation_grid(octanes, ["so2"], targets)
        for name, reference in REFERENCE_INDEX_CORRELATIONS.items():
            assert abs(math.sqrt(grid[("so2", name)]) - reference) < 5e-3, name

    def test_property_targets(self, octanes):
        grid = correlation_grid(octanes, ["so2", "m1"], ["AcenFac"])
        assert set(grid) == {("so2", "AcenFac"), ("m1", "AcenFac")}
        assert 0.0 <= grid[("so2", "AcenFac")] <= 1.0

    def test_targets_may_be_a_one_shot_iterator(self, octanes):
        grid = correlation_grid(octanes, ["so2", "m1"], iter(["AcenFac", "S"]))
        assert set(grid) == {("so2", "AcenFac"), ("so2", "S"),
                             ("m1", "AcenFac"), ("m1", "S")}
        assert grid == correlation_grid(octanes, ["so2", "m1"],
                                        ["AcenFac", "S"])

    def test_unknown_index_rejected(self, octanes):
        with pytest.raises(ValueError, match="unknown index"):
            correlation_grid(octanes, ["zagreb99"], ["AcenFac"])


class TestIndexValue:
    def test_index_names_cover_kernels_and_mn(self, octanes):
        g = octanes[0].graph()
        for name in ("so2", "so", "m1", "m2", "f", "r", "sci", "sdd", "mn"):
            assert index_value(g, name) > 0
