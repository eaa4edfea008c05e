import math
import random
from collections import Counter

import pytest

from sombor import chem, qspr
from sombor.chem import load_dataset, octane_dataset_path, so2_table
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

    def test_constant_response(self):
        # r^2 is the squared correlation, undefined for a constant y
        with pytest.raises(ValueError, match="^response is constant$"):
            linear_fit([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("xs, ys", [
        ([1.0, 2.0, 3.0], [1e308, -1e308, 1e308]),  # a square overflows
        ([1.0, 2.0, 3.0], [1e308, 1e308, 1e308]),  # fsum overflows
        ([1.0, 2.0, math.nan], [1.0, 2.0, 3.0]),
        ([1.0, 2.0, 3.0], [1.0, math.inf, 3.0]),
    ], ids=["square", "sum", "nan", "inf"])
    def test_non_finite_sums_raise(self, xs, ys):
        with pytest.raises(ValueError, match="^a sum of the data is not "
                                             "finite"):
            linear_fit(xs, ys)

    def test_slope_overflow_raises(self):
        # every sum is finite, but the slope is not, and times a zero
        # mean x it would make a NaN intercept
        with pytest.raises(ValueError, match="^the fitted line overflows$"):
            linear_fit([-1e-160, 1e-160], [-1e153, 1e153])

    @pytest.mark.parametrize("scale", [1e80, 1e-160])
    def test_sums_whose_product_leaves_the_float_range(self, scale):
        # sxx * syy overflows at 1e80 and underflows at 1e-160, yet r^2
        # is scale-free
        xs, ys = [1.0, 2.0, 4.0], [1.0, 3.0, 2.0]
        fit = linear_fit([scale * x for x in xs], [scale * y for y in ys])
        assert fit.r_squared == pytest.approx(linear_fit(xs, ys).r_squared,
                                              rel=1e-4)

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

    def test_index_as_target(self, octanes):
        # a target that names an index is computed, not read
        fit, points = fit_property(octanes, "so2", "m1")
        assert [(name, y) for name, _, y in points] == [
            (r.name, index_value(r.graph(), "m1")) for r in octanes]
        assert fit.r_squared == correlation_grid(octanes, ["so2"],
                                                 ["m1"])[("so2", "m1")]

    def test_missing_property_reported(self, octanes):
        with pytest.raises(ValueError, match="lacks property"):
            fit_property(octanes, "so2", "BoilingPoint")

    def test_property_no_molecule_has_lists_the_datasets(self, octanes):
        # not one molecule's fault: the message names the columns there are
        with pytest.raises(ValueError) as info:
            fit_property(octanes, "so2", "bp")
        assert str(info.value) == (
            "every molecule lacks property 'bp'; the dataset's properties "
            "are: AcenFac, S, SNar, HNar")
        # a property only some molecules lack names the first of them
        first, *rest = octanes
        partial = [chem.MoleculeRecord(name=first.name, smiles=first.smiles,
                                       properties={}), *rest]
        with pytest.raises(ValueError, match=f"^molecule {first.name!r} "
                                             f"lacks property 'S'$"):
            fit_property(partial, "so2", "S")
        with pytest.raises(ValueError, match="properties are: none$"):
            fit_property(partial[:1], "so2", "S")


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

    def test_each_name_evaluated_once_per_graph(self, octanes, monkeypatch):
        calls = Counter()
        real = qspr.index_value

        def counted(g, name):
            calls[(name, id(g))] += 1
            return real(g, name)

        monkeypatch.setattr(qspr, "index_value", counted)
        grid = correlation_grid(octanes, ["so2", "m1", "so2"],
                                ["so2", "AcenFac", "mn"])
        assert len(grid) == 6
        assert {name for name, _ in calls} == {"so2", "m1", "mn"}
        assert len(calls) == 3 * len(octanes)
        assert set(calls.values()) == {1}

    def test_unknown_index_rejected(self, octanes):
        with pytest.raises(ValueError, match="unknown index"):
            correlation_grid(octanes, ["zagreb99"], ["AcenFac"])

    def test_fit_errors_name_the_index_and_the_target(self, octanes):
        # linear_fit's own message stays bare; its callers say what was
        # fitted
        records = [chem.MoleculeRecord(name=r.name, smiles=r.smiles,
                                       properties={**r.properties, "C": 1.0})
                   for r in octanes]
        with pytest.raises(ValueError, match="^so2 against 'C': response is "
                                             "constant$"):
            correlation_grid(records, ["so2", "m1"], ["AcenFac", "C"])
        with pytest.raises(ValueError, match="^m1 against 'C': response is "
                                             "constant$"):
            fit_property(records, "m1", "C")


class TestParsedOnce:
    def test_each_record_parses_its_smiles_once(self, monkeypatch):
        real, calls = chem.parse_alkane_smiles, []

        def counting(smiles):
            calls.append(smiles)
            return real(smiles)

        monkeypatch.setattr(chem, "parse_alkane_smiles", counting)
        octanes = load_dataset(octane_dataset_path())  # fresh, unparsed
        for _ in range(2):
            correlation_grid(octanes, ["so2", "m1"], ["AcenFac"])
        fit_property(octanes, "so2", "AcenFac")
        so2_table(octanes)
        assert len(calls) == len(octanes) == 18


class TestIndexValue:
    def test_index_names_cover_kernels_and_mn(self, octanes):
        g = octanes[0].graph()
        for name in ("so2", "so", "m1", "m2", "f", "r", "sci", "sdd", "mn"):
            assert index_value(g, name) > 0
