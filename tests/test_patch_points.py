"""The module attributes that perfbench's traced run (``--trace 1``)
swaps for timing wrappers with ``unittest.mock.patch.object``.

Some of them are imports the module itself no longer calls (they stay
importable on purpose); removing one breaks only the traced benchmark,
which no other test runs, so their presence is pinned here.
"""

import pytest

import sombor
from sombor import chem, cli, enumeration, extremal, indices, qspr

PATCH_POINTS = [
    (qspr, "so2"), (qspr, "vdb_index"), (qspr, "neighborhood_zagreb"),
    (qspr, "index_value"), (qspr, "linear_fit"), (qspr, "correlation_grid"),
    (indices, "so2"),
    (chem, "parse_alkane_smiles"), (chem, "alkane_to_smiles"),
    (enumeration, "so2"), (enumeration, "enumerate_trees"),
    (enumeration, "enumerate_molecular_trees"),
    (extremal, "argmin_so2"), (extremal, "argmax_so2"),
    (extremal, "is_in_family"),
    (cli, "run"), (cli, "verify_extremal_bounds"), (cli, "_edge_string"),
    (cli, "enumerate_trees"), (cli, "enumerate_molecular_trees"),
]


@pytest.mark.parametrize("module, attr", PATCH_POINTS,
                         ids=[f"{m.__name__}.{a}" for m, a in PATCH_POINTS])
def test_patch_point_exists(module, attr):
    assert callable(getattr(module, attr, None))


def test_names_the_benchmark_reads():
    assert qspr.INDEX_NAMES is indices.INDEX_NAMES
    assert callable(chem.load_dataset)
    for name in ("Graph", "edge_type_profile", "so2_from_profile",
                 "format_edge_list"):
        assert callable(getattr(sombor, name, None)), name
