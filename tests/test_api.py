"""The public names: each submodule's ``__all__`` resolves, and the package
re-exports only names that its submodules declare public."""

import ast
import importlib
from pathlib import Path

import pytest

import dyadic

SUBMODULES = ("grid", "measures", "trees", "projections", "experiments")

# helpers with no caller left in the package, deleted with their lemmas moved
# into averaged_l2's ``l2-near-far`` certificate or into the tests, and the
# size limit of the quadratic pair scans that one sort of the atoms replaced
DELETED = {
    "measures": ("convolve", "symmetrize", "autocorrelation_peak_ratio", "concavity_check"),
    "projections": ("near_pair_mass", "far_pair_nu_masses", "common_tube_c_set",
                    "tube_diameter_ok", "vertical_separation_margin", "PAIR_PATH_LIMIT"),
}


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"dyadic.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_the_package_reexports_only_public_names():
    tree = ast.parse(Path(dyadic.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports and all(node.level == 1 for node in imports)
    for node in imports:
        public = importlib.import_module(f"dyadic.{node.module}").__all__
        assert [a.name for a in node.names if a.name not in public] == [], node.module


@pytest.mark.parametrize("module, name", [(m, n) for m, names in DELETED.items() for n in names])
def test_a_deleted_helper_is_gone(module, name):
    assert not hasattr(dyadic, name)
    assert not hasattr(importlib.import_module(f"dyadic.{module}"), name)
    with pytest.raises(ImportError):
        exec(f"from dyadic import {name}", {})
