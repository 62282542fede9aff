"""The public names: each submodule's ``__all__`` resolves, and the package
re-exports only names that its submodules declare public."""

import importlib

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

# the report writers and the last error type the command line reports,
# defined in grid since the command line imports only grid up front
MOVED = ("InstanceGenerationError", "format_float", "json_text", "csv_text", "write_json",
         "write_rows_csv")


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"dyadic.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_the_package_reexports_only_public_names():
    for module, names in dyadic._EXPORTS.items():
        home = importlib.import_module(f"dyadic.{module}")
        assert [n for n in names if n not in home.__all__] == [], module
        assert [n for n in names if getattr(dyadic, n) is not getattr(home, n)] == [], module
    assert dyadic.__all__ == [n for names in dyadic._EXPORTS.values() for n in names]
    star = {}
    exec("from dyadic import *", star)
    assert sorted(set(star) - {"__builtins__"}) == sorted(dyadic.__all__)


@pytest.mark.parametrize("name", MOVED)
def test_experiments_still_exports_what_moved_to_grid(name):
    experiments, grid = (importlib.import_module(f"dyadic.{m}") for m in ("experiments", "grid"))
    assert name in experiments.__all__ and name in grid.__all__
    assert getattr(experiments, name) is getattr(grid, name)


@pytest.mark.parametrize("module, name", [(m, n) for m, names in DELETED.items() for n in names])
def test_a_deleted_helper_is_gone(module, name):
    assert not hasattr(dyadic, name)
    assert not hasattr(importlib.import_module(f"dyadic.{module}"), name)
    with pytest.raises(ImportError):
        exec(f"from dyadic import {name}", {})
