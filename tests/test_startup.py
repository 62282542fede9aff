"""Which library modules a fresh interpreter runs: importing the package
runs none of them, and a command line call runs only those its command
calls.  ``import dyadic.cli`` still leaves every ``dyadic.<layer>`` in
``sys.modules``, for code that looks a module up there before using it.

Each check runs in a child interpreter that records, through the ``exec``
audit event, the file of every module body it runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dyadic
from dyadic import (
    BranchingProfile,
    DeltaSet,
    counting_measure,
    gen_ap,
    gen_uniform_tree,
    product_measure,
    save_measure,
    save_profile,
    save_set,
)

LAYERS = ("grid", "measures", "trees", "projections", "experiments")

PRELUDE = """\
import sys
from pathlib import Path
ran = []
sys.addaudithook(lambda event, args: event == "exec" and ran.append(args[0]))
"""

REPORT = """
files = [Path(code.co_filename) for code in ran if hasattr(code, "co_filename")]
print(json.dumps(sorted(f.stem for f in files if f.parent.name == "dyadic")))
"""


def modules_run(body: str, *args: str) -> list[str]:
    """The ``dyadic`` modules whose bodies ``body`` runs in a fresh interpreter."""
    src = str(Path(dyadic.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = PRELUDE + body + "\nimport json" + REPORT
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_importing_the_package_runs_no_library_module():
    assert modules_run("import dyadic") == ["__init__"]


def test_importing_the_cli_registers_every_layer():
    body = (
        "import dyadic.cli\n"
        f"assert all(f'dyadic.{{m}}' in sys.modules for m in {LAYERS})\n"
    )
    assert modules_run(body) == ["__init__", "cli", "grid"]
    # a layer read from sys.modules runs on its first use
    body += "assert sys.modules['dyadic.experiments'].run_final_assembly\n"
    assert set(modules_run(body)) == {"__init__", "cli", *LAYERS}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("startup-inputs")
    save_set(gen_ap(6, 8), root / "ap8.txt")
    save_set(DeltaSet(8, sorted({(7 * i * i + 3 * i) % 256 for i in range(40)})),
             root / "scatter.txt")
    save_set(gen_uniform_tree(BranchingProfile(2, (2, 1, 2))), root / "tree.txt")
    mu = product_measure(counting_measure(gen_ap(8, 16)), counting_measure(gen_ap(8, 4)))
    save_measure(mu, root / "mu.json")
    save_profile(BranchingProfile(1, (2, 2, 2, 2, 1, 1, 1, 1)), root / "b-prof.json")
    save_profile(BranchingProfile(1, (2,) * 8), root / "a-prof.json")
    return root


@pytest.mark.parametrize(
    "args, layers",
    [
        (["entropy", "mu.json", "--c", "1/4", "--c", "3/4", "--cuts", "0,4,8"], ["measures"]),
        (["analyze", "ap8.txt", "--m", "2"], ["trees"]),
        (["uniformize", "scatter.txt", "out.txt", "--m", "2", "--levels", "4"], ["trees"]),
        (["prune", "tree.txt", "out.txt", "--m", "2", "--levels", "3"], ["trees"]),
        (["extend", "b-prof.json", "--ell", "4", "--a-profile", "a-prof.json"], ["trees"]),
    ],
)
def test_a_command_runs_only_the_layers_it_calls(inputs, args, layers):
    body = (
        "import os\n"
        "from dyadic.cli import main\n"
        "os.chdir(sys.argv[1])\n"
        "main(sys.argv[2:], prog_name='dyadic', standalone_mode=False)\n"
    )
    assert modules_run(body, str(inputs), *args) == sorted(["__init__", "cli", "grid", *layers])
