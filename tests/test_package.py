import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadzero

# The modules that answer a zero-set question; the CLI loads them only for
# the subcommands that run them.
SOLVING = {"quadzero.solver", "quadzero.contour", "quadzero.critical",
           "quadzero.sweep", "quadzero.svg"}
# What the closed forms of `critical` need not load: the solver and the
# modules it alone imports, the sweep and the plot.
NOT_CRITICAL = {"quadzero.solver", "quadzero.contour", "quadzero.bounds",
                "quadzero.realroots", "quadzero.sweep", "quadzero.svg"}


def fresh(code, *argv):
    """stdout of `code` run with `argv` in a new interpreter importing this quadzero."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(quadzero.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, check=True, timeout=60).stdout


LOADED = "sorted(n for n in sys.modules if n.startswith('quadzero.'))"


def test_every_export_resolves():
    missing = [name for name in quadzero.__all__ if not hasattr(quadzero, name)]
    assert missing == []
    assert len(set(quadzero.__all__)) == len(quadzero.__all__)


def test_star_import():
    namespace = {}
    exec("from quadzero import *", namespace)
    assert set(quadzero.__all__) <= set(namespace)


def test_cli_import_leaves_out_multiprocessing():
    # The sweep pool imports it when it starts; `quadzero radius` and the
    # other subcommands should not pay for it at start-up.
    code = (
        "import sys, quadzero.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(quadzero.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_import_loads_no_submodule():
    assert fresh(f"import sys, quadzero; print({LOADED})").strip() == "[]"


@pytest.mark.parametrize("argv, left_out", [
    (["radius", "--b", "0.5", "--c", "2", "--k", "4", "--n", "2", "--m", "1"],
     SOLVING | {"dataclasses"}),
    (["--help"], SOLVING | {"dataclasses"}),
    (["critical-circle", "--b", "2", "--c", "3", "--k", "2"], NOT_CRITICAL | {"dataclasses"}),
    (["zeros", "--b", "2", "--c", "3", "--k", "4", "--n", "3", "--m", "1"],
     {"quadzero.sweep", "quadzero.svg", "quadzero.critical"}),
    (["circle-image", "--b", "0", "--c", "0", "--k", "1", "--n", "3", "--m", "1",
      "--radius", "1"], NOT_CRITICAL | {"dataclasses"}),
    (["classify", "--b", "0.5", "--c", "2", "--k", "4", "--n", "2", "--m", "1", "--re", "0.5"],
     SOLVING | {"quadzero.bounds", "quadzero.realroots", "dataclasses"}),
    (["winding", "--b", "0.5", "--c", "2", "--k", "4", "--n", "2", "--m", "1", "--radius", "3"],
     {"quadzero.solver", "quadzero.critical", "quadzero.bounds", "quadzero.realroots",
      "quadzero.sweep", "quadzero.svg", "dataclasses"}),
], ids=["radius", "help", "critical-circle", "zeros", "circle-image", "classify", "winding"])
def test_cli_loads_only_its_subcommands_modules(argv, left_out):
    # Only what the command adds counts, not what `site` imported before it.
    code = ("import sys; before = set(sys.modules); from quadzero.cli import main; "
            "status = main(sys.argv[1:]); print(status, *sorted(set(sys.modules) - before))")
    status, *added = fresh(code, *argv).splitlines()[-1].split()
    assert status == "0"
    assert "quadzero.cli" in added
    assert left_out.isdisjoint(added)


def test_critical_loads_no_solver():
    # The solver is imported only by a census that is given no report.
    code = f"import sys, quadzero.critical; print(*{LOADED})"
    assert fresh(code).split() == ["quadzero.critical", "quadzero.errors", "quadzero.model"]


def test_exports_are_their_home_modules_objects():
    code = ("import sys, quadzero\n"
            "for name in quadzero.__all__:\n"
            "    obj = getattr(quadzero, name)\n"
            "    home = sys.modules[obj.__module__]\n"
            "    if not (home.__name__.startswith('quadzero.') and getattr(home, name) is obj):\n"
            "        print(name)\n")
    assert fresh(code) == ""


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        quadzero.no_such_name


def test_dir_lists_every_export_before_it_loads():
    code = "import quadzero; print(sorted(set(quadzero.__all__) - set(dir(quadzero))))"
    assert fresh(code).strip() == "[]"


def test_submodules_import_by_name():
    code = "from quadzero import solver, sweep; print(solver.__name__, sweep.__name__)"
    assert fresh(code).strip() == "quadzero.solver quadzero.sweep"
