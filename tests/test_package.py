import os
import subprocess
import sys
from pathlib import Path

import quadzero


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
