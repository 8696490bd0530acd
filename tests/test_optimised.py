"""The Hypothesis properties of ``test_renaming.py`` and
``test_rounds.py``, run again under ``python -O``, in one fresh
interpreter.  ``test_golden.py`` runs its cases under ``-O`` itself.

``-O`` strips the program's own ``assert`` statements, so a result that
leaned on one could change.  pytest rewrites the asserts of test
modules, so the properties still check under ``-O``; asserts in plain
helper modules such as ``corpus.py`` do not fire there.
"""

import subprocess
import sys

from examples import ROOT, src_env


def test_properties_hold_under_optimisation(tmp_path):
    files = [str(ROOT / "tests" / name) for name in ("test_renaming.py", "test_rounds.py")]
    # run from a scratch directory, so the Hypothesis example database
    # of this run stays out of the checkout
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", *files],
        capture_output=True,
        text=True,
        env=src_env(),
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert " passed" in proc.stdout
