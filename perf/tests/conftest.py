"""perf/ is a directory of scripts, not a package: put it on the path so the
tests import its modules the way ``run.py`` does."""

import pathlib
import sys

PERF = pathlib.Path(__file__).resolve().parent.parent
if str(PERF) not in sys.path:
    sys.path.insert(0, str(PERF))
