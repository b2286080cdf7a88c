"""Make ``perfbench`` and ``repro`` importable and pin the compiled kernel.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
for path in (ROOT, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)
os.environ["REPRO_TJ_BACKEND"] = "c"
os.environ["PYTHONPATH"] = SRC + os.pathsep + os.environ.get("PYTHONPATH", "")
