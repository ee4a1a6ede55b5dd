"""erbench: the repository's one end-to-end + per-layer benchmark.

``python3 -m erbench run --workload NAME --seed N --seconds S --trace 0|1``
runs one workload and prints one JSON result line (the ``BENCHMARK.json``
contract); ``python3 -m erbench run`` with no ``--workload`` runs all five
and writes one ``BENCH`` document.  See ``erbench/README.md``.

Importing this package has one side effect: the repository's ``src``
directory is put on ``sys.path`` so ``repro`` resolves without
``PYTHONPATH``.  Every layer is measured from outside, by timing calls into
its public functions; nothing under ``src/`` knows this package exists.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "erbench")
OUT_DIR = os.path.join(HERE, "out")

_SRC = os.path.join(ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
