"""The repo benchmark: open-loop staleness and CPU per update (README.md).

The program under test lives in ``src/`` and is not installed; importing
this package makes it importable from the checkout.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
