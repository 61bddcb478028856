"""Path set-up for ``python -m pytest ledger/tests -q`` from the repo root
(outside tier-1: ``pytest.ini`` points tier-1 at ``tests/`` only)."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
