"""Make ``bench`` and the in-tree ``repro`` importable for the benchmark's
own tests (``python -m pytest bench/tests -q``; not part of tier-1)."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
