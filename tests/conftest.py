"""Let the child processes some tests start (`python -m mcmcast.cli`)
import the package from this checkout, as the test process itself does
through pyproject's `pythonpath`, also when the package is not installed."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH"))))
