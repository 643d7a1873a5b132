"""Test set-up shared by every module: child Python processes import this checkout's package.

pyproject's ``pythonpath`` setting reaches only the pytest process, and
several tests start ``python`` children (the CLI entry point, the figure
script, a pytest collection); each inherits this PYTHONPATH.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def pytest_configure(config):
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
