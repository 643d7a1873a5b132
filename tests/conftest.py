"""Test set-up shared by every module: child Python processes import this checkout's package,
and every test starts from an empty leaf-table cache.

pyproject's ``pythonpath`` setting reaches only the pytest process, and
several tests start ``python`` children (the CLI entry point, the figure
script, a pytest collection); each inherits this PYTHONPATH.  A table
cached by one test (a module-level table, say) would let another test's
patched stage or record go unrun, so each test enumerates its settings anew.
"""

import os
from pathlib import Path

import pytest

from qkd2way import protocol

SRC = str(Path(__file__).resolve().parents[1] / "src")


def pytest_configure(config):
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture(autouse=True)
def _empty_leaf_table_cache():
    protocol._leaf_table.cache_clear()
