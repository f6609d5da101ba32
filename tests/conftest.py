import os
from pathlib import Path

import pytest

import bfgp
from bfgp.geodesy import all_pairs_distances
from bfgp.graphs import build_butterfly


@pytest.fixture(scope="session")
def bf2():
    g = build_butterfly(2)
    return g, all_pairs_distances(g)


@pytest.fixture(scope="session")
def bf3():
    g = build_butterfly(3)
    return g, all_pairs_distances(g)


@pytest.fixture
def source_env():
    """Environment for a child interpreter that imports the tested bfgp.

    The tested bfgp's source root goes first on PYTHONPATH, so the child
    imports it, not an installed copy.
    """
    env = dict(os.environ)
    src = str(Path(bfgp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env
