"""Session-wide test settings."""

import os

import pytest


@pytest.fixture(autouse=True, scope="session")
def private_matrix_cache(tmp_path_factory):
    """Point the matrix-file read cache, for this process and its children, at a temporary dir."""
    saved = os.environ.get("XDG_CACHE_HOME")
    os.environ["XDG_CACHE_HOME"] = str(tmp_path_factory.mktemp("xdg-cache"))
    yield os.environ["XDG_CACHE_HOME"]
    if saved is None:
        del os.environ["XDG_CACHE_HOME"]
    else:
        os.environ["XDG_CACHE_HOME"] = saved
