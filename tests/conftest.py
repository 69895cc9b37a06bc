"""Shared fixtures: isolate the on-disk layer cache per session, or per test."""

import os

import pytest

from hyperstab import m0n


@pytest.fixture(autouse=True, scope="session")
def _session_cache_dir(tmp_path_factory):
    """Point HYPERSTAB_CACHE at a session-scoped temp dir for every test."""
    cache = tmp_path_factory.mktemp("layer-cache")
    previous = os.environ.get("HYPERSTAB_CACHE")
    os.environ["HYPERSTAB_CACHE"] = str(cache)
    m0n.equivariant_poincare_m0n.cache_clear()
    yield cache
    if previous is None:
        os.environ.pop("HYPERSTAB_CACHE", None)
    else:
        os.environ["HYPERSTAB_CACHE"] = previous
    m0n.equivariant_poincare_m0n.cache_clear()


@pytest.fixture
def layer_cache(tmp_path_factory, monkeypatch):
    """A fresh, empty HYPERSTAB_CACHE directory for one test, with an empty lru cache.

    The lru cache is cleared again after the test, so no layer read from or
    computed into this directory outlives it.
    """
    cache = tmp_path_factory.mktemp("test-layer-cache")
    monkeypatch.setenv("HYPERSTAB_CACHE", str(cache))
    m0n.equivariant_poincare_m0n.cache_clear()
    yield cache
    m0n.equivariant_poincare_m0n.cache_clear()
