from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import cosetlab as cl
from cosetlab.cli import _resolve_spec


@pytest.fixture(scope="session")
def lattice():
    """(group, subgroups) for a catalog name or a CLI family or product token
    such as D30 or C2xC2xC2xC2xC2xC2, computed once per session."""
    cache: dict[str, tuple[cl.FiniteGroup, list[cl.Subgroup]]] = {}

    def get(name: str) -> tuple[cl.FiniteGroup, list[cl.Subgroup]]:
        if name not in cache:
            if name in cl.CATALOG:
                g = cl.load_catalog_group(name)
            else:
                g = cl.load_group(_resolve_spec(name))
            cache[name] = (g, cl.enumerate_subgroups(g))
        return cache[name]

    return get
