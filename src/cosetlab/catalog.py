"""Built-in catalog of small test groups."""

from __future__ import annotations

from functools import lru_cache

from .errors import UnknownFamily
from .groups import DEFAULT_ORDER_CAP, FiniteGroup, GroupSpec, load_group


def _named(name: str) -> GroupSpec:
    return GroupSpec(kind="named", name=name)


def _product(*names: str) -> GroupSpec:
    return GroupSpec(kind="product", factors=tuple(_named(n) for n in names))


def _build_catalog() -> dict[str, GroupSpec]:
    cat: dict[str, GroupSpec] = {}
    for m in range(2, 25):
        cat[f"C{m}"] = _named(f"C{m}")
    for m in range(3, 13):
        cat[f"D{m}"] = _named(f"D{m}")
    for m in (3, 4, 5):
        cat[f"S{m}"] = _named(f"S{m}")
    cat["A4"] = _named("A4")
    cat["A5"] = _named("A5")
    cat["Q8"] = _named("Q8")
    cat["C2xC2"] = _product("C2", "C2")
    cat["C2xC2xC2"] = _product("C2", "C2", "C2")
    cat["C6xC2"] = _product("C6", "C2")
    cat["S3xC2"] = _product("S3", "C2")
    return cat


CATALOG: dict[str, GroupSpec] = _build_catalog()


def catalog_names() -> list[str]:
    return list(CATALOG)


def catalog_spec(name: str) -> GroupSpec:
    try:
        return CATALOG[name]
    except KeyError:
        raise UnknownFamily(f"{name!r} is not a catalog group") from None


@lru_cache(maxsize=None)
def load_catalog_group(name: str, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    return load_group(catalog_spec(name), order_cap)
