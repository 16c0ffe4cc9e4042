"""Built-in catalog of small test groups."""

from __future__ import annotations

from functools import lru_cache

from .errors import UnknownFamily
from .groups import DEFAULT_ORDER_CAP, FiniteGroup, GroupSpec, load_group, spec_from_token


CATALOG: dict[str, GroupSpec] = {
    name: spec_from_token(name)  # type: ignore[misc]
    for name in (
        *(f"C{m}" for m in range(2, 25)),
        *(f"D{m}" for m in range(3, 13)),
        *("S3", "S4", "S5", "A4", "A5", "Q8"),
        *("C2xC2", "C2xC2xC2", "C6xC2", "S3xC2"),
    )
}


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
