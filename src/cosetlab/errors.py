"""Exception types shared across the package."""

from __future__ import annotations


class CosetlabError(Exception):
    """Base class for errors raised by this package."""


class BadInput(CosetlabError):
    """Input the user can fix; the CLI exits 2."""


class ResourceLimit(CosetlabError):
    """A configured cap stopped the work; the CLI exits 3."""


class GroupSpecError(BadInput):
    """A group spec is structurally invalid (bad fields, bad JSON shape)."""


class NotAGroup(BadInput):
    """A multiplication table violates one of the group axioms."""


class OrderCapExceeded(ResourceLimit):
    """A construction grew past the configured order cap."""


class UnknownFamily(BadInput):
    """A named-family string does not denote a supported family."""


class ParentMismatch(CosetlabError):
    """Operands belong to different parent groups."""


class SubgroupCountCapExceeded(ResourceLimit):
    """Subgroup enumeration found more subgroups than the configured cap."""


class CliqueCapExceeded(ResourceLimit):
    """Candidate-clique enumeration visited more multisets than the cap."""


class CensusCapExceeded(ResourceLimit):
    """A census run would cover more subgroup triples than the cap."""


class CounterOverflow(ResourceLimit):
    """A census counter left the unsigned 64-bit range."""


class CacheCorrupt(CosetlabError):
    """A cache file failed its checksum or shape checks."""


class CacheStale(CacheCorrupt):
    """An intact cache file written under another format tag."""


class ConsistencyError(CosetlabError):
    """Two independent computations of the same quantity disagree.

    This always indicates a bug in this package, never bad user input.
    """
