"""Provenance: witnesses and WhyNot? picky joins."""

from .whynot import PickyJoin, find_picky_join
from .witness import (
    fact_frequencies,
    lineage,
    most_frequent_fact,
    remove_fact_from_all,
    why_provenance,
    witnesses_containing,
    witnesses_without,
)

__all__ = [
    "PickyJoin",
    "fact_frequencies",
    "find_picky_join",
    "lineage",
    "most_frequent_fact",
    "remove_fact_from_all",
    "why_provenance",
    "witnesses_containing",
    "witnesses_without",
]
