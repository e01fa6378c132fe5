"""Materialized views kept exact under edits (the monitor mode)."""

from .materialized import ViewManager

__all__ = ["ViewManager"]
