"""Relational substrate: schemas, facts, databases, edits, constraints, IO."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".constraints": ("ConstraintSet", "ForeignKey", "Key"),
        ".database": ("ANY", "Database"),
        ".edits": ("Edit", "EditKind", "apply_edits", "delete", "insert"),
        ".fork": ("DatabaseFork", "ForkError"),
        ".io": ("load_csv", "load_json", "save_csv", "save_json"),
        ".schema": ("RelationSchema", "Schema", "SchemaError"),
        ".tuples": ("Constant", "Fact", "fact", "facts"),
    },
)
