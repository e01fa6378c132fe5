"""Loading bare CSVs into :class:`~repro.db.database.Database`.

Unlike :func:`repro.db.io.load_csv` (a *directory* with a
``_schema.json`` sidecar), :func:`load_csv` here takes one headerful
CSV file, sniffs a typed schema from the data, optionally pushes the
table through a seeded :class:`~repro.ingest.noise.NoisePipeline`, and
returns a single-relation database ready for constraint repair.

:func:`table_to_csv_bytes` is the inverse for the *string* table — the
exact bytes :func:`write_csv` puts on disk — so determinism is testable
at the byte level: same table + same noise + same seed ⇒ identical
file.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Optional, Sequence, Union

from ..db.database import Database
from ..db.schema import Schema
from ..telemetry import TELEMETRY as _TELEMETRY
from .noise import NoisePipeline, Table
from .sniffer import ColumnProfile, coerce_cell, scan_table, sniffed_relation, typed_relation

PathLike = Union[str, Path]


class IngestError(ValueError):
    """Raised for unusable CSV input (no header, ragged rows)."""


def read_table(path: PathLike) -> tuple[list[str], Table]:
    """``(header, rows)`` of one CSV file; short rows are right-padded.

    Padding (rather than rejecting) matches how spreadsheet exports
    drop trailing empty cells; *long* rows are a real structural error
    and raise :class:`IngestError`.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if not header:
            raise IngestError(f"{path}: empty file (no header row)")
        rows: Table = []
        for number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) > len(header):
                raise IngestError(
                    f"{path}:{number}: row has {len(row)} cells, header has {len(header)}"
                )
            rows.append(row + [""] * (len(header) - len(row)))
    return list(header), rows


def table_to_csv_bytes(header: Sequence[str], rows: Sequence[Sequence[str]]) -> bytes:
    """The canonical CSV serialization (UTF-8, ``\\r\\n``, minimal quoting)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


def write_csv(path: PathLike, header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    """Write the canonical serialization to *path*."""
    Path(path).write_bytes(table_to_csv_bytes(header, rows))


def make_noisy_csv(
    source: PathLike,
    destination: PathLike,
    noise: NoisePipeline,
) -> Table:
    """Corrupt *source* through *noise* and write *destination*.

    Returns the noisy table.  Deterministic: the pipeline's seed fully
    decides the output bytes.
    """
    header, rows = read_table(source)
    dirty = noise.apply(rows)
    write_csv(destination, header, dirty)
    return dirty


def load_table(
    relation: str,
    header: Sequence[str],
    rows: Sequence[Sequence[str]],
) -> tuple[Database, list[ColumnProfile]]:
    """An in-memory table as a one-relation database (with profiles).

    One :func:`~repro.ingest.sniffer.scan_column` pass per column both
    profiles the column and coerces its cells; the rows then go in
    through :meth:`Database.bulk_load`, which loads them as an insert
    loop would (duplicates collapse) and bumps the version once.
    """
    scans = scan_table(header, rows)
    profiles = [profile for profile, _ in scans]
    database = Database(Schema([typed_relation(relation, header, profiles)]))
    if all(len(row) == len(header) for row in rows):
        database.bulk_load(relation, zip(*(values for _, values in scans)))
    else:
        # the first ragged row raises SchemaError, as an insert loop would
        database.bulk_load(relation, ([coerce_cell(cell) for cell in row] for row in rows))
    return database, profiles


def load_csv(
    path: PathLike,
    *,
    relation: Optional[str] = None,
    noise: Optional[NoisePipeline] = None,
) -> Database:
    """Load one headerful CSV into a single-relation database.

    *relation* defaults to the file stem.  *noise* (a seeded
    :class:`NoisePipeline`) corrupts the table **before** loading —
    handy for generating reproducible dirty workloads without touching
    the file on disk.  Duplicate rows collapse under set semantics.
    """
    csv_path = Path(path)
    name = relation if relation is not None else csv_path.stem
    with _TELEMETRY.span("ingest.load_csv", relation=name):
        header, rows = read_table(csv_path)
        if noise is not None:
            rows = noise.apply(rows)
        database, profiles = load_table(name, header, rows)
    if _TELEMETRY.enabled:
        _TELEMETRY.count("ingest.rows", len(rows))
        _TELEMETRY.count("ingest.facts", len(database))
        for profile in profiles:
            _TELEMETRY.count(f"ingest.columns.{profile.kind}")
    return database


def sniff_csv(path: PathLike) -> list[ColumnProfile]:
    """Just the column profiles of one CSV (no database built)."""
    header, rows = read_table(path)
    return [p for p in sniffed_relation(Path(path).stem, header, rows)[1]]


__all__ = [
    "IngestError",
    "load_csv",
    "load_table",
    "make_noisy_csv",
    "read_table",
    "sniff_csv",
    "table_to_csv_bytes",
    "write_csv",
]
