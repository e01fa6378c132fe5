"""Views kept materialized while cleaning edits the base tables.

The paper deploys QOCO as a monitor: "QOCO can be activated to monitor
the views that are served to users/applications.  Whenever an error is
reported in a view, QOCO can take over..."  Serving views means keeping
them materialized, and cleaning means editing base tables — so the views
must track edits without full recomputation.

:class:`ViewManager` keeps each view as a subscribed
:class:`~repro.query.incremental.IncrementalAnswers`, the counting
engine the cleaning loops run on.  The database notifies it of every
effective edit, whatever code path made it — the manager's own helpers,
``Database.insert``/``delete``/``apply``, or a cleaning loop editing the
database directly — so every view stays equal to ``Q(D)``.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..db.database import Database
from ..db.edits import Edit, delete, insert
from ..db.tuples import Fact
from ..query.ast import Query
from ..query.evaluator import Answer
from ..query.incremental import IncrementalAnswers


class ViewManager:
    """A set of named views over one database, each kept exact.

    :meth:`insert`, :meth:`delete` and :meth:`apply` edit the database
    and report, per view, the answers the edits made appear or vanish.
    :meth:`close` (or leaving a ``with`` block) detaches every view.
    """

    def __init__(self, database: Database) -> None:
        self.database = database
        self._views: dict[str, IncrementalAnswers] = {}

    def register(self, query: Query, name: Optional[str] = None) -> IncrementalAnswers:
        label = name if name is not None else query.name
        if label in self._views:
            raise ValueError(f"a view named {label!r} is already registered")
        view = IncrementalAnswers(query, self.database)
        self._views[label] = view
        return view

    def view(self, name: str) -> IncrementalAnswers:
        return self._views[name]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._views)

    def close(self) -> None:
        """Detach every view from the database (idempotent)."""
        for view in self._views.values():
            view.close()

    def __enter__(self) -> "ViewManager":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- mutation ------------------------------------------------------
    def insert(self, fact: Fact) -> dict[str, set[Answer]]:
        """Insert a fact; return per-view newly appeared answers.

        A no-op edit (the fact already present) emits the same shape as
        a real one — every registered view mapped to an empty delta — so
        callers folding deltas never special-case the empty dict.
        """
        return self._edit(insert(fact))

    def delete(self, fact: Fact) -> dict[str, set[Answer]]:
        """Delete a fact; return per-view answers that disappeared.

        Deleting an absent fact is a consistent no-op (see :meth:`insert`).
        """
        return self._edit(delete(fact))

    def apply(self, edits: Iterable[Edit]) -> dict[str, set[Answer]]:
        """Apply a sequence of edits; merge per-view changed answers."""
        changed: dict[str, set[Answer]] = {name: set() for name in self._views}
        for edit in edits:
            for name, answers in self._edit(edit).items():
                changed[name] |= answers
        return changed

    def _edit(self, edit: Edit) -> dict[str, set[Answer]]:
        """Apply one edit; per view, the answers whose membership flipped
        (an insert can also revoke answers through a negated atom)."""
        before = {name: view.answers() for name, view in self._views.items()}
        edit.apply(self.database)
        return {
            name: view.answers() ^ before[name]
            for name, view in self._views.items()
        }
