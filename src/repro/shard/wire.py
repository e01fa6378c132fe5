"""Wire format for everything that crosses the shard process boundary.

Workers and the parent exchange plain JSON-style objects built from the
:mod:`repro.durability.codec` primitives, so the protocol inherits the
codec's lossless round-trip guarantees (negated atoms, inequalities,
float/negative constants) and stays pickle- and spawn-safe by
construction — no live strategy objects, backends, or oracles ever
travel.

* :func:`config_to_obj` / :func:`config_from_obj` map a
  :class:`~repro.core.qoco.QOCOConfig` onto registry *names* (the
  strategy :data:`~repro.core.registry.REGISTRY`, the estimator table,
  backend names); configs carrying live objects that have no registered
  name are rejected up front rather than mis-pickled.
* :func:`question_to_obj` / :func:`question_from_obj` and
  :func:`reply_to_obj` / :func:`reply_from_obj` encode the five oracle
  question kinds and their answers for the parent-side router.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from ..core.insertion import InsertionConfig
from ..core.qoco import QOCOConfig
from ..core.registry import REGISTRY, RegistryError
from ..durability import codec
from ..durability.codec import CodecError
from ..oracle.enumeration import Chao92Estimator, CompletionEstimator, ExactCompletion
from .partition import ShardingError

#: Estimator factories by wire name (the analogue of the strategy
#: registries for the enumeration black-box).
ESTIMATOR_FACTORIES: dict[str, Callable[[], CompletionEstimator]] = {
    "Exact": ExactCompletion,
    "Chao92": Chao92Estimator,
}


def _strategy_name(kind: str, spec: Any) -> str:
    """The wire name of a strategy field: strings validate against the
    registry, instances map back to the name that rebuilds them."""
    if isinstance(spec, str):
        try:
            REGISTRY.resolve(kind, spec)
        except RegistryError as error:
            raise ShardingError(str(error)) from error
        return spec
    name = REGISTRY.name_of(kind, spec)
    if name is None:
        raise ShardingError(
            f"{kind} strategy {spec!r} has no registered wire name; sharded "
            f"cleaning needs an instance that one of {REGISTRY.names(kind)} "
            f"rebuilds (a registered class with its default constructor "
            f"arguments)"
        )
    return name


def _planner_name(spec: Any) -> Any:
    """Planner wire form: ``None`` or a registry name — live planner
    instances hold locks, RNGs, and shared cost models; they do not
    cross the process boundary."""
    if spec is None:
        return None
    if isinstance(spec, str):
        try:
            REGISTRY.resolve("planner", spec)
        except RegistryError as error:
            raise ShardingError(str(error)) from error
        return spec
    raise ShardingError(
        f"planner {spec!r} cannot cross the process boundary; pass a "
        f"registry name (one of {REGISTRY.names('planner')})"
    )


def config_to_obj(config: QOCOConfig) -> dict:
    """Encode a :class:`QOCOConfig` for a worker process."""
    if config.scheduler_factory is not None:
        raise ShardingError(
            "scheduler_factory cannot cross the process boundary; shard "
            "workers run the synchronous loop (dispatch engines live in "
            "the parent)"
        )
    if not isinstance(config.backend, str):
        raise ShardingError(
            f"backend must be a registered name to cross the process "
            f"boundary, got instance {config.backend!r}"
        )
    estimator_name = None
    for name, factory in ESTIMATOR_FACTORIES.items():
        if config.estimator_factory is factory:
            estimator_name = name
            break
    if estimator_name is None:
        raise ShardingError(
            f"estimator_factory {config.estimator_factory!r} has no "
            f"registered wire name; use one of {sorted(ESTIMATOR_FACTORIES)}"
        )
    return {
        "deletion_strategy": _strategy_name("deletion", config.deletion),
        "split_strategy": _strategy_name("split", config.split),
        "planner": _planner_name(config.planner),
        "estimator": estimator_name,
        "insertion": {
            "max_candidates_per_subquery": config.insertion.max_candidates_per_subquery,
            "max_subqueries": config.insertion.max_subqueries,
        },
        "max_iterations": config.max_iterations,
        "max_completions_per_phase": config.max_completions_per_phase,
        "minimize_query": config.minimize_query,
        "use_incremental": config.use_incremental,
        "backend": config.backend,
        "seed": config.seed,
        "completion_width": config.completion_width,
    }


def config_from_obj(obj: dict) -> QOCOConfig:
    try:
        return QOCOConfig(
            deletion=REGISTRY.resolve("deletion", obj["deletion_strategy"]),
            split=REGISTRY.resolve("split", obj["split_strategy"]),
            planner=obj.get("planner"),
            estimator_factory=ESTIMATOR_FACTORIES[obj["estimator"]],
            insertion=InsertionConfig(
                max_candidates_per_subquery=obj["insertion"][
                    "max_candidates_per_subquery"
                ],
                max_subqueries=obj["insertion"]["max_subqueries"],
            ),
            max_iterations=obj["max_iterations"],
            max_completions_per_phase=obj["max_completions_per_phase"],
            minimize_query=obj["minimize_query"],
            use_incremental=obj["use_incremental"],
            backend=obj["backend"],
            seed=obj["seed"],
            completion_width=obj["completion_width"],
        )
    except (KeyError, TypeError, RegistryError) as error:
        raise CodecError(f"malformed config object {obj!r}") from error


# ---------------------------------------------------------------------------
# oracle questions and replies
# ---------------------------------------------------------------------------
#: The wire stand-in for "the query this shard session is cleaning".
#: Most questions carry the session query verbatim; eliding it saves an
#: encode + parse per question — the parent router's dominant per-question
#: cost — and the router substitutes its (interned) session query back.
SESSION_QUERY = "@session"


def question_to_obj(kind: str, *, session_query: Any = None, **parts: Any) -> dict:
    """Encode one oracle question for the router.

    ``kind`` is the :class:`~repro.oracle.questions.QuestionKind` value;
    *parts* are the raw domain objects (``fact=``, ``facts=``,
    ``query=``, ``answer=``, ``partial=``, ``known=``).  A query that
    *is* the declared *session_query* wires as the :data:`SESSION_QUERY`
    marker instead of a full encoding (split subqueries still travel
    whole).
    """
    obj: dict[str, Any] = {"kind": kind}
    if "fact" in parts:
        obj["fact"] = codec.fact_to_obj(parts["fact"])
    if "facts" in parts:
        obj["facts"] = [codec.fact_to_obj(f) for f in parts["facts"]]
    if "query" in parts:
        if session_query is not None and parts["query"] is session_query:
            obj["query"] = SESSION_QUERY
        else:
            obj["query"] = codec.query_to_obj(parts["query"])
    if "answer" in parts:
        obj["answer"] = codec.answer_to_obj(parts["answer"])
    if "partial" in parts:
        obj["partial"] = codec.assignment_to_obj(parts["partial"])
    if "known" in parts:
        obj["known"] = sorted(
            (codec.answer_to_obj(a) for a in parts["known"]),
            key=codec.canonical_json,
        )
    return obj


def question_from_obj(obj: dict, *, session_query: Any = None) -> dict:
    """Decode a question back into domain objects (keyed like the input).

    *session_query* resolves the :data:`SESSION_QUERY` marker; a marker
    with no session query declared is a protocol error.
    """
    try:
        decoded: dict[str, Any] = {"kind": obj["kind"]}
        if "fact" in obj:
            decoded["fact"] = codec.fact_from_obj(obj["fact"])
        if "facts" in obj:
            decoded["facts"] = [codec.fact_from_obj(o) for o in obj["facts"]]
        if "query" in obj:
            if obj["query"] == SESSION_QUERY:
                if session_query is None:
                    raise CodecError(
                        "question references the session query but none "
                        "was declared to the router"
                    )
                decoded["query"] = session_query
            else:
                decoded["query"] = codec.query_from_obj(obj["query"])
        if "answer" in obj:
            decoded["answer"] = codec.answer_from_obj(obj["answer"])
        if "partial" in obj:
            decoded["partial"] = codec.assignment_from_obj(obj["partial"])
        if "known" in obj:
            decoded["known"] = [codec.answer_from_obj(o) for o in obj["known"]]
        return decoded
    except (KeyError, TypeError) as error:
        raise CodecError(f"malformed question object {obj!r}") from error


def reply_to_obj(kind: str, value: Any) -> dict:
    """Encode an oracle reply (shape depends on the question kind)."""
    if value is None or isinstance(value, bool):
        return {"value": value}
    if kind == "verify_facts":
        return {
            "value": [[codec.fact_to_obj(f), verdict] for f, verdict in value.items()]
        }
    if kind == "complete_assignment":
        return {"value": codec.assignment_to_obj(value)}
    if kind == "complete_result":
        return {"value": codec.answer_to_obj(value)}
    raise CodecError(f"unsupported reply {value!r} for question kind {kind!r}")


def reply_from_obj(kind: str, obj: dict) -> Any:
    value = obj["value"]
    if value is None or isinstance(value, bool):
        return value
    if kind == "verify_facts":
        return {codec.fact_from_obj(o): verdict for o, verdict in value}
    if kind == "complete_assignment":
        return codec.assignment_from_obj(value)
    if kind == "complete_result":
        return codec.answer_from_obj(value)
    raise CodecError(f"unsupported reply object {obj!r} for kind {kind!r}")


def answers_to_obj(answers: Sequence) -> list[list]:
    """A deterministic (sorted) encoding of an answer set."""
    return sorted(
        (codec.answer_to_obj(a) for a in answers), key=codec.canonical_json
    )


def answers_from_obj(objs: Sequence) -> list[tuple]:
    return [codec.answer_from_obj(o) for o in objs]


def report_to_obj(report) -> dict:
    """The per-shard slice of a cleaning report a worker sends home."""
    return {
        "query_name": report.query_name,
        "iterations": report.iterations,
        "converged": report.converged,
        "edits": codec.edits_to_obj(report.edits),
        "wrong_answers_removed": [
            codec.answer_to_obj(a) for a in report.wrong_answers_removed
        ],
        "missing_answers_added": [
            codec.answer_to_obj(a) for a in report.missing_answers_added
        ],
        "question_count": report.log.question_count,
        "total_cost": report.log.total_cost,
    }
