"""Conjunctive queries with inequalities: AST, parser, evaluation."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".ast": ("Atom", "Inequality", "Query", "QueryError", "Term", "Var", "make_query"),
        ".backend": (
            "BackendEvaluator", "Capabilities", "EvalBackend", "EvalResult", "FallbackBackend",
            "NaiveBackend", "available_backends", "backend_evaluate", "create_backend",
            "register_backend", "resolve_backend",
        ),
        ".evaluator": (
            "Answer", "Assignment", "Evaluator", "Witness", "answer_to_partial", "evaluate",
            "instantiate_head", "is_satisfiable", "naive_evaluate", "valid_assignments",
            "witness_of", "witnesses_for",
        ),
        ".graph": ("QueryGraph", "build_query_graph"),
        ".incremental": ("IncrementalAnswers", "assignments_using_fact", "supports_incremental"),
        ".minimize": ("are_equivalent", "is_contained_in", "minimize"),
        ".parser": ("ParseError", "parse_queries", "parse_query"),
        ".union": (
            "UnionQuery", "evaluate_union", "make_union", "parse_union", "union_from_queries",
        ),
        ".subquery": (
            "embed_answer", "ground_atoms", "is_subquery", "split_by_partition", "subquery",
            "unique_variables",
        ),
    },
)
