"""The analyzer's rule registry: graph, ordering, provenance, boundary,
schema and concurrency rules.

Every rule is a pure function ``PlanModel -> [Diagnostic]``.  Rules never
execute the plan and never raise: :func:`analyze_model` wraps each one so a
crashing rule degrades to an ``analysis.rule-error`` warning instead of
taking the pipeline down -- ``Pipeline.build()`` runs the analyzer on
every plan and must be unconditionally safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.provenance import ProvenanceMode
from repro.spe.plan import _importable_by_name

from .funcinfo import FunctionFacts, function_facts
from .model import PlanModel, PlanNode
from .report import AnalysisReport, Diagnostic

#: kinds that take exactly one input stream.
_SINGLE_INPUT_KINDS = (
    "map", "flatmap", "filter", "sort", "partition", "multiplex", "router", "sink",
)

#: kinds that emit exactly one output stream (fan-out needs .split()).
_SINGLE_OUTPUT_KINDS = (
    "source", "map", "flatmap", "filter", "sort", "aggregate", "join", "union",
    "merge",
)

#: kinds whose semantics need timestamp-ordered input (sort excepted: its
#: whole job is repairing disorder).
_ORDER_REQUIRING = ("aggregate", "join", "union", "merge", "partition")


# ---------------------------------------------------------------------------
# graph / dataflow rules
# ---------------------------------------------------------------------------
def check_cycle(model: PlanModel) -> List[Diagnostic]:
    members = model.cycle_members()
    if not members:
        return []
    return [
        Diagnostic(
            rule="graph.cycle",
            severity="error",
            message=(
                f"stages {members!r} form a directed cycle; streams only "
                "flow forward, so the cycle can never make progress"
            ),
            operators=tuple(members),
            hint="remove the edge that feeds a stage back into its own upstream",
        )
    ]


def check_unreachable(model: PlanModel) -> List[Diagnostic]:
    diagnostics = []
    for node in model.nodes.values():
        if node.kind in ("source", "custom"):
            continue
        if not model.in_edges(node.name):
            diagnostics.append(
                Diagnostic(
                    rule="graph.unreachable",
                    severity="error",
                    message=(
                        f"stage {node.name!r} ({node.kind}) has no input "
                        "stream; no tuple can ever reach it"
                    ),
                    operators=(node.name,),
                    hint="wire an upstream stage into it or remove it",
                )
            )
    return diagnostics


def check_dead_end(model: PlanModel) -> List[Diagnostic]:
    diagnostics = []
    for node in model.nodes.values():
        if node.kind in ("sink", "custom"):
            continue
        if not model.out_edges(node.name):
            diagnostics.append(
                Diagnostic(
                    rule="graph.dead-end",
                    severity="error",
                    message=(
                        f"stage {node.name!r} ({node.kind}) has no output "
                        "stream; its tuples flow nowhere"
                    ),
                    operators=(node.name,),
                    hint="terminate the stream in a .sink()",
                )
            )
    return diagnostics


def check_arity(model: PlanModel) -> List[Diagnostic]:
    diagnostics = []
    for node in model.nodes.values():
        fan_in = len(model.in_edges(node.name))
        fan_out = len(model.out_edges(node.name))
        if node.kind in _SINGLE_INPUT_KINDS and fan_in > 1:
            diagnostics.append(
                Diagnostic(
                    rule="graph.arity",
                    severity="error",
                    message=(
                        f"stage {node.name!r} ({node.kind}) takes one input "
                        f"stream but {fan_in} are wired into it"
                    ),
                    operators=(node.name,),
                    hint="merge the streams first with .union(...)",
                )
            )
        if node.kind == "join" and fan_in != 2 and model.in_edges(node.name):
            diagnostics.append(
                Diagnostic(
                    rule="graph.arity",
                    severity="error",
                    message=(
                        f"join {node.name!r} has {fan_in} input stream(s); a "
                        "join pairs tuples of exactly two"
                    ),
                    operators=(node.name,),
                    hint="wire both the left and the right stream into it",
                )
            )
        if node.kind in _SINGLE_OUTPUT_KINDS and fan_out > 1:
            diagnostics.append(
                Diagnostic(
                    rule="graph.arity",
                    severity="error",
                    message=(
                        f"stage {node.name!r} ({node.kind}) emits one output "
                        f"stream but {fan_out} consumers are wired to it"
                    ),
                    operators=(node.name,),
                    hint="copy the stream explicitly with .split()",
                )
            )
    return diagnostics


# ---------------------------------------------------------------------------
# ordering rules
# ---------------------------------------------------------------------------
def check_unordered_input(model: PlanModel) -> List[Diagnostic]:
    promised = model.ordered_outputs()
    diagnostics = []
    for node in model.nodes.values():
        if node.kind not in _ORDER_REQUIRING:
            continue
        for edge in model.in_edges(node.name):
            if promised[edge.upstream]:
                continue
            diagnostics.append(
                Diagnostic(
                    rule="ordering.unordered-input",
                    severity="error",
                    message=(
                        f"stage {node.name!r} ({node.kind}) needs "
                        "timestamp-ordered input, but the stream from "
                        f"{edge.upstream!r} can carry out-of-order tuples "
                        "(it descends from an enforce_order=False source "
                        "with no .sort() in between)"
                    ),
                    operators=(node.name, edge.upstream),
                    hint="place .sort(slack) between the unordered source and this stage",
                )
            )
    return diagnostics


def check_order_violation_risk(model: PlanModel) -> List[Diagnostic]:
    promised = model.ordered_outputs()
    diagnostics = []
    for edge in model.edges:
        if not edge.sorted_stream or promised[edge.upstream]:
            continue
        if model.nodes[edge.downstream].kind in _ORDER_REQUIRING:
            continue  # check_unordered_input already owns this edge
        diagnostics.append(
            Diagnostic(
                rule="ordering.order-violation-risk",
                severity="error",
                message=(
                    f"the stream {edge.upstream!r} -> {edge.downstream!r} "
                    "declares the order check on, but tuples reaching it can "
                    "be out of order (an enforce_order=False source upstream "
                    "with no .sort() in between); the run would abort with "
                    "StreamOrderError on the first inversion"
                ),
                operators=(edge.downstream, edge.upstream),
                hint="place .sort(slack) directly after the unordered source",
            )
        )
    return diagnostics


# ---------------------------------------------------------------------------
# provenance rules
# ---------------------------------------------------------------------------
def _error(rule: str, message: str, operators: Sequence[str], hint: str) -> Diagnostic:
    """An error-severity diagnostic naming ``operators``."""
    return Diagnostic(
        rule=rule, severity="error", message=message, operators=tuple(operators), hint=hint
    )


def check_unordered_capture(model: PlanModel) -> List[Diagnostic]:
    if model.mode is ProvenanceMode.NONE:
        return []
    rule = "provenance.unordered-capture"
    promised = model.ordered_outputs()
    diagnostics = []
    for sink in model.capture_sinks:
        for edge in model.in_edges(sink):
            if promised[edge.upstream]:
                continue
            diagnostics.append(_error(
                rule,
                f"provenance capture ({model.mode.value}) splices an SU in "
                f"front of sink {sink!r}, but its input stream from "
                f"{edge.upstream!r} can carry out-of-order tuples; "
                "watermark-driven provenance retention needs timestamp-ordered "
                "streams (paper section 3)",
                (sink, edge.upstream),
                "sort the stream before the captured sink, or opt the sink "
                "out with capture_provenance=False",
            ))
    for edge in model.edges:  # only a placement cuts edges
        if not edge.cut or promised[edge.upstream]:
            continue
        diagnostics.append(_error(
            rule,
            f"the cut stream {edge.upstream!r} -> {edge.downstream!r} crosses "
            "SPE instances while possibly out of order; the spliced SU/Send "
            f"pair ({model.mode.value}) needs timestamp-ordered input",
            (edge.upstream, edge.downstream),
            "place .sort(slack) before the instance boundary",
        ))
    if model.cut and model.mode is ProvenanceMode.BASELINE:
        for node in model.nodes.values():
            if node.kind != "source" or promised[node.name]:
                continue
            diagnostics.append(_error(
                rule,
                f"baseline provenance ships the stream of source {node.name!r} "
                "to the source store, but the source is declared "
                "enforce_order=False; the resolver's watermark-driven retention "
                "needs timestamp-ordered streams (paper section 3)",
                (node.name,),
                "the shipped stream leaves the source before any .sort(): keep "
                "the source ordered, or use provenance='genealog'",
            ))
    return diagnostics


def check_capture_shape(model: PlanModel) -> List[Diagnostic]:
    """The Sinks and Sources provenance splicing attaches to are there."""
    if model.mode is ProvenanceMode.NONE:
        return []
    rule = "provenance.capture-shape"
    technique = model.mode.value
    sinks = [name for name, node in model.nodes.items() if node.kind == "sink"]
    if not model.cut:
        if model.stored and not model.capture_sinks:
            return [_error(
                rule,
                "a provenance store is attached, but every sink opted out of "
                f"provenance capture ({technique}), so nothing would feed it",
                sinks,
                "capture at least one sink, or drop provenance_store=...",
            )]
        return []
    diagnostics = []
    opted_out = [name for name in sinks if name not in model.capture_sinks]
    if opted_out:
        diagnostics.append(_error(
            rule,
            f"provenance capture across a cut edge ({technique}) covers the "
            f"plan's data Sink, but sink(s) {opted_out!r} opted out "
            "(capture_provenance=False, or another sink opted in exclusively)",
            opted_out,
            "capture the sink, or run with provenance='none'",
        ))
    if len(sinks) != 1:
        diagnostics.append(_error(
            rule,
            f"provenance capture across a cut edge ({technique}) needs exactly "
            f"one data Sink; the plan declares {len(sinks)}",
            sinks,
            "union the streams into one Sink, or keep the plan on one instance",
        ))
    if model.mode is ProvenanceMode.BASELINE and not any(
        node.kind == "source" for node in model.nodes.values()
    ):
        diagnostics.append(_error(
            rule,
            "baseline provenance ships every Source stream to the source "
            "store, but the plan declares no Source stage (a plan fed only "
            "by custom stages cannot use it)",
            model.roots(),
            "feed the plan from a .source(...) stage, or use provenance='genealog'",
        ))
    return diagnostics


def check_retention_bound(model: PlanModel) -> List[Diagnostic]:
    diagnostics = []
    window_sum = model.window_sum
    if (
        model.mode is not ProvenanceMode.NONE
        and model.cut
        and model.retention is not None
        and model.retention < window_sum
    ):
        stateful = tuple(
            node.name for node in model.nodes.values() if node.retention_s > 0
        )
        diagnostics.append(
            Diagnostic(
                rule="provenance.retention-below-window-sum",
                severity="error",
                message=(
                    f"retention={model.retention}s is below the plan's "
                    f"window sum ({window_sum}s); the MU/resolver discards "
                    "source mappings while windowed operators can still "
                    "contribute them, so sink provenance silently loses "
                    "source tuples"
                ),
                operators=stateful,
                hint=f"pass retention >= {window_sum} (or omit it to use the derived bound)",
            )
        )
    if model.store_retention is not None and model.store_retention < window_sum:
        diagnostics.append(
            Diagnostic(
                rule="provenance.retention-below-window-sum",
                severity="error",
                message=(
                    f"the provenance store's retention "
                    f"({model.store_retention}s) is below the plan's window "
                    f"sum ({window_sum}s); the ledger seals mappings before "
                    "windowed operators stop contributing to them"
                ),
                hint=f"open the ledger with retention >= {window_sum}",
            )
        )
    return diagnostics


# ---------------------------------------------------------------------------
# boundary rules
# ---------------------------------------------------------------------------
def check_placement(model: PlanModel) -> List[Diagnostic]:
    if model.placement_error is None:
        return []
    return [
        _error(
            "placement.invalid",
            f"the placement does not fit the plan: {model.placement_error}",
            (),
            "assign every stage to exactly one SPE instance, and label only "
            "cut edges, each with its own unreserved label",
        )
    ]


def check_instance_cycle(model: PlanModel) -> List[Diagnostic]:
    graph = model.instance_graph()
    if not graph:
        return []
    indegree = {name: 0 for name in graph}
    for downs in graph.values():
        for down in downs:
            indegree[down] += 1
    ready = [name for name, degree in indegree.items() if degree == 0]
    seen = 0
    while ready:
        name = ready.pop()
        seen += 1
        for down in graph[name]:
            indegree[down] -= 1
            if indegree[down] == 0:
                ready.append(down)
    if seen == len(graph):
        return []
    cyclic = sorted(name for name, degree in indegree.items() if degree > 0)
    members = tuple(
        node.name for node in model.nodes.values() if node.instance in cyclic
    )
    return [
        Diagnostic(
            rule="boundary.instance-cycle",
            severity="error",
            message=(
                f"the placement routes streams in a cycle across SPE "
                f"instance(s) {cyclic!r}; the distributed runtimes order "
                "instances topologically and refuse cyclic instance graphs "
                "(SchedulingError at startup)"
            ),
            operators=members,
            hint=(
                "re-tier the placement so cut edges always point downstream "
                "(e.g. keep chained parallel stages on distinct tiers)"
            ),
        )
    ]


# ---------------------------------------------------------------------------
# schema rules
# ---------------------------------------------------------------------------
def _facts(meta_value: object) -> Optional[FunctionFacts]:
    if meta_value is None:
        return None
    facts = function_facts(meta_value)
    return facts if facts.resolved else None


def _schema_violation(
    node: PlanNode,
    role: str,
    facts: FunctionFacts,
    param_index: int,
    schema: Optional[FrozenSet[str]],
    upstream: str,
) -> Optional[Diagnostic]:
    if schema is None:
        return None
    missing = sorted(facts.reads_of(param_index) - schema)
    if not missing:
        return None
    return Diagnostic(
        rule="schema.unknown-field",
        severity="error",
        message=(
            f"{role} of stage {node.name!r} reads field(s) {missing!r} its "
            f"input from {upstream!r} can never carry (upstream schema: "
            f"{sorted(schema)!r}); the run would abort with KeyError on the "
            "first tuple"
        ),
        operators=(node.name, upstream),
        hint="fix the field name, or extend the source schema= declaration",
    )


def check_schema(model: PlanModel) -> List[Diagnostic]:
    order = model.topological_order()
    if order is None:
        return []
    schemas: Dict[str, Optional[FrozenSet[str]]] = {}
    diagnostics: List[Diagnostic] = []

    def single_input(name: str) -> Tuple[Optional[FrozenSet[str]], str]:
        edges = model.in_edges(name)
        if len(edges) != 1:
            return None, ""
        return schemas.get(edges[0].upstream), edges[0].upstream

    for name in order:
        node = model.nodes[name]
        kind = node.kind
        if kind == "source":
            declared = node.meta.get("schema")
            schemas[name] = frozenset(declared) if declared is not None else None
            continue
        if kind == "custom":
            schemas[name] = None
            continue
        if kind in ("filter", "router", "sort", "multiplex", "partition"):
            schema, upstream = single_input(name)
            schemas[name] = schema
            functions = []
            if kind == "filter":
                functions.append(("predicate", node.meta.get("predicate")))
            elif kind == "router":
                for index, predicate in enumerate(node.meta.get("predicates") or ()):
                    functions.append((f"predicate #{index}", predicate))
            elif kind == "partition":
                functions.append(("partition key", node.meta.get("key_function")))
            for role, function in functions:
                facts = _facts(function)
                if facts is None:
                    continue
                found = _schema_violation(node, role, facts, 0, schema, upstream)
                if found:
                    diagnostics.append(found)
            continue
        if kind in ("map", "flatmap"):
            schema, upstream = single_input(name)
            facts = _facts(node.meta.get("function"))
            if facts is not None:
                found = _schema_violation(node, "function", facts, 0, schema, upstream)
                if found:
                    diagnostics.append(found)
                if facts.produced_fields is None:
                    schemas[name] = None
                elif facts.passthrough:
                    schemas[name] = (
                        None if schema is None else schema | facts.produced_fields
                    )
                else:
                    schemas[name] = facts.produced_fields
            else:
                schemas[name] = None
            continue
        if kind == "aggregate":
            schema, upstream = single_input(name)
            facts = _facts(node.meta.get("function"))
            key_facts = _facts(node.meta.get("key_function"))
            contributors_facts = _facts(node.meta.get("contributors_function"))
            for role, role_facts in (
                ("aggregate function", facts),
                ("key function", key_facts),
                ("contributors function", contributors_facts),
            ):
                if role_facts is None:
                    continue
                found = _schema_violation(node, role, role_facts, 0, schema, upstream)
                if found:
                    diagnostics.append(found)
            if facts is not None and facts.produced_fields is not None:
                schemas[name] = (
                    (schema or frozenset()) | facts.produced_fields
                    if facts.passthrough and schema is not None
                    else (None if facts.passthrough else facts.produced_fields)
                )
            else:
                schemas[name] = None
            continue
        if kind == "join":
            edges = sorted(model.in_edges(name), key=lambda e: e.in_port)
            left = schemas.get(edges[0].upstream) if len(edges) > 0 else None
            right = schemas.get(edges[1].upstream) if len(edges) > 1 else None
            left_name = edges[0].upstream if len(edges) > 0 else ""
            right_name = edges[1].upstream if len(edges) > 1 else ""
            facts = _facts(node.meta.get("predicate"))
            combiner_facts = _facts(node.meta.get("combiner"))
            for role, role_facts in (
                ("join predicate", facts),
                ("combiner", combiner_facts),
            ):
                if role_facts is None:
                    continue
                for param_index, side_schema, side_name in (
                    (0, left, left_name),
                    (1, right, right_name),
                ):
                    found = _schema_violation(
                        node, role, role_facts, param_index, side_schema, side_name
                    )
                    if found:
                        diagnostics.append(found)
            if combiner_facts is not None and combiner_facts.produced_fields is not None:
                if combiner_facts.passthrough:
                    schemas[name] = (
                        left | right | combiner_facts.produced_fields
                        if left is not None and right is not None
                        else None
                    )
                else:
                    schemas[name] = combiner_facts.produced_fields
            else:
                schemas[name] = None
            continue
        if kind in ("union", "merge"):
            inputs = [schemas.get(edge.upstream) for edge in model.in_edges(name)]
            if inputs and all(schema is not None for schema in inputs):
                merged: FrozenSet[str] = frozenset()
                for schema in inputs:
                    merged |= schema  # type: ignore[operator]
                schemas[name] = merged
            else:
                schemas[name] = None
            continue
        if kind == "sink":
            schema, upstream = single_input(name)
            schemas[name] = schema
            facts = _facts(node.meta.get("callback"))
            if facts is not None:
                found = _schema_violation(node, "sink callback", facts, 0, schema, upstream)
                if found:
                    diagnostics.append(found)
            continue
        schemas[name] = None
    return diagnostics


# ---------------------------------------------------------------------------
# concurrency / determinism rules
# ---------------------------------------------------------------------------
def _stage_functions(node: PlanNode) -> List[Tuple[str, object]]:
    """(role, function) pairs of the user code a stage runs."""
    functions: List[Tuple[str, object]] = []
    meta = node.meta
    for key, role in (
        ("function", "function"),
        ("predicate", "predicate"),
        ("combiner", "combiner"),
        ("key_function", "key function"),
        ("contributors_function", "contributors function"),
    ):
        if meta.get(key) is not None:
            functions.append((role, meta[key]))
    for index, predicate in enumerate(meta.get("predicates") or ()):
        if predicate is not None:
            functions.append((f"predicate #{index}", predicate))
    return functions


def check_parallel_state(model: PlanModel) -> List[Diagnostic]:
    diagnostics = []
    reported: set = set()
    for node in model.nodes.values():
        if node.parallelism <= 1 or node.parallel_role not in ("replica", "partition"):
            continue
        for role, function in _stage_functions(node):
            facts = function_facts(function)
            if not facts.resolved or not facts.mutates_state:
                continue
            key = (node.parallel_stage, role, facts.name)
            if key in reported:
                continue
            reported.add(key)
            state = tuple(facts.mutated_captured) + tuple(facts.mutated_globals)
            diagnostics.append(
                Diagnostic(
                    rule="concurrency.captured-state-mutation",
                    severity="error",
                    message=(
                        f"the {role} of parallel stage "
                        f"{node.parallel_stage!r} ({facts.name}) mutates "
                        f"captured/global state {state!r}; with "
                        f"parallelism={node.parallelism} the key-disjoint "
                        "shards interleave their mutations, so the merged "
                        "output diverges from the sequential plan's "
                        "(byte-identical parallel equivalence breaks)"
                    ),
                    operators=(node.parallel_stage or node.name, node.name),
                    hint=(
                        "make the function pure (derive everything from the "
                        "window argument), or run the stage with parallelism=1"
                    ),
                )
            )
    return diagnostics


def check_parallel_nondeterminism(model: PlanModel) -> List[Diagnostic]:
    diagnostics = []
    reported: set = set()
    for node in model.nodes.values():
        if node.parallelism <= 1 or node.parallel_role not in ("replica", "partition"):
            continue
        for role, function in _stage_functions(node):
            facts = function_facts(function)
            if not facts.resolved or not facts.nondet_calls:
                continue
            key = (node.parallel_stage, role, facts.name)
            if key in reported:
                continue
            reported.add(key)
            diagnostics.append(
                Diagnostic(
                    rule="concurrency.nondeterministic-call",
                    severity="error",
                    message=(
                        f"the {role} of parallel stage "
                        f"{node.parallel_stage!r} ({facts.name}) calls "
                        f"{list(facts.nondet_calls)!r}; clock/entropy reads "
                        "make shard outputs differ run to run, breaking the "
                        "byte-identical parallel-equivalence oracle"
                    ),
                    operators=(node.parallel_stage or node.name, node.name),
                    hint=(
                        "derive values from tuple timestamps/payloads, or "
                        "seed a per-key deterministic generator"
                    ),
                )
            )
    return diagnostics


def check_cluster_shipping(model: PlanModel) -> List[Diagnostic]:
    if model.execution not in ("process", "cluster"):
        return []  # forked or remote workers each run a private copy
    diagnostics = []
    for node in model.nodes.values():
        if node.kind in ("sink", "source"):
            # sink callbacks run on the coordinator and source suppliers
            # ship as data, not by-value closures.
            continue
        for role, function in _stage_functions(node):
            facts = function_facts(function)
            if not facts.resolved or not facts.mutates_state:
                continue
            if callable(function) and _importable_by_name(function):  # type: ignore[arg-type]
                continue  # workers re-import it; module state is their own
            state = tuple(facts.mutated_captured) + tuple(facts.mutated_globals)
            diagnostics.append(
                Diagnostic(
                    rule="concurrency.by-value-shipped-state",
                    severity="warning",
                    message=(
                        f"the {role} of stage {node.name!r} ({facts.name}) "
                        f"runs on {model.execution} workers as a copy and mutates "
                        f"captured/global state {state!r}; every worker "
                        "mutates its own private copy, so the state the "
                        "driver observes never changes"
                    ),
                    operators=(node.name,),
                    hint=(
                        "keep shipped functions pure, or define the function "
                        "at module level so workers import the shared module"
                    ),
                )
            )
    return diagnostics


# ---------------------------------------------------------------------------
# registry / engine
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Rule:
    """One analyzer rule: a stable id, a family and a check function."""

    id: str
    family: str
    severity: str
    summary: str
    check: Callable[[PlanModel], List[Diagnostic]]


ALL_RULES: Tuple[Rule, ...] = (
    Rule("graph.cycle", "graph", "error",
         "the plan contains a directed cycle", check_cycle),
    Rule("graph.unreachable", "graph", "error",
         "a non-source stage has no input stream", check_unreachable),
    Rule("graph.dead-end", "graph", "error",
         "a non-terminal stage has no output stream", check_dead_end),
    Rule("graph.arity", "graph", "error",
         "a stage is wired with the wrong number of streams", check_arity),
    Rule("ordering.unordered-input", "ordering", "error",
         "an order-requiring stage consumes a possibly-unordered stream",
         check_unordered_input),
    Rule("ordering.order-violation-risk", "ordering", "error",
         "an order-enforcing stream can receive out-of-order tuples",
         check_order_violation_risk),
    Rule("provenance.unordered-capture", "provenance", "error",
         "provenance capture would splice onto a possibly-unordered stream",
         check_unordered_capture),
    Rule("provenance.capture-shape", "provenance", "error",
         "provenance capture lacks the Sink or Source it splices onto",
         check_capture_shape),
    Rule("provenance.retention-below-window-sum", "provenance", "error",
         "provenance retention is below the plan's window sum",
         check_retention_bound),
    Rule("placement.invalid", "boundary", "error",
         "the placement does not fit the plan (stages or links)", check_placement),
    Rule("boundary.instance-cycle", "boundary", "error",
         "the placement induces a cyclic SPE-instance graph",
         check_instance_cycle),
    Rule("schema.unknown-field", "schema", "error",
         "user code reads a field no upstream stage can produce", check_schema),
    Rule("concurrency.captured-state-mutation", "concurrency", "error",
         "user code on a parallel stage mutates captured state",
         check_parallel_state),
    Rule("concurrency.nondeterministic-call", "concurrency", "error",
         "user code on a parallel stage reads a clock or entropy source",
         check_parallel_nondeterminism),
    Rule("concurrency.by-value-shipped-state", "concurrency", "warning",
         "by-value-shipped user code mutates captured state",
         check_cluster_shipping),
)


def rule_catalog() -> List[Dict[str, str]]:
    """The rule table the CLI prints with ``--rules``."""
    return [
        {
            "id": rule.id,
            "family": rule.family,
            "severity": rule.severity,
            "summary": rule.summary,
        }
        for rule in ALL_RULES
    ]


def analyze_model(model: PlanModel) -> AnalysisReport:
    """Run every rule over ``model``; never raises."""
    report = AnalysisReport(
        plan=model.name,
        context={
            "deployment": model.deployment,
            "mode": model.mode.value,
            "execution": model.execution,
        },
    )
    for rule in ALL_RULES:
        try:
            report.extend(rule.check(model))
        except Exception as exc:
            report.diagnostics.append(
                Diagnostic(
                    rule="analysis.rule-error",
                    severity="warning",
                    message=f"rule {rule.id!r} crashed: {exc!r}",
                    hint="report this; the plan itself may still be valid",
                )
            )
    return report
