"""The one-execution-core invariant, checked over every operator class.

An operator has exactly one execution entry point, ``work()``, and a
single-input operator implements exactly one of the two input hooks below
:class:`SingleInputOperator`: ``process_tuple`` (stateful operators, looped
by the inherited ``process_batch``) or ``process_batch`` (stateless ones).
A second loop or a twin hook would be a parallel implementation nothing
executes.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro.core
import repro.spe.operators
from repro.spe.operators.base import Operator, SingleInputOperator

HOOKS = ("process_tuple", "process_batch")


def operator_classes():
    """Every Operator subclass defined in ``repro.spe.operators.*`` / ``repro.core.*``."""
    found = set()
    for package in (repro.spe.operators, repro.core):
        for info in pkgutil.iter_modules(package.__path__, f"{package.__name__}."):
            module = importlib.import_module(info.name)
            for _, cls in inspect.getmembers(module, inspect.isclass):
                if issubclass(cls, Operator) and cls.__module__ == module.__name__:
                    found.add(cls)
    return sorted(found, key=lambda cls: cls.__name__)


OPERATORS = operator_classes()
SINGLE_INPUT = [
    cls
    for cls in OPERATORS
    if issubclass(cls, SingleInputOperator) and cls is not SingleInputOperator
]


def test_the_walk_finds_the_operators():
    names = {cls.__name__ for cls in OPERATORS}
    assert {
        "FilterOperator", "MapOperator", "AggregateOperator", "JoinOperator", "SinkOperator",
        "SourceOperator", "SendOperator", "ReceiveOperator", "MergeOperator", "SortOperator",
        "SUOperator", "UnfoldMapOperator", "MUOperator", "BaselineProvenanceResolver",
    } <= names
    assert len(SINGLE_INPUT) >= 10


@pytest.mark.parametrize("cls", OPERATORS, ids=lambda cls: cls.__name__)
def test_work_is_the_only_execution_entry_point(cls):
    assert [name for name in vars(cls) if name.startswith("work") and name != "work"] == []


@pytest.mark.parametrize("cls", SINGLE_INPUT, ids=lambda cls: cls.__name__)
def test_single_input_operators_implement_exactly_one_hook(cls):
    below = cls.__mro__[: cls.__mro__.index(SingleInputOperator)]
    defined = {hook for hook in HOOKS for klass in below if hook in vars(klass)}
    assert len(defined) == 1, f"{cls.__name__} defines {sorted(defined) or 'neither hook'}"
