"""Plan serialisation: shipping a lowered SPE instance to a cluster worker.

Under ``execution="cluster"`` the :class:`~repro.spe.cluster.RemoteRuntime`
coordinator builds the whole deployment locally (instances, operators,
streams, channels) and then ships each
:class:`~repro.spe.instance.SPEInstance` to the worker daemon that will run
it.  Unlike the fork launcher (``execution="process"``), which never
serialises anything, a cluster worker may be a *fresh* Python process on
another host -- the plan must actually travel.

Standard :mod:`pickle` almost suffices: operators, streams, tuples and
transports are ordinary classes importable on the worker.  What it refuses
are exactly the things stream pipelines are full of:

* **lambdas and closures** -- map functions, filter predicates, key
  extractors, source suppliers.  Pickle only ships functions *by reference*
  (module + qualname); anything defined inside another function has no
  importable name.  :class:`_PlanPickler` ships such functions **by value**:
  the code object is serialised with :mod:`marshal`, together with the
  globals it actually references (collected recursively over nested code
  objects), its closure cell contents, defaults and attributes, and rebuilt
  on the worker with :class:`types.FunctionType`.  The rebuild is split into
  a skeleton + state fix-up (the 6-element reduce protocol) so recursive
  closures and cyclic globals survive.
* **locks** -- every :class:`~repro.spe.channels.Channel` carries a
  :class:`threading.Lock`.  A lock's identity is meaningless across hosts;
  the worker gets a fresh one.
* **modules** -- a closure may capture an imported module; it is shipped as
  an import-by-name.

:mod:`marshal` bytecode is specific to the Python feature release, so every
plan is stamped with :func:`plan_version` and the worker rejects mismatches
up front (:func:`check_plan_version`) with an error naming both versions --
far better than a corrupt-bytecode crash mid-run.

Functions importable by qualified name still travel by reference (smaller,
and the worker's copy of library code wins), with one exception: anything
living in ``__main__``, whose namespace differs between coordinator and
daemon, goes by value too.
"""

from __future__ import annotations

import builtins
import importlib
import io
import marshal
import pickle
import sys
import threading
import types
from typing import Dict, List, Tuple

from repro.spe.errors import SerializationError

#: bumped when the by-value function encoding changes shape.
PLAN_FORMAT_VERSION = 1

#: pickle protocol for plans (5 carries the 6-element reduce everywhere we run).
_PLAN_PICKLE_PROTOCOL = 5

_LOCK_TYPE = type(threading.Lock())
_RLOCK_TYPE = type(threading.RLock())


def plan_version() -> List[int]:
    """The compatibility stamp shipped with every plan."""
    return [sys.version_info[0], sys.version_info[1], PLAN_FORMAT_VERSION]


def check_plan_version(version) -> None:
    """Reject a plan produced by an incompatible coordinator.

    :mod:`marshal` bytecode does not survive a Python feature-release
    boundary, so a 3.11 coordinator cannot feed a 3.12 worker.
    """
    if list(version or ()) != plan_version():
        raise SerializationError(
            f"plan version {list(version or ())!r} is incompatible with this "
            f"worker's {plan_version()!r} (Python major.minor and plan format "
            "must match; marshal'd bytecode is version-specific)"
        )


# -- by-value function shipping ---------------------------------------------

def _referenced_globals(code: types.CodeType) -> set:
    """Every global name ``code`` (or a function nested in it) may load."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _referenced_globals(const)
    return names


def _importable_by_name(func: types.FunctionType) -> bool:
    """True when the worker can recover ``func`` by importing its qualname."""
    module_name = getattr(func, "__module__", None)
    qualname = getattr(func, "__qualname__", None)
    if not module_name or not qualname:
        return False
    if module_name == "__main__" or "<locals>" in qualname or "<lambda>" in qualname:
        return False
    module = sys.modules.get(module_name)
    if module is None:
        return False
    obj = module
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return False
    return obj is func


def _make_function_skeleton(
    code_bytes: bytes, name: str, qualname: str, module: str, n_cells: int
) -> types.FunctionType:
    """Rebuild a shipped function's shell; state is fixed up afterwards.

    The two-phase rebuild (skeleton first, then :func:`_set_function_state`)
    lets pickle memoise the function before its globals and cells are
    populated, so recursive closures and functions whose globals point back
    at themselves round-trip.
    """
    code = marshal.loads(code_bytes)
    cells = tuple(types.CellType() for _ in range(n_cells))
    namespace = {"__builtins__": builtins}
    func = types.FunctionType(code, namespace, name, None, cells)
    func.__qualname__ = qualname
    func.__module__ = module
    return func


def _set_function_state(func: types.FunctionType, state: Dict) -> None:
    """Second phase of the rebuild: install globals, cells, defaults, attrs."""
    func.__globals__.update(state["globals"])
    func.__defaults__ = state["defaults"]
    func.__kwdefaults__ = state["kwdefaults"]
    for cell, (filled, value) in zip(func.__closure__ or (), state["cells"]):
        if filled:
            cell.cell_contents = value
    func.__dict__.update(state["dict"])


def _reduce_function_by_value(func: types.FunctionType) -> Tuple:
    code = func.__code__
    func_globals = func.__globals__
    shipped_globals = {
        name: func_globals[name]
        for name in sorted(_referenced_globals(code))
        if name in func_globals
    }
    cells = []
    for cell in func.__closure__ or ():
        try:
            cells.append((True, cell.cell_contents))
        except ValueError:  # an empty cell (still-unbound recursive name)
            cells.append((False, None))
    try:
        code_bytes = marshal.dumps(code)
    except ValueError as exc:  # pragma: no cover - marshal limits
        raise SerializationError(
            f"cannot ship function {func.__qualname__!r} by value: {exc}"
        ) from exc
    state = {
        "globals": shipped_globals,
        "defaults": func.__defaults__,
        "kwdefaults": func.__kwdefaults__,
        "cells": tuple(cells),
        "dict": dict(func.__dict__),
    }
    return (
        _make_function_skeleton,
        (code_bytes, func.__name__, func.__qualname__, func.__module__, len(cells)),
        state,
        None,
        None,
        _set_function_state,
    )


class _PlanPickler(pickle.Pickler):
    """Pickler that additionally ships closures, locks and modules."""

    def reducer_override(self, obj):
        if isinstance(obj, types.FunctionType):
            if _importable_by_name(obj):
                return NotImplemented  # by reference, the normal way
            return _reduce_function_by_value(obj)
        if isinstance(obj, types.ModuleType):
            return (importlib.import_module, (obj.__name__,))
        if isinstance(obj, _LOCK_TYPE):
            return (threading.Lock, ())
        if isinstance(obj, _RLOCK_TYPE):
            return (threading.RLock, ())
        return NotImplemented


def serialize_plan(obj) -> bytes:
    """Serialise a lowered plan (or any value) for shipping to a worker."""
    buffer = io.BytesIO()
    try:
        _PlanPickler(buffer, protocol=_PLAN_PICKLE_PROTOCOL).dump(obj)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise SerializationError(f"cannot serialise the plan: {exc}") from exc
    return buffer.getvalue()


def deserialize_plan(data: bytes):
    """Inverse of :func:`serialize_plan` (call :func:`check_plan_version` first)."""
    try:
        return pickle.loads(data)
    except Exception as exc:
        raise SerializationError(f"cannot deserialise the plan: {exc}") from exc
