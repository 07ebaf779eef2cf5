"""The names the benchmark harness wraps must exist in perfcode.

``perfbench/tracer.py`` replaces perfcode functions by name and times
``FiniteGroup.from_table`` through its classmethod, and the lattice
workload calls ``all_subgroups`` positionally.  A name removed or
renamed here would otherwise fail only a traced benchmark run.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from perfcode import construct
from perfcode.group import FiniteGroup
from perfcode.subgroups import CosetDecomposition, all_subgroups

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("table", ["TIMED", "COUNTED"])
def test_traced_names_resolve(table):
    for module_name, name, _ in getattr(_tracer(), table):
        module = importlib.import_module(f"perfcode.{module_name}")
        assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_coset_lookup_hook_exists():
    assert callable(CosetDecomposition.coset_of)


def test_from_table_hook_is_a_classmethod():
    # The tracer times from_table by unwrapping the classmethod's function.
    hook = FiniteGroup.__dict__["from_table"]
    assert isinstance(hook, classmethod)
    assert callable(hook.__func__)


def test_lattice_workload_call_runs():
    G = construct.build_named("gm1(2)")
    subs = all_subgroups(G, None, 128)
    assert subs[-1].elements == frozenset(G.elements())
