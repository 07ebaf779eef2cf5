"""The names the benchmark harness wraps must exist in perfcode.

``perfbench/tracer.py`` replaces perfcode functions by name and times
``FiniteGroup.from_table`` through its classmethod, and the lattice
workload calls ``all_subgroups`` positionally and hands each subgroup's
``elements`` frozenset to its checker.  A name removed or renamed here
would otherwise fail only a traced benchmark run.
"""

from __future__ import annotations

import importlib
import importlib.util
import random
from pathlib import Path

import pytest

from oracles import relabel_rows
from perfcode import construct
from perfcode.group import FiniteGroup
from perfcode.subgroups import CosetDecomposition, all_subgroups, minimal_conjugate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracer():
    return _perfbench("tracer")


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


@pytest.mark.parametrize("spec", ["s4", "gm1(2)"])
def test_lattice_workload_elements_pass_its_checker(spec):
    # the dedupe loop of perfbench/workloads.py, as spelled there
    G0 = construct.build_named(spec)
    perm = [0] + random.Random(5).sample(range(1, G0.order), G0.order - 1)
    G = FiniteGroup.from_table(relabel_rows(G0, perm), name=spec)
    subs = all_subgroups(G, None, 128)
    keep, seen = [], set()
    for H in subs:
        rep = minimal_conjugate(G, H)
        if rep.elements not in seen:
            seen.add(rep.elements)
            keep.append(rep)
    checks = _perfbench("checks")
    assert checks.check_lattice(G.table, [H.elements for H in subs], [K.elements for K in keep]) == []
