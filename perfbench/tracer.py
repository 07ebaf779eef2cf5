"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public perfcode functions with wrappers.  perfcode
modules import each other's names with ``from .x import y``, so every module
binding that refers to a traced function is replaced, not just the defining
one.  A timed wrapper records calls, busy time (outermost span of its key
only, so recursion is not counted twice) and self time (its span minus the
traced spans it caused).  A counting wrapper only counts calls; it is used
on the hot functions, where a clock read per call would swamp the work.
Counts made inside one span (closures inside ``all_subgroups``, coset
lookups inside the transversal search) are the counter's growth between the
span's entry and exit.

Stats accumulate until ``take`` hands them over and starts afresh, so the
runner can split them into set-up and pass buckets.  Spans are kept in
memory, up to ``SPAN_CAP``, and written out by the runner at the end.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

SPAN_CAP = 100_000

# (module, function, key): timed at each call.
TIMED = (
    ("group", "load_group", "group.load_group"),
    ("subgroups", "all_subgroups", "subgroups.all_subgroups"),
    ("subgroups", "minimal_conjugate", "subgroups.minimal_conjugate"),
    ("subgroups", "coset_decomposition", "subgroups.coset_decomposition"),
    ("subgroups", "normalizer", "subgroups.normalizer"),
    ("subgroups", "sylow_2_subgroup", "subgroups.sylow_2_subgroup"),
    ("codes", "find_inverse_closed_transversal", "codes.transversal"),
    ("codes", "decide", "codes.decide"),
    ("codes", "square_coset_condition", "codes.square_coset"),
    ("codes", "double_coset_condition", "codes.double_coset"),
    ("codes", "omega_coset_sets", "codes.omega"),
    ("codes", "sylow_reduction", "codes.sylow_reduction"),
    ("codes", "is_perfect_code_in_cayley_graph", "codes.graph_check"),
    ("extraspecial", "classify_extraspecial", "extraspecial.classify"),
    ("extraspecial", "classify_sylow_extraspecial", "extraspecial.classify_sylow"),
    ("extraspecial", "build_family", "construct.build"),
    ("corpus", "cross_check", "corpus.cross_check"),
    ("corpus", "report_emit", "corpus.report_emit"),
    ("corpus", "make_entry", "corpus.make_entry"),
    ("cli", "main", "cli.main"),
) + tuple(
    ("construct", name, "construct.build")
    for name in (
        "cyclic", "elementary_abelian", "dihedral", "dicyclic", "quaternion8",
        "symmetric", "alternating", "special_linear_2_3", "direct_product",
        "build_named",
    )
)

# (module, function, counter): counted, not timed.
COUNTED = (
    ("group", "closure_elements", "group.closure"),
    ("group", "subgroup_as_group", "group.subgroup_as_group"),
    ("extraspecial", "is_extraspecial", "extraspecial.is_extraspecial"),
)


class Stats:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.busy: Counter = Counter()
        self.self_time: Counter = Counter()
        self.max_time: Counter = Counter()
        self.counts: Counter = Counter()


class Tracer:
    def __init__(self) -> None:
        self.stats = Stats()
        self.depth: Counter = Counter()
        self.stack: list[list] = []  # [span id, child seconds]
        self.spans: list[tuple] = []  # (id, parent id, key, start, end)
        self.spans_dropped = 0
        self._next_id = 0
        # Call counters as one-element lists: the cheapest increment there is.
        self.cells: dict[str, list[int]] = {}

    def take(self) -> Stats:
        """The stats gathered since the last call; counting starts afresh."""
        done, self.stats = self.stats, Stats()
        for key, cell in self.cells.items():
            done.counts[key] += cell[0]
            cell[0] = 0
        return done

    def timed(self, key, fn, on_enter=None, on_exit=None):
        depth, stack, spans = self.depth, self.stack, self.spans

        def wrapper(*args, **kwargs):
            state = on_enter() if on_enter else None
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            depth[key] += 1
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                elapsed = end - start
                stack.pop()
                depth[key] -= 1
                if stack:
                    stack[-1][1] += elapsed
                stats = self.stats
                stats.calls[key] += 1
                stats.self_time[key] += elapsed - frame[1]
                if depth[key] == 0:
                    stats.busy[key] += elapsed
                    if elapsed > stats.max_time[key]:
                        stats.max_time[key] = elapsed
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, parent, key, start, end))
                else:
                    self.spans_dropped += 1
                if on_exit:
                    on_exit(result, state)

        return wrapper

    def counted(self, fn, key):
        cell = self.cells.setdefault(key, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the traced perfcode functions in every module that binds them."""
        import perfcode
        from perfcode import cli, codes, construct, corpus, extraspecial, group, subgroups

        modules = {
            "group": group, "subgroups": subgroups, "codes": codes,
            "extraspecial": extraspecial, "construct": construct,
            "corpus": corpus, "cli": cli,
        }
        bindings = [perfcode, *modules.values()]

        def rebind(original, wrapper):
            for module in bindings:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

        for module_name, name, key in COUNTED:
            original = getattr(modules[module_name], name)
            rebind(original, self.counted(original, key))
        # coset_of runs tens of millions of times in the transversal search,
        # so its counter takes its two arguments directly.
        coset_of = subgroups.CosetDecomposition.coset_of
        lookups = self.cells.setdefault("codes.coset_lookups_all", [0])

        def counted_coset_of(dec, g):
            lookups[0] += 1
            return coset_of(dec, g)

        subgroups.CosetDecomposition.coset_of = counted_coset_of
        closures = self.cells["group.closure"]

        def lattice_done(result, closures_before):
            # Cache hits make no closures; only enumerations that did work
            # add their subgroups, so lattice_yield is subgroups per closure.
            made = closures[0] - closures_before
            counts = self.stats.counts
            counts["subgroups.lattice_closures"] += made
            if result is not None and made:
                counts["subgroups.lattice_subgroups"] += len(result)

        def transversal_done(result, lookups_before):
            counts = self.stats.counts
            counts["codes.coset_lookups"] += lookups[0] - lookups_before
            if result is not None:
                counts["codes.transversal_found"] += 1

        hooks = {
            "subgroups.all_subgroups": (lambda: closures[0], lattice_done),
            "codes.transversal": (lambda: lookups[0], transversal_done),
        }
        for module_name, name, key in TIMED:
            original = getattr(modules[module_name], name)
            on_enter, on_exit = hooks.get(key, (None, None))
            rebind(original, self.timed(key, original, on_enter, on_exit))
        from_table = group.FiniteGroup.__dict__["from_table"].__func__
        group.FiniteGroup.from_table = classmethod(self.timed("group.from_table", from_table))


def find_caches() -> dict[str, object]:
    """Every functools cache bound at module level in perfcode, by qualified name.

    Call before ``Tracer.install``: the wrappers hide ``cache_info``.
    """
    found = {}
    for name, module in sorted(sys.modules.items()):
        if name == "perfcode" or name.startswith("perfcode."):
            for attr, value in vars(module).items():
                if hasattr(value, "cache_info") and hasattr(value, "cache_clear"):
                    found.setdefault(f"{value.__module__}.{attr}", value)
    return found
