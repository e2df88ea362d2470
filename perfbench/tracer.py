"""Spans and counters recorded from outside the program.

The tracer wraps the public functions of each piclass module (layer).  A
wrapper replaces every module binding of the original object, because callers
import by name (``from .subgroups import normal_subgroups``), and also the
entries of the suite registry ``suite.SUITES``.  Hot, cheap calls are only
counted; everything else becomes a span.  Spans stay in memory until the run
ends and are then written as JSONL, one record per span.

Self time of a span is its duration minus the part of it that its child spans
cover, so the self times of all spans under a root add up to the root's
duration.
"""

import json
import sys
import time
from collections import Counter

PACKAGE = "piclass"

# layer -> functions of module ``piclass.<layer>`` recorded as spans
SPAN_FUNCTIONS = {
    "classes": ["conjugacy_classes", "k_pi"],
    "subgroups": [
        "normal_subgroups", "normal_closure", "quotient", "hall_search", "sylow_subgroup",
        "normalizer", "centralizer_of_element", "centralizer_of_subgroup", "center",
        "commutator_subgroup", "derived_subgroup", "subgroup_intersection",
        "are_conjugate_subgroups", "o_pi_prime", "fitting_subgroup", "socle", "is_simple",
        "almost_simple_socle", "enumerate_subgroups_up_to_conjugacy",
    ],
    "invariants": ["d_pi", "commuting_degree", "has_normal_pi_complement",
                   "k_pi_by_centralizer_decomposition"],
    "suite": ["run_census_campaign", "run_group_suite", "check_hall_dichotomy",
              "check_unit_iff_complement", "check_two_thirds_cap", "check_quotient_bound",
              "check_sylow3_structure", "check_commuting_threshold", "check_selftest"],
    "reporting": ["document", "render_json"],
    "catalog": ["build", "census_specs"],
}

# layer -> functions of module ``piclass.<layer>`` that are only counted,
# keyed by the name of the span they were called from
COUNTED_FUNCTIONS = {"subgroups": ["subgroup", "join_subgroups"]}

# (layer, class, method) recorded as spans
SPAN_METHODS = [("group", "PermGroup", "_build_chain"), ("group", "PermGroup", "element_list")]

# (layer, class, method) counted without a parent key, because they run
# millions of times
HOT_METHODS = [("perm", "Permutation", "__mul__"), ("perm", "Permutation", "inverse"),
               ("group", "PermGroup", "sift")]


class Tracer:
    """Span and counter store for one traced run.

    ``install`` patches the program; ``uninstall`` restores every binding it
    replaced.  Use it as a context manager.
    """

    def __init__(self, workload: str = ""):
        self.workload = workload
        self.spans: list = []  # [name, layer, start, end, parent, group, attrs]
        self.counts: Counter = Counter()
        self.hot = {f"{layer}.{meth}": [0] for layer, _, meth in HOT_METHODS}
        self.elements_yielded = [0]
        self.stack: list[int] = [-1]
        self.group = ""
        self._patches: list = []
        self.t0 = time.perf_counter()

    # -- recording ----------------------------------------------------------

    def open(self, name: str, layer: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, layer, time.perf_counter(), None, self.stack[-1],
                           self.group, None])
        self.stack.append(sid)
        return sid

    def close(self, sid: int, attrs: dict | None = None):
        span = self.spans[sid]
        span[3] = time.perf_counter()
        if attrs:
            span[6] = attrs
        self.stack.pop()

    def current_span_name(self) -> str:
        top = self.stack[-1]
        return self.spans[top][0] if top >= 0 else ""

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, fn, name: str, layer: str):
        tracer = self
        observe = OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            before = observe.before(args) if observe else None
            if name == "run_group_suite":
                tracer.group = args[1] if len(args) > 1 else kwargs.get("name", "")
            sid = tracer.open(name, layer)
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if observe:
                    attrs = observe.after(before, result)
                return result
            finally:
                tracer.close(sid, attrs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, name: str):
        tracer = self
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[(name, tracer.current_span_name())] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _hot_wrapper(fn, cell):
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _elements_wrapper(self, fn):
        cell = self.elements_yielded

        def elements(*args, **kwargs):
            for x in fn(*args, **kwargs):
                cell[0] += 1
                yield x

        elements.__wrapped__ = fn
        return elements

    # -- patching -----------------------------------------------------------

    @staticmethod
    def _modules():
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def patch_everywhere(self, original, replacement):
        """Replace every module binding of ``original``, and its suite registry
        entries, with ``replacement``."""
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, replacement)
            registry = vars(mod).get("SUITES")
            if isinstance(registry, dict):
                for key, entry in list(registry.items()):
                    if isinstance(entry, tuple) and original in entry:
                        self._patches.append((registry, key, entry))
                        registry[key] = tuple(replacement if e is original else e
                                              for e in entry)

    def _patch_attr(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        mod = sys.modules
        for layer, names in SPAN_FUNCTIONS.items():
            module = mod[f"{PACKAGE}.{layer}"]
            for name in names:
                fn = getattr(module, name)
                self.patch_everywhere(fn, self._span_wrapper(fn, name, layer))
        for layer, names in COUNTED_FUNCTIONS.items():
            module = mod[f"{PACKAGE}.{layer}"]
            for name in names:
                fn = getattr(module, name)
                self.patch_everywhere(fn, self._count_wrapper(fn, name))
        for layer, cls_name, meth in SPAN_METHODS:
            cls = getattr(mod[f"{PACKAGE}.{layer}"], cls_name)
            fn = vars(cls)[meth]
            self._patch_attr(cls, meth, self._span_wrapper(fn, meth, layer))
        for layer, cls_name, meth in HOT_METHODS:
            cls = getattr(mod[f"{PACKAGE}.{layer}"], cls_name)
            self._patch_attr(cls, meth, self._hot_wrapper(vars(cls)[meth],
                                                         self.hot[f"{layer}.{meth}"]))
        group_cls = mod[f"{PACKAGE}.group"].PermGroup
        self._patch_attr(group_cls, "elements", self._elements_wrapper(vars(group_cls)["elements"]))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- output -------------------------------------------------------------

    def write_jsonl(self, path: str):
        with open(path, "w") as fh:
            for sid, (name, layer, start, end, parent, group, attrs) in enumerate(self.spans):
                rec = {"id": sid, "name": name, "layer": layer,
                       "start": start - self.t0, "end": end - self.t0,
                       "parent": parent if parent >= 0 else None,
                       "workload": self.workload, "group": group}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


# -- per-call observations --------------------------------------------------


class _CacheObserver:
    """Records whether a cached computation was built by this call and, when
    it was, how many items it returned."""

    def __init__(self, key, count_result: bool):
        self.key = key
        self.count_result = count_result

    def before(self, args):
        group = args[0]
        key = self.key(args) if callable(self.key) else self.key
        return group.cache.get(key) is None

    def after(self, missed, result):
        attrs = {"built": missed}
        if missed and self.count_result:
            attrs["items"] = len(result)
        return attrs


class _ResultObserver:
    def __init__(self, fn):
        self.fn = fn

    def before(self, args):
        return None

    def after(self, _, result):
        return self.fn(result)


def _enumerate_key(args):
    from piclass.numtheory import validate_pi  # deferred: only after the program is importable

    pi = args[1] if len(args) > 1 else None
    return ("subgroup_classes", validate_pi(pi) if pi is not None else None)


OBSERVERS = {
    "conjugacy_classes": _CacheObserver("class_table", False),
    "normal_subgroups": _CacheObserver("normal_subgroups", True),
    "enumerate_subgroups_up_to_conjugacy": _CacheObserver(_enumerate_key, True),
    "quotient": _ResultObserver(lambda q: {"degree": q.group.degree}),
    "hall_search": _ResultObserver(lambda o: {"status": o.status, "method": o.method}),
}


# -- aggregation ------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, layer, start, end, parent, *_ in spans:
        if parent is not None and parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for sid, (name, layer, start, end, *_) in enumerate(spans):
        covered = 0.0
        cur_s = cur_e = None
        for s, e in sorted(children.get(sid, ())):
            s, e = max(s, start), min(e, end)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((end - start) - covered)
    return out


# nearest enclosing span that owns a chain build; anything else is "suite"
CHAIN_PARENTS = {
    "normal_subgroups": "normal_subgroups",
    "normal_closure": "normal_closure",
    "quotient": "quotient",
    "hall_search": "hall_search",
    "sylow_subgroup": "sylow_subgroup",
    "normalizer": "normalizer",
    "enumerate_subgroups_up_to_conjugacy": "enumerate",
    "has_normal_pi_complement": "has_normal_pi_complement",
}
CHAIN_PARENT_NAMES = list(CHAIN_PARENTS.values()) + ["suite"]

SUITE_OF_CHECK = {
    "check_hall_dichotomy": "main",
    "check_unit_iff_complement": "complement",
    "check_two_thirds_cap": "cap",
    "check_quotient_bound": "quotient",
    "check_sylow3_structure": "structure",
    "check_commuting_threshold": "commuting",
}

LAYERS = ["group", "classes", "subgroups", "invariants", "suite", "reporting"]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def aggregate(tracer: Tracer, root: int) -> dict[str, float]:
    """Per-layer metrics from the spans under ``root`` plus the counters.

    Every ``_s`` metric is self time except ``suite.<suite>_s``, which is the
    inclusive time of that suite's checks.  ``catalog.build_s`` covers every
    span recorded, including group building outside the root.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    inside = [False] * len(spans)
    for sid, span in enumerate(spans):
        parent = span[4]
        inside[sid] = sid == root or (parent >= 0 and inside[parent])

    m: Counter = Counter()
    for sid, (name, layer, start, end, parent, group, attrs) in enumerate(spans):
        if name == "build":
            m["catalog.build_s"] += selfs[sid]
        if not inside[sid]:
            continue
        m[f"{layer}.self_s"] += selfs[sid]
        m[f"span.{name}.self_s"] += selfs[sid]
        m[f"span.{name}.calls"] += 1
        attrs = attrs or {}
        if name == "_build_chain":
            p = parent
            owner = "suite"
            while p >= 0:
                if spans[p][0] in CHAIN_PARENTS:
                    owner = CHAIN_PARENTS[spans[p][0]]
                    break
                p = spans[p][4]
            m[f"group.chain_builds.{owner}"] += 1
        elif name == "conjugacy_classes" and attrs.get("built"):
            m["classes.tables_built"] += 1
        elif name == "normal_subgroups" and attrs.get("built"):
            m["subgroups.lattice_normals"] += attrs["items"]
        elif name == "enumerate_subgroups_up_to_conjugacy" and attrs.get("built"):
            m["subgroups.subgroup_classes"] += attrs["items"]
        elif name == "quotient" and "degree" in attrs:
            m["subgroups.quotient_degree_sum"] += attrs["degree"]
        elif name == "hall_search" and "status" in attrs:
            key = attrs["status"] if attrs["status"] != "found" else attrs["method"]
            m[f"subgroups.hall.{key}"] += 1
        elif name in SUITE_OF_CHECK:
            m[f"suite.{SUITE_OF_CHECK[name]}_s"] += end - start

    calls = lambda n: m[f"span.{n}.calls"]  # noqa: E731
    self_s = lambda *ns: sum(m[f"span.{n}.self_s"] for n in ns)  # noqa: E731
    counted = lambda fn, parent: tracer.counts[(fn, parent)]  # noqa: E731
    root_span = spans[root]
    out = {
        "perm.mul_calls": tracer.hot["perm.__mul__"][0],
        "perm.inverse_calls": tracer.hot["perm.inverse"][0],
        "group.chain_builds": calls("_build_chain"),
        "group.chain_build_s": self_s("_build_chain"),
        "group.sift_calls": tracer.hot["group.sift"][0],
        "group.elements_listed": tracer.elements_yielded[0],
        "group.element_list_s": self_s("element_list"),
        "classes.tables_built": m["classes.tables_built"],
        "classes.table_requests": calls("conjugacy_classes"),
        "classes.table_reuse_ratio": _ratio(calls("conjugacy_classes") - m["classes.tables_built"],
                                            calls("conjugacy_classes")),
        "classes.table_s": self_s("conjugacy_classes"),
        "subgroups.normal_subgroups_s": self_s("normal_subgroups"),
        "subgroups.lattice_joins": counted("join_subgroups", "normal_subgroups"),
        "subgroups.lattice_join_yield": _ratio(m["subgroups.lattice_normals"],
                                               counted("join_subgroups", "normal_subgroups")),
        "subgroups.normal_closure_calls": calls("normal_closure"),
        "subgroups.quotient_s": self_s("quotient"),
        "subgroups.quotients": calls("quotient"),
        "subgroups.quotient_degree_sum": m["subgroups.quotient_degree_sum"],
        "subgroups.hall_search_s": self_s("hall_search"),
        "subgroups.sylow_s": self_s("sylow_subgroup"),
        "subgroups.normalizer_s": self_s("normalizer"),
        "subgroups.centralizer_s": self_s("centralizer_of_element", "centralizer_of_subgroup"),
        "subgroups.enumerate_s": self_s("enumerate_subgroups_up_to_conjugacy"),
        "subgroups.subgroup_classes": m["subgroups.subgroup_classes"],
        "subgroups.enumerate_yield": _ratio(
            m["subgroups.subgroup_classes"],
            counted("subgroup", "enumerate_subgroups_up_to_conjugacy")),
        "invariants.d_pi_calls": calls("d_pi"),
        "reporting.render_s": self_s("document", "render_json"),
        "catalog.build_s": m["catalog.build_s"],
        "trace.campaign_s": root_span[3] - root_span[2],
        "trace.layer_self_sum_s": sum(m[f"{layer}.self_s"] for layer in LAYERS),
        "trace.spans": sum(inside),
    }
    for outcome in ("constructive", "randomized", "exhaustive", "none_exists"):
        out[f"subgroups.hall.{outcome}"] = m[f"subgroups.hall.{outcome}"]
    for owner in CHAIN_PARENT_NAMES:
        out[f"group.chain_builds.{owner}"] = m[f"group.chain_builds.{owner}"]
    for suite_name in SUITE_OF_CHECK.values():
        out[f"suite.{suite_name}_s"] = m[f"suite.{suite_name}_s"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = m[f"{layer}.self_s"]
    return out
