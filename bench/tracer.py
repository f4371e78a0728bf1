"""Per-layer tracing for the benchmark, installed from outside the package.

The tracer wraps public functions of every ``residua`` layer at the names
their callers look them up by (``cli`` does ``from .chains import
verify_prefix``, so ``residua.cli.verify_prefix`` is patched as well as
``residua.chains.verify_prefix``).  Nothing under ``src/`` knows about it.

Three kinds of wrapper keep the overhead proportionate to the call rate:

- ``span``: coarse calls (a few thousand per op at most).  Each keeps a span
  (name, start, end, parent span, op id) in memory; spans are written out
  when the run ends.
- ``timed``: hot calls (element multiplication, ordinal operators, stage
  lookups).  Their time is aggregated per name instead of stored as spans,
  but it is still subtracted from the enclosing span, so self times add up.
- ``count``: the hottest calls (``mul_values``, ``tag``, stage membership),
  counted only; their time stays in the caller's self time.

Self time of a wrapper is its duration minus the time its traced children
cover.  Call counts depend only on the inputs, so two traced runs with the
same seed report identical counts.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter

MODULES = ("cli", "dsl", "catalog", "ordinal", "groups", "chains", "trees", "oracle")

# (module, attribute, metric name, kind); an attribute "Class.method" wraps a
# method.
FUNCTIONS = (
    ("cli", "main", "cli.main", "span"),
    ("dsl", "parse_expr", "dsl.parse_expr", "span"),
    ("catalog", "build_group", "catalog.build_group", "span"),
    ("catalog", "chain_for", "catalog.chain_for", "span"),
    ("catalog", "depth_interval", "catalog.depth_interval", "span"),
    ("ordinal", "format_ordinal", "ordinal.format_ordinal", "timed"),
    ("groups", "Element.__mul__", "groups.element_mul", "timed"),
    ("groups", "Element.inverse", "groups.element_inverse", "timed"),
    ("groups", "random_words", "groups.random_words", "span"),
    ("groups", "extension_from_quotient", "groups.extension_from_quotient", "span"),
    ("groups", "wreath_product", "groups.wreath_product", "span"),
    ("chains", "verify_prefix", "chains.verify_prefix", "span"),
    ("chains", "ChainSchema.stage_at", "chains.stage_at", "timed"),
    ("chains", "SubgroupDescriptor.contains", "chains.membership", "count"),
    ("trees", "truncate", "trees.truncate", "span"),
    ("trees", "emit", "trees.emit", "span"),
    ("trees", "parse_truncation", "trees.parse_truncation", "span"),
    ("trees", "act", "trees.act", "span"),
    ("trees", "TreeTruncation.digits_of_element", "trees.digits_of_element", "count"),
    ("trees", "stabilizer_chain", "trees.stabilizer_chain", "span"),
    ("trees", "verify_simple", "trees.verify_simple", "span"),
    ("oracle", "all_subgroups", "oracle.all_subgroups", "span"),
    ("oracle", "mulclose", "oracle.mulclose", "span"),
    ("oracle", "min_kappa", "oracle.min_kappa", "span"),
    ("oracle", "core_up_to_index", "oracle.core_up_to_index", "span"),
    ("oracle", "chain_enumerate", "oracle.chain_enumerate", "span"),
)

# Patched only in the module named, not wherever the function is imported:
# groups also closes generator sets to enumerate elements, which is not a join.
OWN_MODULE_ONLY = {"oracle.mulclose"}

ORDINAL_OPERATORS = ("__add__", "__radd__", "__mul__", "__rmul__",
                     "__eq__", "__lt__", "__le__", "__gt__", "__ge__")

MUL_VALUES = (
    ("PermGroup", "perm"),
    ("FinSupportPowerGroup", "finsupport"),
    ("WreathProductGroup", "wreath"),
    ("InfiniteDihedralGroup", "dihedral"),
    ("IntegerGroup", "integers"),
    ("CyclicGroup", "cyclic"),
    ("DirectProductGroup", "product"),
)

# groups.self_ms sums the self time of these wrappers.
GROUPS_SELF = ("groups.element_mul", "groups.element_inverse", "groups.random_words",
               "groups.extension_from_quotient", "groups.wreath_product")

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER = (
    ("cli.main.self_ms", "ms"),
    ("cli.output_bytes", "bytes"),
    ("dsl.parse_expr.calls", "count"),
    ("dsl.parse_expr.self_ms", "ms"),
    ("catalog.build_group.calls", "count"),
    ("catalog.build_group.self_ms", "ms"),
    ("catalog.chain_for.calls", "count"),
    ("catalog.chain_for.self_ms", "ms"),
    ("catalog.depth_interval.self_ms", "ms"),
    ("ordinal.ops", "count"),
    ("ordinal.self_ms", "ms"),
    ("groups.element_mul.calls", "count"),
    ("groups.element_inverse.calls", "count"),
    *((f"groups.mul_values.calls.{kind}", "count") for _, kind in MUL_VALUES),
    ("groups.tag.calls", "count"),
    ("groups.random_words.self_ms", "ms"),
    ("groups.extension_from_quotient.self_ms", "ms"),
    ("groups.wreath_product.self_ms", "ms"),
    ("groups.self_ms", "ms"),
    ("chains.verify_prefix.calls", "count"),
    ("chains.verify_prefix.self_ms", "ms"),
    ("chains.stage_at.calls", "count"),
    ("chains.stage_at.self_ms", "ms"),
    ("chains.stages_materialized", "count"),
    ("chains.membership.calls", "count"),
    ("chains.transversal.max_reps", "count"),
    ("chains.transversal.total_reps", "count"),
    ("chains.limit_budget_exhausted", "count"),
    ("trees.truncate.self_ms", "ms"),
    ("trees.vertices_materialized", "count"),
    ("trees.emit.self_ms", "ms"),
    ("trees.emit.bytes", "bytes"),
    ("trees.parse_truncation.self_ms", "ms"),
    ("trees.act.calls", "count"),
    ("trees.act.self_ms", "ms"),
    ("trees.digits_of_element.calls", "count"),
    ("trees.stabilizer_chain.self_ms", "ms"),
    ("trees.verify_simple.self_ms", "ms"),
    ("oracle.all_subgroups.calls", "count"),
    ("oracle.all_subgroups.self_ms", "ms"),
    ("oracle.mulclose.calls", "count"),
    ("oracle.mulclose.self_ms", "ms"),
    ("oracle.subgroups_found", "count"),
    ("oracle.join_yield", "ratio"),
    ("oracle.min_kappa.self_ms", "ms"),
    ("oracle.core_up_to_index.self_ms", "ms"),
    ("oracle.chain_enumerate.self_ms", "ms"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead", "ratio"),
)


class Tracer:
    """Spans, self times and counters for one traced run."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(int)  # counters derived from return values
        self.spans: list[tuple] = []  # (name, start, end, parent, op)
        self.op = 0
        self._stack: list[list] = []  # per active wrapper: [child seconds, span id]
        self._stages: dict[int, object] = {}  # distinct stage descriptors of this op
        self._patches: list[tuple] | None = None  # (owner, attr, original, wrapper)
        self._missing: list[str] = []

    # -- wrappers -------------------------------------------------------------

    def _count(self, name, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _timed(self, name, fn, record, after=None):
        calls, self_s, stack, spans = self.calls, self.self_s, self._stack, self.spans

        def timed(*args, **kwargs):
            calls[name] += 1
            parent = stack[-1][1] if stack else None
            if record:
                span = len(spans)
                spans.append(None)
            else:
                span = parent
            frame = [0.0, span]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                self_s[name] += took - frame[0]
                if stack:
                    stack[-1][0] += took
                if record:
                    spans[span] = (name, start, end, parent, self.op)
            if after is not None:
                after(result)
            return result

        return timed

    def _wrap(self, name, kind, fn, after=None):
        if kind == "count":
            return self._count(name, fn)
        return self._timed(name, fn, record=(kind == "span"), after=after)

    # -- hooks on return values -----------------------------------------------

    def _after_stage_at(self, stage):
        if id(stage) in self._stages:
            return
        self._stages[id(stage)] = stage  # keeps ids unique for the whole op
        self.extra["chains.stages_materialized"] += 1
        reps = stage.transversal
        if reps is not None:
            # a tuple today; a lazy transversal type would report its size
            size = reps.size if hasattr(reps, "size") else len(reps)
            self.extra["chains.transversal.total_reps"] += size
            self.extra["chains.transversal.max_reps"] = max(
                self.extra["chains.transversal.max_reps"], size)

    def _after_verify_prefix(self, certificate):
        self.extra["chains.limit_budget_exhausted"] += sum(
            "unresolved within budget" in flag for flag in certificate.flags)

    def _after_truncate(self, truncation):
        self.extra["trees.vertices_materialized"] += sum(size for size, _ in truncation.levels)

    def _after_emit(self, text):
        self.extra["trees.emit.bytes"] += len(text.encode())

    def _after_all_subgroups(self, lattice):
        self.extra["oracle.subgroups_found"] += len(lattice)

    # -- installation ---------------------------------------------------------

    def install(self) -> list[str]:
        """Patch every traced name in; returns the names that were not found."""
        if self._patches is None:
            self._plan()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        return self._missing

    def uninstall(self):
        """Restore the original names, e.g. while an op's answer is checked."""
        for owner, attr, original, _ in self._patches or ():
            setattr(owner, attr, original)

    def _plan(self):
        patches, missing = [], []

        def patch(owner, attr, wrapper):
            patches.append((owner, attr, vars(owner)[attr], wrapper))

        mods = {m: importlib.import_module(f"residua.{m}") for m in MODULES}
        namespaces = [importlib.import_module("residua"), *mods.values()]
        hooks = {
            "chains.stage_at": self._after_stage_at,
            "chains.verify_prefix": self._after_verify_prefix,
            "trees.truncate": self._after_truncate,
            "trees.emit": self._after_emit,
            "oracle.all_subgroups": self._after_all_subgroups,
        }
        for mod_name, attr, name, kind in FUNCTIONS:
            mod = mods[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is None or meth not in cls.__dict__:
                    missing.append(name)
                    continue
                patch(cls, meth, self._wrap(name, kind, cls.__dict__[meth], hooks.get(name)))
                continue
            original = getattr(mod, attr, None)
            if original is None:
                missing.append(name)
                continue
            wrapper = self._wrap(name, kind, original, hooks.get(name))
            for ns in ([mod] if name in OWN_MODULE_ONLY else namespaces):
                for key, value in list(vars(ns).items()):
                    if value is original:
                        patch(ns, key, wrapper)
        ordinal_cls = mods["ordinal"].Ordinal
        for op in ORDINAL_OPERATORS:
            if op in ordinal_cls.__dict__:
                patch(ordinal_cls, op,
                      self._wrap("ordinal.operators", "timed", ordinal_cls.__dict__[op]))
        groups = mods["groups"]
        for cls_name, kind in MUL_VALUES:
            cls = getattr(groups, cls_name, None)
            if cls is None or "mul_values" not in cls.__dict__:
                missing.append(f"groups.mul_values.calls.{kind}")
                continue
            patch(cls, "mul_values",
                  self._count(f"groups.mul_values.calls.{kind}", cls.__dict__["mul_values"]))
        for cls in vars(groups).values():
            if (isinstance(cls, type) and issubclass(cls, groups.Group)
                    and isinstance(cls.__dict__.get("tag"), property)):
                patch(cls, "tag", property(self._count("groups.tag", cls.__dict__["tag"].fget)))
        self._patches, self._missing = patches, missing

    def begin_op(self, op: int):
        self.op = op
        self._stack.clear()
        self._stages.clear()

    # -- results --------------------------------------------------------------

    def metrics(self, output_bytes: int) -> dict:
        """Every per-layer metric except the tracing overhead figures."""
        c, s = self.calls, self.self_s
        mulclose = c["oracle.mulclose"]
        out = {
            "cli.output_bytes": output_bytes,
            "ordinal.ops": c["ordinal.operators"] + c["ordinal.format_ordinal"],
            "ordinal.self_ms": (s["ordinal.operators"] + s["ordinal.format_ordinal"]) * 1000,
            "groups.self_ms": sum(s[name] for name in GROUPS_SELF) * 1000,
            "oracle.join_yield": self.extra["oracle.subgroups_found"] / mulclose if mulclose else 0.0,
        }
        for name, _ in PER_LAYER:
            if name in out or name.startswith("trace."):
                continue
            if name.endswith(".self_ms"):
                out[name] = s[name.removesuffix(".self_ms")] * 1000
            elif name.endswith(".calls"):
                out[name] = c[name.removesuffix(".calls")]
            elif ".calls." in name:
                out[name] = c[name]
            else:
                out[name] = self.extra[name]
        return out

    def write_spans(self, path):
        names = sorted({span[0] for span in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent", "op"],
                "names": names,
                "spans": [[index[n], round(a, 7), round(b, 7), p, op]
                          for n, a, b, p, op in self.spans],
            }, fh, separators=(",", ":"))
            fh.write("\n")

