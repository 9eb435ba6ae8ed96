"""Layer tracing from outside the library.

The tracer wraps the public functions of each ``bricks`` module by replacing
the module attributes that callers look up. ``validate`` calls the name
``classify_contact`` in ``bricks.complexes``, the CLI calls ``parse_complex``
in ``bricks.cli``, and so on; one wrapper per function object is installed
under every name that refers to it. Nothing in the package is edited.

Spans are aggregated in memory per function rather than kept one by one
(a rectilinear audit makes half a million ``classify_contact`` calls). Each
wrapped call is a span; its self time is its duration minus the durations of
the wrapped calls made inside it, so the self times of all spans add up to
the time spent inside the library, and the rest of an op's wall time is
harness time. The wrapper's own cost lands in the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import time

LAYERS = (
    "fileformats",
    "geometry",
    "complexes",
    "refinement",
    "surface",
    "cli",
    "constructions",
)

CLASSIFY = "geometry.classify_contact"
VALIDATE = "complexes.validate"
APPLY_SCHEDULE = "refinement.apply_schedule"
PATHS = ("box", "skew_reject", "skew_poly")
HARNESS = "harness"

_MARK = "__bench_original__"


def attribute_snapshot(modules) -> dict:
    """Every attribute of every module, by identity."""
    return {mod.__name__: dict(vars(mod)) for mod in modules}


def unwrapped_problems(modules, snapshot) -> list[str]:
    """Attributes that differ from the snapshot or still hold a wrapper."""
    problems = []
    for mod in modules:
        before = snapshot[mod.__name__]
        now = vars(mod)
        for attr in sorted(set(before) | set(now)):
            value = now.get(attr)
            if value is not before.get(attr) or hasattr(value, _MARK):
                problems.append(f"{mod.__name__}.{attr}")
    return problems


class Tracer:
    """Wraps the public functions of ``layers`` (name -> module) while
    installed and aggregates calls, total and self seconds per function.

    ``modules`` are every module whose attributes may hold a layer function
    (the layers themselves plus the package namespace).
    """

    def __init__(self, layers: dict, modules, disjoint_kind):
        self.modules = list(modules)
        self._stack = [[HARNESS, 0.0, 0]]
        self._installed: list[tuple] = []
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.nested: dict[tuple[str, str], float] = {}  # (parent, child) -> s
        # path -> [pairs, seconds, non-disjoint outcomes]
        self.paths = {p: [0, 0.0, 0] for p in PATHS}
        self.classified = [0]
        # per validate call: (bricks, pairs classified, contacts, first call
        # on that complex in the current op)
        self.validations: list[tuple[int, int, int, bool]] = []
        self.refined_bricks = 0
        self._seen: dict[int, object] = {}
        self._wrappers: dict[int, object] = {}
        for layer, mod in layers.items():
            for attr, fn in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                if name == CLASSIFY:
                    wrapper = self._wrap_classify(fn, disjoint_kind)
                else:
                    wrapper = self._wrap(fn, name)
                functools.update_wrapper(wrapper, fn)
                setattr(wrapper, _MARK, fn)
                self._wrappers[id(fn)] = wrapper

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        if self._installed:
            return
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None and getattr(wrapper, _MARK) is value:
                    setattr(mod, attr, wrapper)
                    self._installed.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in self._installed:
            setattr(mod, attr, value)
        self._installed.clear()

    def end_op(self) -> None:
        """Forget which complexes were validated: each op starts afresh."""
        self._seen.clear()

    # --- aggregates ---------------------------------------------------------

    @property
    def library_s(self) -> float:
        """Seconds spent inside top-level wrapped calls."""
        return self._stack[0][1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def self_sum(self) -> float:
        return sum(rec[2] for rec in self.stats.values()) + sum(
            rec[1] for rec in self.paths.values()
        )

    # --- wrappers -------------------------------------------------------------

    def _wrap(self, fn, name):
        stack, stats, nested = self._stack, self.stats, self.nested
        classified = self.classified
        perf = time.perf_counter
        observe = {
            VALIDATE: self._observe_validate,
            APPLY_SCHEDULE: self._observe_refine,
        }.get(name)

        def wrapper(*args, **kwargs):
            frame = [name, 0.0, classified[0]]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                parent = stack[-1]
                parent[1] += dt
                rec = stats.get(name)
                if rec is None:
                    rec = stats[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                key = (parent[0], name)
                nested[key] = nested.get(key, 0.0) + dt
            if observe is not None:
                observe(args, kwargs, result, classified[0] - frame[2])
            return result

        return wrapper

    def _wrap_classify(self, fn, disjoint_kind):
        # A skew pair that comes back DISJOINT was rejected by the separating
        # axis test; any other skew outcome went through polytope enumeration.
        stack, paths, classified = self._stack, self.paths, self.classified
        box, reject, poly = paths["box"], paths["skew_reject"], paths["skew_poly"]
        perf = time.perf_counter

        def wrapper(a, b):
            frame = [CLASSIFY, 0.0, 0]
            stack.append(frame)
            t0 = perf()
            try:
                contact = fn(a, b)
            finally:
                dt = perf() - t0
                stack.pop()
                stack[-1][1] += dt
            disjoint = contact.kind is disjoint_kind
            if a.box is not None and b.box is not None:
                rec = box
            else:
                rec = reject if disjoint else poly
            rec[0] += 1
            rec[1] += dt - frame[1]
            if not disjoint:
                rec[2] += 1
            classified[0] += 1
            return contact

        return wrapper

    def _observe_validate(self, args, kwargs, report, classified):
        complex = args[0] if args else kwargs["complex"]
        first = id(complex) not in self._seen
        self._seen[id(complex)] = complex
        self.validations.append(
            (len(complex), classified, len(report.contacts), first)
        )

    def _observe_refine(self, args, kwargs, refined, classified):
        self.refined_bricks += len(refined)
