"""Spans around calls into the program's public names, installed from
outside the program and kept in memory until the run ends.

Each target is a name that a module of the program defines. The tracer
replaces it in every loaded ``dyafact`` module that binds the same object
(``plan_truncation`` is bound in ``dyadic``, ``specfun`` and ``cli``), and
puts the original back on ``uninstall``. A target the program no longer
defines is skipped, so a run still completes when a helper is removed;
only the metric built from it goes missing.
"""

from __future__ import annotations

import importlib
import sys
import time

# Evaluators: their spans record the arguments and the executed plan.
EVALUATORS = (
    ("dyafact.specfun", "ei_stokes"),
    ("dyafact.specfun", "ei_left"),
    ("dyafact.specfun", "psi_dyadic"),
    ("dyafact.specfun", "erfc_dyadic"),
    ("dyafact.specfun", "incomplete_gamma_dyadic"),
    ("dyafact.borel", "airy_from_h"),
    ("dyafact.borel", "bessel_k_dyadic"),
)
# specfun evaluators that take the executed plan back: re-running one with
# its plan times the level assembly alone (span "specfun.assemble").
RERUN_WITH_PLAN = {"ei_stokes", "ei_left", "psi_dyadic", "incomplete_gamma_dyadic"}

LAYER_TARGETS = (
    ("dyafact.dyadic", "plan_truncation"),
    ("dyafact.borel", "_h_plan"),
    ("dyafact.borel", "_h_assemble"),
    ("dyafact.borel", "BorelKernel.build"),
    ("dyafact.borel", "CoefficientTable.build"),
    ("dyafact.borel", "get_table"),
    ("dyafact.cli", "cmd_eval"),
    ("dyafact.cli", "_write_rows"),
    ("dyafact.operators", "HermitianOperator.from_matrix"),
    ("dyafact.operators", "HermitianOperator.apply_scalar"),
    ("dyafact.scalar", "polylog"),
    ("dyafact.dyadic", "dyadic_reciprocal_partial"),
    ("dyafact.dyadic", "ramified_partial"),
)

ORACLE_MODULE = "dyafact.oracle"


def _jsonable(v):
    if isinstance(v, bool) or v is None:
        return v
    if isinstance(v, (int, float)):
        return float(v)
    if isinstance(v, complex):
        return [v.real, v.imag]
    try:
        z = complex(v)
    except (TypeError, ValueError):
        return str(type(v).__name__)
    return [z.real, z.imag]


class Tracer:
    """Records spans [name, start, end, parent, extra] with times in
    seconds since the tracer was made."""

    def __init__(self):
        self.epoch = time.perf_counter()
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []   # (owner, attribute, original raw value)
        self.active = False

    # -- spans --------------------------------------------------------------

    def begin(self, name: str, extra=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter() - self.epoch, None, parent, extra])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter() - self.epoch
        self._stack.pop()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn, evaluator: bool, rerun: bool):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            extra = {"args": [_jsonable(a) for a in args]} if evaluator else None
            idx = tracer.begin(name, extra)
            try:
                result = fn(*args, **kwargs)
                plan = getattr(result, "plan", None)
                if evaluator and plan is not None:
                    extra.update(K=plan.K, terms=plan.terms_total, est=float(result.error_estimate))
                if rerun and plan is not None and "plan" not in kwargs:
                    j = tracer.begin("specfun.assemble")
                    tracer.active = False
                    try:
                        fn(*args, plan=plan, **kwargs)
                    finally:
                        tracer.active = True
                        tracer.end(j)
                return result
            finally:
                tracer.end(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, module_name: str, qualname: str, evaluator: bool = False) -> bool:
        module = sys.modules.get(module_name) or importlib.import_module(module_name)
        *owner_path, attr = qualname.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        if owner is module:
            raw = module.__dict__.get(attr)
            if raw is None:
                return False
            wrapper = self._wrap(f"{module_name.split('.')[-1]}.{qualname}", raw, evaluator,
                                 evaluator and attr in RERUN_WITH_PLAN)
            # every program module that binds the same function object
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("dyafact") and mod.__dict__.get(attr) is raw:
                    self._patches.append((mod, attr, raw))
                    setattr(mod, attr, wrapper)
            return True
        raw = owner.__dict__.get(attr)
        if raw is None:
            return False
        fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
        wrapper = self._wrap(f"{module_name.split('.')[-1]}.{qualname}", fn, False, False)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, type(raw)(wrapper) if isinstance(raw, (staticmethod, classmethod)) else wrapper)
        return True

    def install(self) -> list:
        """Wrap every target the program still defines; returns the
        wrapped names."""
        done = []
        for mod, name in EVALUATORS:
            if self._patch(mod, name, evaluator=True):
                done.append(f"{mod}.{name}")
        for mod, name in LAYER_TARGETS:
            if self._patch(mod, name):
                done.append(f"{mod}.{name}")
        oracle = importlib.import_module(ORACLE_MODULE)
        for name in getattr(oracle, "__all__", ()):
            obj = oracle.__dict__.get(name)
            if callable(obj) and not isinstance(obj, type) and self._patch(ORACLE_MODULE, name):
                done.append(f"{ORACLE_MODULE}.{name}")
        self.active = True
        return done

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def export(self) -> list:
        return [list(s) for s in self.spans]
