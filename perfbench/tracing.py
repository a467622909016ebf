"""Span wrappers installed from outside the program, for the traced run.

Each span wraps one jetcalc function (or `Polynomial` method).  A wrapper is
installed on the defining module and on every jetcalc module that bound the
same function with ``from ... import``, so calls through either name fire.
Self time is the span's duration minus the time of the spans nested in it.

`Polynomial.__mul__`/`__add__` are deliberately not wrapped: they run
millions of times, so a wrapper would mostly measure itself.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# span name -> (module, attribute path in that module)
SPANS = {
    "polyring.substitute": ("polyring", "Polynomial.substitute"),
    "polyring.pow": ("polyring", "Polynomial.__pow__"),
    "jets.check_reparam_invariance": ("jets", "check_reparam_invariance"),
    "jets.check_unipotent_invariance": ("jets", "check_unipotent_invariance"),
    "groebner.buchberger": ("groebner", "buchberger"),
    "groebner.relations_ideal": ("groebner", "relations_ideal"),
    "groebner.subalgebra_membership": ("groebner", "subalgebra_membership"),
    "groebner.jacobian_rank_certificate": ("groebner", "jacobian_rank_certificate"),
    "invgen.run_generation": ("invgen", "run_generation"),
    "invgen.extract_remainder": ("invgen", "extract_remainder"),
    "invgen.verify_syzygies": ("invgen", "verify_syzygies"),
    "invgen.invariant_space_dimension": ("invgen", "invariant_space_dimension"),
    "invgen.state_normal_form_monomials": ("invgen", "state_normal_form_monomials"),
    "catalog.build_catalog": ("catalog", "build_catalog"),
    "catalog.integrity_check": ("catalog", "integrity_check"),
    "schur.enumerate_families": ("schur", "enumerate_families"),
    "euler.family_contribution": ("euler", "family_contribution"),
    "euler.chi_e43_leading": ("euler", "chi_e43_leading"),
    "euler.h2_majorant_coefficient": ("euler", "h2_majorant_coefficient"),
    "euler.assemble_chi": ("euler", "assemble_chi"),
    "euler.positivity_threshold": ("euler", "positivity_threshold"),
    "cli.main": ("cli", "main"),
}

# spans that also run during set-up, reported for that phase as well
SETUP_SPANS = ("catalog.build_catalog", "schur.enumerate_families")

LAYERS = ("polyring", "jets", "groebner", "invgen", "catalog", "schur", "euler", "cli")

COUNTERS = ("polyring.substitute.max_out_terms", "groebner.budget_steps",
            "invgen.run_generation.loops", "invgen.verify_syzygies.items")


def _max_out_terms(tracer, args, kwargs, result):
    key = "polyring.substitute.max_out_terms"
    tracer.counters[key] = max(tracer.counters[key], len(result))


def _generation_counts(tracer, args, kwargs, result):
    tracer.counters["invgen.run_generation.loops"] += result.loop_count
    budget = kwargs.get("budget")
    if budget is not None:
        # the public step count of the caller's budget (Budget.used)
        tracer.counters["groebner.budget_steps"] += budget.used


def _syzygy_items(tracer, args, kwargs, result):
    tracer.counters["invgen.verify_syzygies.items"] += len(result)


AFTER = {
    "polyring.substitute": _max_out_terms,
    "invgen.run_generation": _generation_counts,
    "invgen.verify_syzygies": _syzygy_items,
}


class Tracer:
    """Self time and call count per span, plus counters, kept in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._open: List[float] = []  # per open span: time of its child spans
        self.reset()

    def reset(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, int] = {name: 0 for name in COUNTERS}

    def wrap(self, name: str, fn: Callable, after: Optional[Callable]) -> Callable:
        clock = self._clock
        open_spans = self._open

        def span(*args, **kwargs):
            start = clock()
            open_spans.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                nested = open_spans.pop()
                elapsed = clock() - start
                self.self_s[name] += elapsed - nested
                self.calls[name] += 1
                if open_spans:
                    open_spans[-1] += elapsed
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return span

    def install(self) -> Dict[str, int]:
        """Wrap every span; returns the number of bindings replaced per span."""
        loaded = [m for n, m in list(sys.modules.items())
                  if (n == "jetcalc" or n.startswith("jetcalc.")) and m is not None]
        bound = {}
        for name, (mod_name, path) in SPANS.items():
            owner = sys.modules[f"jetcalc.{mod_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, AFTER.get(name))
            count = 0
            if outer:  # a method: the class attribute is the only binding
                setattr(owner, attr, wrapper)
                count = 1
            else:
                for mod in loaded:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            count += 1
            bound[name] = count
        return bound
