"""Per-layer spans recorded from outside the package.

``Tracer.install()`` replaces each public function listed in ``TARGETS`` by
a wrapper in every namespace that binds it (a name imported into
``singular`` and ``cubic`` is patched there too; a method is patched on its
class; the two sympy entry points are patched on the ``sympy`` module, which
is how the package calls them).  A wrapper records one span: target, parent
span, start, end, operation id and whether the call raised.  Spans stay in
memory until ``write()``; ``uninstall()`` restores every original.

Self time is a span's duration minus the part of it covered by its child
spans; ``total_ms`` counts a function once even when it recurses.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from fractions import Fraction

# Layer (module) -> traced public functions, as the package names them.
LAYERS = {
    "exactalg.rationals": ["bareiss_det_int", "det_fractions", "nullspace"],
    "exactalg.unipoly": ["interpolate", "resultant", "poly_gcd", "squarefree_part",
                         "yun_decomposition", "factor_over_q"],
    "exactalg.bipoly": ["resultant_y"],
    "exactalg.forms": ["HomogeneousForm.substitute"],
    "exactalg.elim": ["plane_intersection", "macaulay_resultant_quadrics",
                      "ternary_discriminant", "forms_share_component",
                      "form_factorization", "rational_singular_points"],
    "sympy": ["factor_list", "gcd"],
    "cubic": ["flexes", "weierstrass_at_flex", "normalized_curve_with_point"],
    "singular": ["bezout_check", "local_intersection", "multiplicity_sequence",
                 "geometric_genus"],
    "pencils": ["contact_system", "pencil_discriminant", "singular_member_report",
                "classify_singular_member", "nonflex_fiber_accounting",
                "unisecant_count_k3"],
    "cli": ["main", "load_curve_file"],
    "torsion": ["level_census", "primitive_contact_count"],
    "kontsevich": ["nk_table"],
}

TARGETS = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]

# Which statistics are reported for which targets (the per-layer metric budget).
_TIMED = [t for t in TARGETS if not t.startswith(("torsion.", "kontsevich."))]
FAILED = ["exactalg.elim.macaulay_resultant_quadrics", "exactalg.elim.ternary_discriminant",
          "exactalg.elim.plane_intersection", "exactalg.elim.rational_singular_points",
          "singular.local_intersection", "singular.bezout_check"]

# Work counts and attempt ratios measured at the span boundaries.
WORK = {
    "exactalg.unipoly.interpolate.nodes": "count",
    "exactalg.bipoly.resultant_y.max_coeff_bits": "bits",
    "exactalg.elim.plane_intersection.resultants_per_call": "ratio",
    "exactalg.elim.ternary_discriminant.macaulay_per_call": "ratio",
    "singular.local_intersection.resultants_per_call": "ratio",
}
# (child, parent) pairs behind the per-call ratios.
_PER_CALL = {
    "exactalg.elim.plane_intersection.resultants_per_call":
        ("exactalg.bipoly.resultant_y", "exactalg.elim.plane_intersection"),
    "exactalg.elim.ternary_discriminant.macaulay_per_call":
        ("exactalg.elim.macaulay_resultant_quadrics", "exactalg.elim.ternary_discriminant"),
    "singular.local_intersection.resultants_per_call":
        ("exactalg.bipoly.resultant_y", "singular.local_intersection"),
}

RUN_METRICS = {
    "import.sympy_ms": ("ms", "lower"),
    "import.unisecant_ms": ("ms", "lower"),
    "trace.untraced_ops_per_s": ("1/s", "higher"),
    "trace.traced_ops_per_s": ("1/s", "higher"),
    "trace.overhead": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
}

# Spans each workload must fire; together they cover every target.
FIRES = {
    "bezout_pairs": [
        "singular.bezout_check", "singular.local_intersection",
        "exactalg.elim.plane_intersection", "exactalg.elim.forms_share_component",
        "exactalg.bipoly.resultant_y", "exactalg.unipoly.interpolate",
        "exactalg.unipoly.resultant", "exactalg.rationals.bareiss_det_int",
        "exactalg.unipoly.poly_gcd", "exactalg.unipoly.squarefree_part",
        "exactalg.unipoly.factor_over_q", "exactalg.forms.HomogeneousForm.substitute",
        "sympy.gcd", "sympy.factor_list"],
    "order9_pencils": [
        "pencils.nonflex_fiber_accounting", "pencils.contact_system",
        "pencils.pencil_discriminant", "pencils.singular_member_report",
        "pencils.classify_singular_member", "cubic.normalized_curve_with_point",
        "cubic.flexes", "cubic.weierstrass_at_flex", "exactalg.elim.ternary_discriminant",
        "exactalg.elim.macaulay_resultant_quadrics", "exactalg.rationals.det_fractions",
        "exactalg.rationals.nullspace", "exactalg.unipoly.yun_decomposition",
        "exactalg.unipoly.interpolate"],
    "singular_curves": [
        "singular.geometric_genus", "singular.multiplicity_sequence",
        "exactalg.elim.rational_singular_points", "exactalg.elim.form_factorization",
        "exactalg.bipoly.resultant_y", "exactalg.unipoly.interpolate",
        "exactalg.unipoly.poly_gcd", "exactalg.unipoly.factor_over_q",
        "exactalg.forms.HomogeneousForm.substitute", "sympy.factor_list"],
    # all 13 subcommands run in every round
    "cli_cold": [t for t in TARGETS
                 if t not in ("singular.bezout_check", "pencils.nonflex_fiber_accounting")],
}


def metric_names() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better)."""
    out: dict[str, tuple[str, str]] = {}
    for t in TARGETS:  # torsion and kontsevich call no traced function: self = total
        out[f"{t}.calls"] = ("count", "lower")
        out[f"{t}.total_ms"] = ("ms", "lower")
        if t in _TIMED:
            out[f"{t}.self_ms"] = ("ms", "lower")
        if t in FAILED:
            out[f"{t}.failed"] = ("count", "lower")
    for name, unit in WORK.items():
        out[name] = (unit, "lower")
    out.update(RUN_METRICS)
    return out


def _resolve(target: str):
    """(owner object, attribute) of a target in its defining module."""
    layer, _, fn = target.rpartition(".")
    if layer.endswith(".HomogeneousForm"):
        module = importlib.import_module("unisecant." + layer.rpartition(".")[0])
        return module.HomogeneousForm, fn
    if layer == "sympy":
        return importlib.import_module("sympy"), fn
    return importlib.import_module("unisecant." + layer), fn


class Tracer:
    """Span recorder for one workload process (single-threaded)."""

    def __init__(self):
        self.names = list(TARGETS)
        self.spans: list = []   # [name index, parent, start ns, end ns, op, failed, info]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op = None          # current operation id; None records nothing

    def _wrap(self, fn, index: int, target: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        nodes = target == "exactalg.unipoly.interpolate"
        keep = target == "exactalg.bipoly.resultant_y"
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            sid = len(spans)
            span = [index, stack[-1] if stack else -1, 0, 0, tracer.op, False,
                    len(args[0]) if nodes else None]
            spans.append(span)
            stack.append(sid)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if keep:
                span[6] = result
            return result

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Patch every binding of every target; raise if a target is missing."""
        import unisecant.cli  # noqa: F401  (loads every module that binds a target)

        for index, target in enumerate(self.names):
            owner, attr = _resolve(target)
            original = getattr(owner, attr)
            wrapper = self._wrap(original, index, target)
            holders = [owner] + [m for name, m in list(sys.modules.items())
                                 if m is not None and name.startswith("unisecant")
                                 and m is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        """All spans as JSON lines: name, parent, start_ns, end_ns, op, failed."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (i, parent, t0, t1, op, failed, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": self.names[i], "parent": parent,
                                     "start_ns": t0, "end_ns": t1, "op": op,
                                     "failed": failed}) + "\n")

    def fired(self) -> set[str]:
        return {self.names[s[0]] for s in self.spans}

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans (targets and work counts)."""
        return layer_metrics(self.names, self.spans)


def self_times(spans) -> list[int]:
    """Self time (ns) of each span: duration minus the union of its children."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s[1] >= 0:
            children.setdefault(s[1], []).append((s[2], s[3]))
    out = []
    for sid, s in enumerate(spans):
        start, end = s[2], s[3]
        covered = 0
        cursor = start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out.append(end - start - covered)
    return out


def layer_metrics(names: list[str], spans) -> dict[str, float]:
    stats = {n: {"calls": 0, "total": 0, "self": 0, "failed": 0} for n in names}
    selfs = self_times(spans)
    for sid, s in enumerate(spans):
        st = stats[names[s[0]]]
        st["calls"] += 1
        st["self"] += selfs[sid]
        st["failed"] += s[5]
        parent = s[1]
        while parent >= 0 and spans[parent][0] != s[0]:
            parent = spans[parent][1]
        if parent < 0:  # outermost call of this function
            st["total"] += s[3] - s[2]
    out: dict[str, float] = {}
    for n in names:
        st = stats[n]
        out[f"{n}.calls"] = st["calls"]
        out[f"{n}.total_ms"] = st["total"] / 1e6
        out[f"{n}.self_ms"] = st["self"] / 1e6
        out[f"{n}.failed"] = st["failed"]

    index = {n: i for i, n in enumerate(names)}
    interp, res_y = index["exactalg.unipoly.interpolate"], index["exactalg.bipoly.resultant_y"]
    out["exactalg.unipoly.interpolate.nodes"] = sum(s[6] for s in spans if s[0] == interp)
    bits = 0
    for s in spans:
        if s[0] == res_y and s[6] is not None:
            for c in s[6].coeffs:
                c = Fraction(c)
                bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    out["exactalg.bipoly.resultant_y.max_coeff_bits"] = bits
    for metric, (child, parent) in _PER_CALL.items():
        ci, pi = index[child], index[parent]
        calls = sum(1 for s in spans if s[0] == pi)
        nested = sum(1 for s in spans if s[0] == ci and s[1] >= 0 and spans[s[1]][0] == pi)
        out[metric] = nested / calls if calls else 0.0
    return out
