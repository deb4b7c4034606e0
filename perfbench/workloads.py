"""The four benchmark workloads: seeded inputs, one operation, independent checks.

A workload produces its inputs in *rounds*.  Every round holds the same
input classes in a fixed order, with the seed choosing the concrete curve,
parameter and coordinate change inside each class; the closed loop runs
whole rounds, so every run sees the same mix of classes.
Fresh inputs are drawn for every round, so no two operations of a run repeat.

Each workload defines

* ``round_s``: seconds of one round on the baseline host (2 x86 cores);
  a constant that fixes how many rounds a run has, never re-measured;
* ``make_round(rng)``: the JSON-able inputs of one round;
* ``prepare(inp)``: turns an input into call arguments (untimed);
* ``run(args)``: the one timed operation;
* ``check(inp, result)``: ``(ok, record)``, where ``ok`` compares the result
  with what the construction guarantees and ``record`` is what goes into the
  outputs digest.  ``result`` is the exception when the operation raised.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction

import geometry as geo

REFERENCE_SEED = "reference"


def round_rng(workload: str, seed) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _form_obj(data):
    from unisecant.exactalg import HomogeneousForm

    return HomogeneousForm(data["degree"], geo.form_from_json(data))


def _point_obj(p):
    from unisecant.exactalg import ProjectivePoint

    return ProjectivePoint(*[Fraction(c) for c in p])


def _moved(rng, form, points=()):
    moved, moved_points, _ = geo.move_to_general_position(rng, form, points)
    return moved, moved_points


def _smooth_weierstrass(rng, alpha=None):
    while True:
        a = Fraction(rng.randint(-6, 6)) if alpha is None else Fraction(alpha)
        b = Fraction(rng.randint(-6, 6))
        if a ** 3 + 27 * b * b != 0:
            return a, b


def _kubert(rng, family, height):
    make = geo.kubert_z9 if family == 9 else geo.kubert_z6
    while True:
        t = geo.rational_of_height(rng, height)
        coeffs = make(t)
        if geo.weierstrass_discriminant(*coeffs) != 0:  # excludes the cusps of the family
            return t, coeffs


# ---------------------------------------------------------------------------
# bezout_pairs
# ---------------------------------------------------------------------------

class BezoutPairs:
    """``singular.bezout_check(f, g)`` on random and tangent pairs of plane curves."""

    name = "bezout_pairs"
    deadline_s = 30.0
    round_s = 5.5
    # Low and high degree of the pairs built tangent at a common rational point.
    TANGENT_DEGREES = [(1, 2), (1, 3), (2, 2), (2, 3), (1, 5), (2, 4), (3, 3), (3, 4), (2, 5), (4, 4)]

    # (3, 3) comes five times per round: the median latency then falls inside
    # the (3, 3) cluster instead of between two sparse neighbouring classes.
    RANDOM_DEGREES = [(df, dg) for df in range(1, 6) for dg in range(1, 6)] + [(3, 3)] * 4

    def make_round(self, rng):
        out = []
        for df, dg in self.RANDOM_DEGREES:
            out.append({"kind": "random",
                        "f": geo.form_json(geo.random_form(rng, df)),
                        "g": geo.form_json(geo.random_form(rng, dg))})
        for low, high in self.TANGENT_DEGREES:
            f, g, _ = self._tangent_pair(rng, low, high)
            if rng.random() < 0.5:
                f, g = g, f
            out.append({"kind": "tangent", "f": geo.form_json(f), "g": geo.form_json(g)})
        return out

    @staticmethod
    def _tangent_pair(rng, low, high):
        """(A, B, P): A through P and B = A h + L1 L2 R, so I_P(A, B) = I_P(A, L1 L2 R) >= 2."""
        p = (Fraction(rng.choice((-2, -1, 1, 2))), Fraction(rng.choice((-2, -1, 1, 2))),
             Fraction(1))
        while True:
            a = geo.random_form(rng, low)
            a = geo.add(a, {(0, 0, low): -geo.evaluate(a, p)})
            h = geo.random_form(rng, high - low)
            r = geo.random_form(rng, high - 2)
            b = geo.add(geo.mul(a, h),
                        geo.mul(geo.mul(geo.line_through(rng, p), geo.line_through(rng, p)), r))
            if geo.off_vertices(a) and geo.off_vertices(b):
                return a, b, p

    def prepare(self, inp):
        return _form_obj(inp["f"]), _form_obj(inp["g"])

    def run(self, args):
        from unisecant.singular import bezout_check

        return bezout_check(*args)

    def check(self, inp, result):
        from unisecant.errors import CommonComponentError

        if isinstance(result, CommonComponentError):
            return _sympy_shares_component(inp["f"], inp["g"]), "common-component"
        if isinstance(result, BaseException):
            return False, f"error: {type(result).__name__}"
        product = inp["f"]["degree"] * inp["g"]["degree"]
        ok = (result.ok is True and result.product == product
              and result.rational_sum + result.irrational_mass == product
              and (inp["kind"] != "tangent" or result.rational_sum >= 2))
        return ok, [result.product, result.rational_sum, result.irrational_mass,
                    result.fibers_fully_rational, result.fibers_total, result.ok]


def _sympy_shares_component(f, g) -> bool:
    """Independent confirmation of a shared component: a non-constant sympy gcd."""
    import sympy

    xs = sympy.symbols("X0 X1 X2")

    def poly(data):
        return sympy.Poly.from_dict(
            {(a, b, c): sympy.Rational(s) for a, b, c, s in data["coeffs"]}, *xs, domain="QQ")

    return sympy.gcd(poly(f), poly(g)).total_degree() >= 1


# ---------------------------------------------------------------------------
# order9_pencils
# ---------------------------------------------------------------------------

class Order9Pencils:
    """``pencils.nonflex_fiber_accounting`` at a point of order 9 on a moved Kubert curve."""

    name = "order9_pencils"
    deadline_s = 30.0
    round_s = 3.4
    HEIGHTS = [2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7]

    def make_round(self, rng):
        out = []
        for height in self.HEIGHTS:
            d, coeffs = _kubert(rng, 9, height)
            form, (p,) = _moved(rng, geo.general_weierstrass(*coeffs), [(1, 0, 0)])
            out.append({"d": geo.q_str(d), "form": geo.form_json(form), "point": geo.point_json(p)})
        return out

    def prepare(self, inp):
        return _form_obj(inp["form"]), _point_obj(inp["point"])

    def run(self, args):
        from unisecant.pencils import nonflex_fiber_accounting

        return nonflex_fiber_accounting(*args)

    def check(self, inp, result):
        if isinstance(result, BaseException):
            return False, f"error: {type(result).__name__}"
        ok = (result.multiplicities() == [9, 1, 1, 1]
              and result.multiplicity_at_point == 9
              and result.classification_at_point == "node")
        return ok, [result.multiplicities(), repr(result.singular_at_point),
                    result.classification_at_point, result.rational_members,
                    [str(c) for c in result.report.discriminant.binary]]


# ---------------------------------------------------------------------------
# singular_curves
# ---------------------------------------------------------------------------

class SingularCurves:
    """``singular.geometric_genus(f)`` plus ``SingularityProfile.of_curve(f)`` (``unisec genus``)."""

    name = "singular_curves"
    deadline_s = 60.0
    round_s = 7.0
    # The quartics (about 0.15 s) come twice per round: then 7 cheaper and 6
    # dearer operations surround them, and the median latency falls inside
    # their cluster instead of in the gap between two clusters.
    UNIBRANCH = [(1, 4), (3, 4), (1, 4), (3, 4), (1, 5), (2, 5), (3, 5), (4, 5), (1, 6), (5, 6)]

    def make_round(self, rng):
        cases = []
        for p, d in self.UNIBRANCH:
            cases.append((f"unibranch_{p}_{d}", geo.unibranch(p, d), 0,
                          geo.unibranch_singularities(p, d)))
        cases.append(("nodal_cubic", geo.NODAL_CUBIC, 0, [((0, 0, 1), 1)]))
        cases.append(("cuspidal_cubic", geo.CUSPIDAL_CUBIC, 0, [((0, 0, 1), 1)]))
        for _ in range(2):
            cases.append(("tricuspidal_quartic", geo.TRICUSPIDAL_QUARTIC, 0,
                          [((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1)]))
        cases.append(("fermat", geo.FERMAT, 1, []))
        cases.append(("weierstrass", geo.weierstrass(*_smooth_weierstrass(rng)), 1, []))
        cases.append(("weierstrass_j0", geo.weierstrass(*_smooth_weierstrass(rng, 0)), 1, []))
        cases.append(("kubert_z6", geo.general_weierstrass(*_kubert(rng, 6, 3)[1]), 1, []))
        cases.append(("kubert_z9", geo.general_weierstrass(*_kubert(rng, 9, 3)[1]), 1, []))
        out = []
        for name, form, genus, sings in cases:
            moved, points = _moved(rng, form, [q for q, _ in sings])
            out.append({"curve": name, "form": geo.form_json(moved), "genus": genus,
                        "singular": sorted([geo.point_json(p), delta]
                                           for p, (_, delta) in zip(points, sings))})
        return out

    def prepare(self, inp):
        return _form_obj(inp["form"])

    def run(self, f):
        from unisecant.singular import SingularityProfile, geometric_genus

        return geometric_genus(f), SingularityProfile.of_curve(f)

    def check(self, inp, result):
        if isinstance(result, BaseException):
            return False, f"error: {type(result).__name__}"
        genus, profile = result
        found = sorted([geo.point_json(pr.point.coords), pr.delta()] for pr in profile.points)
        ok = genus == inp["genus"] and found == inp["singular"]
        return ok, [genus, [pr.to_json_dict() for pr in profile.points]]


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

def _curve_file(form, name, flexes=(), torsion=()):
    data = {"name": name, "form": geo.form_json(form)}
    if flexes:
        data["flexes"] = [geo.point_json(p) for p in flexes]
    if torsion:
        data["torsion_points"] = [{"point": geo.point_json(p), "order": str(n)}
                                  for p, n in torsion]
    return data


class CliCold:
    """One cold ``python -m unisecant.cli <subcommand>`` process per operation.

    The 13 subcommands rotate in a fixed order over generated curve files
    whose flex and torsion claims the tool re-verifies on load.  Each child
    runs alone, in an empty working directory of its own, and never gets
    ``--cache``.
    """

    name = "cli_cold"
    deadline_s = 60.0
    round_s = 10.7

    def __init__(self):
        self.workdir = None
        self.pythonpath = None
        self.files = 0

    def make_round(self, rng):
        return [getattr(self, "_" + cmd.replace("-", "_"))(rng) for cmd in (
            "nk", "torsion", "flexes", "jinv", "genus", "resolve", "intersect",
            "pencil-disc", "unisecant", "conic", "bounds", "check-family", "selftest")]

    # -- one generator per subcommand: argv with {file} slots, files, expectations

    @staticmethod
    def _nk(rng):
        k = rng.randint(4, 8)
        return {"argv": ["nk", "--max", str(k)], "files": {},
                "expect": {"entries": [[str(i + 1), str(v)] for i, v in enumerate(geo.NK_KNOWN[:k])]}}

    @staticmethod
    def _torsion(rng):
        k = rng.randint(2, 6)
        return {"argv": ["torsion", "--k", str(k)], "files": {}, "expect": {"k": k}}

    @staticmethod
    def _flexes(rng):
        alpha, beta = _smooth_weierstrass(rng)
        form, flexes = _moved(rng, geo.weierstrass(alpha, beta), [(0, 0, 1)])
        return {"argv": ["flexes", "--cubic", "{cubic}"],
                "files": {"cubic": _curve_file(form, "moved weierstrass", flexes)},
                "expect": {"flexes": [geo.point_json(p) for p in flexes]}}

    @staticmethod
    def _jinv(rng):
        _, coeffs = _kubert(rng, 9, rng.randint(2, 4))
        form, (flex, p) = _moved(rng, geo.general_weierstrass(*coeffs), [(0, 0, 1), (1, 0, 0)])
        return {"argv": ["jinv", "--cubic", "{cubic}"],
                "files": {"cubic": _curve_file(form, "moved kubert z9", [flex], [(p, 9)])},
                "expect": {"j": geo.q_str(geo.tate_j(coeffs))}}

    @staticmethod
    def _unibranch(rng):
        """(p, d) with d in {4, 5}, gcd(p, d) = 1 and d - p >= 2, so (0:1:0) is singular."""
        d = rng.choice((4, 5))
        return rng.choice([q for q in range(1, d - 1) if math.gcd(q, d) == 1]), d

    def _genus(self, rng):
        p, d = self._unibranch(rng)
        form, _ = _moved(rng, geo.unibranch(p, d))
        return {"argv": ["genus", "--curve", "{curve}"],
                "files": {"curve": _curve_file(form, f"moved unibranch {p},{d}")},
                "expect": {"genus": "0", "delta": str((d - 1) * (d - 2) // 2)}}

    def _resolve(self, rng):
        p, d = self._unibranch(rng)
        delta = dict(geo.unibranch_singularities(p, d))[(0, 1, 0)]
        form, (moved_q,) = _moved(rng, geo.unibranch(p, d), [(0, 1, 0)])
        return {"argv": ["resolve", "--curve", "{curve}", "--point", geo.point_arg(moved_q)],
                "files": {"curve": _curve_file(form, f"moved unibranch {p},{d}")},
                "expect": {"point": geo.point_json(moved_q), "delta": str(delta)}}

    def _intersect(self, rng):
        # Germ x2^(d-p) = x0^d at (0:1:0): I = d - p with X0 = 0, I = d with X2 = 0.
        p, d = self._unibranch(rng)
        line, mult = rng.choice([(geo.linear(1, 0, 0), d - p), (geo.linear(0, 0, 1), d)])
        f, (q,), m = geo.move_to_general_position(rng, geo.unibranch(p, d), [(0, 1, 0)])
        return {"argv": ["intersect", "--f", "{f}", "--g", "{g}", "--point", geo.point_arg(q)],
                "files": {"f": _curve_file(f, "curve"),
                          "g": _curve_file(geo.substitute(line, m), "line")},
                "expect": {"multiplicity": str(mult)}}

    @staticmethod
    def _pencil_disc(rng):
        _, coeffs = _kubert(rng, 9, rng.randint(2, 4))
        form, (flex, p) = _moved(rng, geo.general_weierstrass(*coeffs), [(0, 0, 1), (1, 0, 0)])
        return {"argv": ["pencil-disc", "--cubic", "{cubic}", "--point", geo.point_arg(p)],
                "files": {"cubic": _curve_file(form, "moved kubert z9", [flex], [(p, 9)])},
                "expect": {"multiplicities": ["9", "1", "1", "1"]}}

    @staticmethod
    def _unisecant(rng):
        kind = rng.choice(("general", "j0", "fermat"))
        if kind == "fermat":
            form, flexes = _moved(rng, geo.FERMAT, geo.FERMAT_FLEXES)
            j = Fraction(0)
        else:
            alpha, beta = _smooth_weierstrass(rng, 0 if kind == "j0" else None)
            form, flexes = _moved(rng, geo.weierstrass(alpha, beta), [(0, 0, 1)])
            j = geo.weierstrass_j(alpha, beta)
        return {"argv": ["unisecant", "--cubic", "{cubic}"],
                "files": {"cubic": _curve_file(form, f"moved {kind} cubic", flexes)},
                "expect": {"j": geo.q_str(j), "total": "297" if j == 0 else "306"}}

    @staticmethod
    def _conic(rng):
        _, coeffs = _kubert(rng, 6, rng.randint(2, 4))
        form, (flex, p) = _moved(rng, geo.general_weierstrass(*coeffs), [(0, 0, 1), (1, 0, 0)])
        # No torsion claim: the tool measures orders from the first rational flex
        # in coordinate order, and from the flex 4P the point P has order 2, not 6.
        # An order-9 claim (above) holds from every rational flex.
        return {"argv": ["conic", "--cubic", "{cubic}", "--point", geo.point_arg(p)],
                "files": {"cubic": _curve_file(form, "moved kubert z6", [flex])},
                "expect": {"kind": "irreducible-conic"}}

    @staticmethod
    def _bounds(rng):
        deg_a = rng.randint(1, 10)
        cert = [rng.randint(0, 30) for _ in range(3)]
        return {"argv": ["bounds", "--deg-c", "3", "--deg-a", str(deg_a),
                         "--certificate", ",".join(map(str, cert))],
                "files": {},
                "expect": {"contact_bound": "1",
                           "ambient_bound": geo.q_str(1 - Fraction(3 * deg_a, 2)),
                           "inequality_holds": cert[0] >= cert[1] + cert[2]}}

    @staticmethod
    def _check_family(rng):
        name, coeffs = rng.choice((("node", geo.NODE_FAMILY), ("cusp", geo.CUSP_FAMILY)))
        family = {"name": f"translated {name}", "degree": 3,
                  "coeffs": [[a, b, c, [str(x) for x in poly]] for (a, b, c), poly in coeffs.items()]}
        return {"argv": ["check-family", "--family", "{family}", "--t0", str(rng.randint(-2, 2))],
                "files": {"family": family}, "expect": {}}

    @staticmethod
    def _selftest(rng):
        return {"argv": ["selftest", "--seed", str(rng.randint(0, 10 ** 6)), "--rounds", "5"],
                "files": {}, "expect": {}}

    # -- execution

    def prepare(self, inp):
        argv = list(inp["argv"])
        for slot, data in inp["files"].items():
            self.files += 1
            path = os.path.join(self.workdir, "inputs", f"{self.files}_{slot}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            argv = [path if a == "{" + slot + "}" else a for a in argv]
        return argv

    def open(self, root: str, src: str):
        """Create the run's scratch directory inside ``root``."""
        self.workdir = tempfile.mkdtemp(prefix="cli_cold-", dir=root)
        os.makedirs(os.path.join(self.workdir, "inputs"))
        self.pythonpath = src

    def close(self):
        if self.workdir:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None

    def run(self, argv):
        """One cold child in an empty working directory; returns (code, stdout, stderr)."""
        cwd = tempfile.mkdtemp(prefix="op-", dir=self.workdir)
        env = dict(os.environ, PYTHONPATH=self.pythonpath)
        try:
            proc = subprocess.run([sys.executable, "-m", "unisecant.cli", *argv],
                                  cwd=cwd, env=env, capture_output=True, text=True,
                                  timeout=self.deadline_s)
        finally:
            shutil.rmtree(cwd, ignore_errors=True)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, inp, result):
        if isinstance(result, BaseException):
            return False, f"error: {type(result).__name__}"
        code, stdout, stderr = result
        if code != 0:
            return False, f"exit {code}: {stderr.strip()[-200:]}"
        try:
            out = json.loads(stdout)
        except json.JSONDecodeError:
            return False, "unparseable output"
        return self._expected(inp["argv"][0], inp["expect"], out), stdout

    @staticmethod
    def _expected(cmd, exp, out) -> bool:
        if cmd == "nk":
            return out["entries"] == exp["entries"]
        if cmd == "torsion":
            k = exp["k"]
            levels = out["by_level"]
            return (out["total"] == str(9 * k * k)
                    and sum(int(v) for v in levels.values()) == 9 * k * k
                    and all(k % int(lvl) == 0 for lvl in levels) and levels.get("1") == "9")
        if cmd == "flexes":
            return (out["count_with_multiplicity"] == "9" and out["eliminant_squarefree"] is True
                    and all(p in out["rational_flexes"] for p in exp["flexes"]))
        if cmd == "jinv":
            return out["j"] == exp["j"]
        if cmd == "genus":
            return out["genus"] == exp["genus"] and out["delta"] == exp["delta"]
        if cmd == "resolve":
            return out["point"] == exp["point"] and out["delta"] == exp["delta"]
        if cmd == "intersect":
            return out["multiplicity"] == exp["multiplicity"]
        if cmd == "pencil-disc":
            return out["multiplicities"] == exp["multiplicities"]
        if cmd == "unisecant":
            return out["j"] == exp["j"] and out["total"] == exp["total"]
        if cmd == "conic":
            return out["kind"] == exp["kind"]
        if cmd == "bounds":
            return (out["contact_bound"] == exp["contact_bound"]
                    and out["ambient_bound"] == exp["ambient_bound"]
                    and out["certificate"]["inequality_holds"] == exp["inequality_holds"])
        if cmd == "check-family":
            return out["derivative_meets_weak_type"] is True
        if cmd == "selftest":
            return out["ok"] is True
        raise ValueError(f"unknown subcommand {cmd}")


WORKLOADS = {w.name: w for w in (BezoutPairs(), Order9Pencils(), SingularCurves(), CliCold())}


def make_rounds(workload, seed, count: int) -> list[list]:
    rng = round_rng(workload.name, seed)
    return [workload.make_round(rng) for _ in range(count)]
