"""Command-line frontend with bit-exact JSON output.

Every number in the output is a decimal string (or "num/den" for non
integers) so downstream consumers never lose width; dictionaries are
emitted in fixed construction order, so identical inputs give byte
identical output.  Exit codes: 0 success, 1 domain errors (including
fixture claims that fail re-verification), 2 malformed input or usage.

Curve files carry a form plus optional metadata claims:

    {
      "name": "z9-d2",
      "form": {"degree": 3, "coeffs": [[a, b, c, "num/den"], ...]},
      "flexes": [["0", "0", "1"], ...],
      "torsion_points": [{"point": ["1", "0", "0"], "order": "9"}]
    }

Claims are re-verified on load (a flex must actually be a flex, a torsion
order is recomputed by scalar multiplication with some rational flex as the
origin); any failure aborts the run.

A handler imports the geometry it uses when its subcommand is dispatched,
so ``nk``, ``torsion`` and ``bounds`` start without ``exactalg`` and sympy.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import DomainError, InputError, UnisecantError
from .kontsevich import nk_table
from .torsion import (ambient_genus_bound, contact_count, enumerate_contact_classes,
                      finiteness_certificate, genus_bound, level_census)

if TYPE_CHECKING:
    from .exactalg import HomogeneousForm, IntersectionData, ProjectivePoint
    from .singular import CurveFamily

# Bound on ``selftest --rounds``: below 1 no check would run.
MAX_SELFTEST_ROUNDS = 10_000
# Bounds on curve files, from ``unisec genus`` times on random curves (see
# the README): the cost grows steeply with both the degree and the size of
# the integer coefficients.
MAX_CURVE_DEGREE = 12
MAX_COEFF_BITS = 64


# ---------------------------------------------------------------------------
# Input parsing
# ---------------------------------------------------------------------------

def _parse_point(text: str) -> ProjectivePoint:
    from .exactalg import ProjectivePoint, rational_from_string

    parts = text.split(",")
    if len(parts) != 3:
        raise InputError("point must be written as x,y,z")
    try:
        return ProjectivePoint(*[rational_from_string(p) for p in parts])
    except DomainError as exc:
        raise InputError(str(exc)) from exc


def _check_size(kind: str, path: str, degree: int, integers) -> None:
    """Refuse a curve or family file above MAX_CURVE_DEGREE or MAX_COEFF_BITS."""
    if degree > MAX_CURVE_DEGREE:
        raise InputError(f"{kind} file {path} has degree {degree}, "
                         f"above MAX_CURVE_DEGREE = {MAX_CURVE_DEGREE}")
    if any(abs(v).bit_length() > MAX_COEFF_BITS for v in integers):
        raise InputError(f"{kind} file {path} has a coefficient numerator or common "
                         f"denominator above MAX_COEFF_BITS = {MAX_COEFF_BITS} bits")


def load_curve_file(path: str) -> tuple[HomogeneousForm, IntersectionData | None]:
    """Read a curve file and re-verify every metadata claim it makes.

    Returns the form and, when the file makes a torsion claim, the flex
    data (``flexes``) computed to check it, else None.
    """
    from .cubic import first_rational_flex, flexes, is_flex, normalized_curve_with_point, point_order
    from .exactalg import HomogeneousForm, ProjectivePoint

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: JSON syntax, or an int above 4,300 digits
        raise InputError(f"cannot read curve file {path}: {exc}") from exc
    if not isinstance(data, dict) or "form" not in data:
        raise InputError(f"curve file {path} lacks a form")
    form = HomogeneousForm.from_json_dict(data["form"])
    _check_size("curve", path, form.degree, (form.den, *form.num.values()))
    try:
        flex_claims = [ProjectivePoint.from_json_list(c) for c in data.get("flexes", [])]
        torsion_claims = [(ProjectivePoint.from_json_list(c["point"]), int(str(c["order"]), 10))
                          for c in data.get("torsion_points", [])]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed claim in curve file {path}: {exc!r}") from exc
    if any(order < 1 for _, order in torsion_claims):
        raise InputError(f"curve file {path} claims a torsion order below 1")
    if any(order > 12 for _, order in torsion_claims):
        raise DomainError(f"curve file {path} claims a torsion order above 12: by Mazur's "
                          "theorem a rational torsion point over Q has order at most 12")
    for p in flex_claims:
        if not is_flex(form, p):
            raise DomainError(f"curve file claims {p} is a flex, but it is not")
    if not torsion_claims:
        return form, None
    flex_data = flexes(form)
    first_rational_flex(flex_data)  # an order is measured from a rational flex
    for p, order in torsion_claims:
        found = []
        for flex in flex_data.points:
            found.append(point_order(*normalized_curve_with_point(form, p, flex), order))
            if found[-1] == order:
                break
        else:
            orders = ", ".join(f">{order}" if n is None else str(n) for n in found)
            raise DomainError(
                f"curve file claims order {order} at {p}, recomputed {orders} "
                "at the rational flexes")
    return form, flex_data


def load_family_file(path: str) -> CurveFamily:
    from .exactalg import UnivariatePoly, rational_from_string
    from .singular import CurveFamily

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        degree = int(data["degree"])
        coeffs = {}
        for a, b, c, poly in data["coeffs"]:
            key = (int(a), int(b), int(c))
            if key in coeffs:
                raise ValueError(f"monomial {list(key)} is listed twice")
            coeffs[key] = UnivariatePoly([rational_from_string(str(s)) for s in poly])
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"cannot read family file {path}: {exc}") from exc
    _check_size("family", path, degree, (v for p in coeffs.values() for v in (p.den, *p.num)))
    try:
        return CurveFamily(degree, coeffs)
    except DomainError as exc:
        raise InputError(f"malformed family file {path}: {exc}") from exc


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_nk(args) -> int:
    table = nk_table(args.max)
    _emit({"entries": [[str(k), str(v)] for k, v in table.entries]})
    return 0


def _cmd_torsion(args) -> int:
    census = level_census(args.k)
    out = {
        "k": str(args.k),
        "total": str(contact_count(args.k)),
        "by_level": {str(d): str(n) for d, n in census.items()},
    }
    if args.enumerate:
        out["classes"] = [[str(c.n), str(c.m), str(lvl)]
                          for c, lvl in enumerate_contact_classes(args.k)]
    _emit(out)
    return 0


def _cmd_flexes(args) -> int:
    from .cubic import flexes

    form, flex_data = load_curve_file(args.cubic)
    data = flex_data or flexes(form)
    _emit({
        "count_with_multiplicity": str(data.eliminant.degree),
        "eliminant_squarefree": data.eliminant_squarefree,
        "rational_flexes": [p.to_json_list() for p in data.points],
    })
    return 0


def _cmd_jinv(args) -> int:
    from .cubic import first_rational_flex, flexes, j_invariant, weierstrass_at_flex
    from .exactalg import rational_to_string

    form, flex_data = load_curve_file(args.cubic)
    if args.flex:
        flex = _parse_point(args.flex)
    else:
        flex = first_rational_flex(flex_data or flexes(form))
    w = weierstrass_at_flex(form, flex)
    out = w.to_json_dict()
    out["j"] = rational_to_string(j_invariant(w))
    _emit(out)
    return 0


def _cmd_genus(args) -> int:
    from .singular import genus_profile, geometric_genus

    form, _ = load_curve_file(args.curve)
    profile = genus_profile(form, assume_irreducible=args.assume_irreducible)
    _emit({
        "degree": str(form.degree),
        "genus": str(geometric_genus(profile)),
        "delta": str(profile.delta_total()),
        "profiles": [p.to_json_dict() for p in profile.points],
    })
    return 0


def _cmd_resolve(args) -> int:
    from .singular import multiplicity_sequence

    form, _ = load_curve_file(args.curve)
    point = _parse_point(args.point)
    pr = multiplicity_sequence(form, point)
    _emit(pr.to_json_dict())
    return 0


def _cmd_intersect(args) -> int:
    from .singular import bezout_check, local_intersection

    f, _ = load_curve_file(args.f)
    g, _ = load_curve_file(args.g)
    if args.point:
        p = _parse_point(args.point)
        _emit({
            "point": p.to_json_list(),
            "multiplicity": str(local_intersection(f, g, p)),
        })
    else:
        rep = bezout_check(f, g)
        _emit({
            "product": str(rep.product),
            "rational_sum": str(rep.rational_sum),
            "irrational_mass": str(rep.irrational_mass),
            "fibers_fully_rational": str(rep.fibers_fully_rational),
            "fibers_total": str(rep.fibers_total),
            "ok": rep.ok,
        })
    return 0


def _cmd_pencil_disc(args) -> int:
    from .cubic import is_smooth_cubic
    from .pencils import contact_system, pencil_at, singular_member_report

    form, _ = load_curve_file(args.cubic)
    point = _parse_point(args.point)
    if not is_smooth_cubic(form):
        raise DomainError("contact systems are defined against a smooth cubic")
    system = contact_system(form, point, 3)
    if not system.is_contact_point():
        raise DomainError(f"{point} is not a maximal-contact point at k = 3")
    pencil = pencil_at(system)
    report = singular_member_report(pencil)
    _emit({
        "binary": [str(c) for c in report.discriminant.binary],
        "multiplicities": [str(m) for m in report.multiplicity_multiset()],
        "records": [r.to_json_dict() for r in report.records],
    })
    return 0


def _cmd_unisecant(args) -> int:
    from .pencils import unisecant_count_k3

    if args.k != 3:
        raise DomainError("unisecant counting is exact only for k = 3")
    form, _ = load_curve_file(args.cubic)
    _emit(unisecant_count_k3(form).to_json_dict())
    return 0


def _cmd_bounds(args) -> int:
    out = {  # str(Fraction) is "n" or "n/d" in lowest terms, as rational_to_string
        "contact_bound": str(genus_bound(args.deg_c, args.deg_a)),
        "ambient_bound": str(ambient_genus_bound(args.deg_a)),
    }
    if args.certificate:
        try:  # a wrong number of parts or a non-integer part
            a_sq, sum_mu, a_dot_c = (int(x) for x in args.certificate.split(","))
        except ValueError as exc:
            raise InputError("--certificate expects A_SQ,SUM_MU,A_DOT_C") from exc
        out["certificate"] = {
            "a_sq": str(a_sq),
            "sum_mu": str(sum_mu),
            "a_dot_c": str(a_dot_c),
            "inequality_holds": finiteness_certificate(a_sq, sum_mu, a_dot_c),
        }
    _emit(out)
    return 0


def _cmd_check_family(args) -> int:
    from .exactalg import rational_from_string, rational_to_string
    from .singular import family_derivative_check

    fam = load_family_file(args.family)
    t0 = rational_from_string(args.t0)
    ok = family_derivative_check(fam, t0, samples=args.samples)
    _emit({
        "t0": rational_to_string(Fraction(t0)),
        "samples": str(args.samples),
        "derivative_meets_weak_type": ok,
    })
    return 0


def _cmd_conic(args) -> int:
    from .pencils import contact_conic_check

    form, _ = load_curve_file(args.cubic)
    point = _parse_point(args.point)
    _emit({"kind": contact_conic_check(form, point)})
    return 0


def _cmd_selftest(args) -> int:
    from .cubic import ec_add, ec_scalar_mul, weierstrass_at_flex, weierstrass_normal_form
    from .exactalg import (HomogeneousForm, ProjectivePoint, UnivariatePoly, euler_combination,
                           mat3, mat3_det, mat3_identity, mat3_mul, resultant)

    if not 1 <= args.rounds <= MAX_SELFTEST_ROUNDS:
        raise InputError(f"--rounds must be in 1..{MAX_SELFTEST_ROUNDS}, got {args.rounds}")
    rng = random.Random(args.seed)
    checks: dict[str, bool] = {}

    def rand_poly(max_deg=5):
        return UnivariatePoly([Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                               for _ in range(rng.randint(1, max_deg + 1))])

    ok = True
    for _ in range(args.rounds):
        f, g = rand_poly(), rand_poly()
        if f.is_zero() or g.is_zero():
            continue
        sign = -1 if (f.degree * g.degree) % 2 else 1
        if resultant(f, g) != sign * resultant(g, f):
            ok = False
    checks["resultant_antisymmetry"] = ok

    def rand_form(d):
        coeffs = {}
        for a in range(d + 1):
            for b in range(d - a + 1):
                if rng.random() < 0.75:
                    coeffs[(a, b, d - a - b)] = rng.randint(-4, 4)
        return HomogeneousForm(d, coeffs)

    def rand_mat():
        while True:
            m = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            if mat3_det(mat3(m)) != 0:
                return mat3(m)

    ok = True
    for _ in range(args.rounds):
        f = rand_form(rng.randint(1, 4))
        if f.is_zero():
            continue
        if euler_combination(f) != f.scale(f.degree):
            ok = False
        if f.substitute(mat3_identity()) != f:
            ok = False
        m, n = rand_mat(), rand_mat()
        if f.substitute(mat3_mul(m, n)) != f.substitute(n).substitute(m):
            ok = False
    checks["euler_and_substitution_action"] = ok

    w = weierstrass_at_flex(weierstrass_normal_form(-4, 4),
                            ProjectivePoint(0, 0, 1))
    base = ProjectivePoint(1, 1, 2)
    pts = [ec_scalar_mul(w, n, base) for n in range(-3, 4)]
    ok = True
    for _ in range(args.rounds):
        a, b, c = rng.choice(pts), rng.choice(pts), rng.choice(pts)
        if ec_add(w, ec_add(w, a, b), c) != ec_add(w, a, ec_add(w, b, c)):
            ok = False
    checks["ec_associativity"] = ok

    _emit({"seed": str(args.seed), "rounds": str(args.rounds),
           "checks": checks, "ok": all(checks.values())})
    return 0 if all(checks.values()) else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unisec",
        description="Exact enumerative geometry of rational curves meeting a plane cubic.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nk", help="table of rational plane curve counts N_k")
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(func=_cmd_nk)

    p = sub.add_parser("torsion", help="contact-class census at level k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--enumerate", action="store_true")
    p.set_defaults(func=_cmd_torsion)

    p = sub.add_parser("flexes", help="flex count and rational flexes of a cubic")
    p.add_argument("--cubic", required=True)
    p.set_defaults(func=_cmd_flexes)

    p = sub.add_parser("jinv", help="Weierstrass data and j-invariant")
    p.add_argument("--cubic", required=True)
    p.add_argument("--flex", default=None, help="flex as x,y,z (default: first rational flex)")
    p.set_defaults(func=_cmd_jinv)

    p = sub.add_parser("genus", help="geometric genus via singularity resolution")
    p.add_argument("--curve", required=True)
    p.add_argument("--assume-irreducible", action="store_true")
    p.set_defaults(func=_cmd_genus)

    p = sub.add_parser("resolve", help="multiplicity tree at a point")
    p.add_argument("--curve", required=True)
    p.add_argument("--point", required=True, help="x,y,z")
    p.set_defaults(func=_cmd_resolve)

    p = sub.add_parser("intersect", help="local intersection number or Bezout report")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--point", default=None, help="x,y,z for a local number")
    p.set_defaults(func=_cmd_intersect)

    p = sub.add_parser("pencil-disc", help="pencil discriminant report at a contact point")
    p.add_argument("--cubic", required=True)
    p.add_argument("--point", required=True, help="x,y,z")
    p.set_defaults(func=_cmd_pencil_disc)

    p = sub.add_parser("unisecant", help="count of rational unisecant cubics")
    p.add_argument("--cubic", required=True)
    p.add_argument("--k", type=int, default=3)
    p.set_defaults(func=_cmd_unisecant)

    p = sub.add_parser("conic", help="contact conic kind at a 6-contact point")
    p.add_argument("--cubic", required=True)
    p.add_argument("--point", required=True, help="x,y,z")
    p.set_defaults(func=_cmd_conic)

    p = sub.add_parser("bounds", help="genus bounds and finiteness certificate")
    p.add_argument("--deg-c", type=int, required=True)
    p.add_argument("--deg-a", type=int, required=True)
    p.add_argument("--certificate", default=None, help="A_SQ,SUM_MU,A_DOT_C")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("check-family", help="equisingular family derivative test")
    p.add_argument("--family", required=True)
    p.add_argument("--t0", required=True)
    p.add_argument("--samples", type=int, default=5)
    p.set_defaults(func=_cmd_check_family)

    p = sub.add_parser("selftest", help="randomized property-test corpus")
    p.add_argument("--seed", type=int, default=20240101)
    p.add_argument("--rounds", type=int, default=25)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage to stderr; normalize the code.
        return 2 if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, UnisecantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
