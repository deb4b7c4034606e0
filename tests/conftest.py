import json
import os
from fractions import Fraction

import pytest
from hypothesis import settings

from unisecant.exactalg import (HomogeneousForm, ProjectivePoint, mat3_adjugate, mat3_transpose,
                                 mat3_vec)
from unisecant.cubic import kubert_z6_curve, tate_normal_cubic

# Property tests must be reproducible run to run.  HYPOTHESIS_PROFILE=ci
# runs five times the default number of examples of every property test,
# so no test pins its own max_examples.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.register_profile("ci", derandomize=True, deadline=None,
                          max_examples=5 * settings.default.max_examples)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "deterministic"))

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def count_calls(monkeypatch, name: str, *modules) -> list:
    """Record the arguments of every call made to ``name`` through ``modules``."""
    calls = []
    for module in modules:
        original = getattr(module, name)

        def counting(*args, _original=original, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


def moved_point(m, coords) -> ProjectivePoint:
    """Where ``substitute(f, m)`` carries a point of f: the q with m^T q ~ coords.

    A projective point ignores a nonzero scalar, so the adjugate of m^T
    (det m times its inverse) stands in for the inverse; m must be
    invertible.
    """
    return ProjectivePoint(*mat3_vec(mat3_adjugate(mat3_transpose(m)), coords))


def tate_torsion_curves() -> dict:
    """Tate normal curves whose marked point P = (0, 0) has order 6, 7, 8, 10 and 12.

    Kubert's parametrizations at t = 2, keyed by the order; the tests that
    use them certify the orders.
    """
    t = Fraction(2)
    m = (3 * t - 3 * t * t - 1) / (t - 1)
    f, d = m / (1 - t), m + t
    d10 = t * t / (t - (t - 1) ** 2)
    return {6: kubert_z6_curve(1),
            7: tate_normal_cubic(t**3 - t**2, t**2 - t),
            8: tate_normal_cubic((2 * t - 1) * (t - 1), (2 * t - 1) * (t - 1) / t),
            10: tate_normal_cubic((t * d10 - t) * d10, t * d10 - t),
            12: tate_normal_cubic((f * d - f) * d, f * d - f)}


def load_form(name: str) -> HomogeneousForm:
    with open(fixture_path(name)) as fh:
        return HomogeneousForm.from_json_dict(json.load(fh)["form"])


@pytest.fixture
def fermat():
    return load_form("fermat.json")


@pytest.fixture
def nodal_cubic():
    return load_form("nodal_cubic.json")


@pytest.fixture
def cuspidal_cubic():
    return load_form("cuspidal_cubic.json")


@pytest.fixture
def tricuspidal_quartic():
    return load_form("tricuspidal_quartic.json")
