import json
import os

import pytest
from hypothesis import settings

from unisecant.exactalg import (HomogeneousForm, ProjectivePoint, mat3_adjugate, mat3_transpose,
                                 mat3_vec)

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
