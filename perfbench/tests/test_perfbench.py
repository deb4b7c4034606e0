"""Tests of the benchmark itself (not of the package it measures).

Run from the checkout root:  PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import os
import random
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

import geometry as geo  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402


# -- seeded inputs -------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_same_inputs_digest(name):
    w = wl.WORKLOADS[name]
    a = stats.digest_of(wl.make_rounds(w, 7, 2))
    b = stats.digest_of(wl.make_rounds(w, 7, 2))
    c = stats.digest_of(wl.make_rounds(w, 8, 2))
    assert a == b
    assert a != c


def test_rounds_are_fresh():
    w = wl.WORKLOADS["bezout_pairs"]
    first, second = wl.make_rounds(w, 3, 2)
    assert len(first) == len(second) == 39
    assert stats.digest_of(first) != stats.digest_of(second)


def test_moved_point_stays_on_moved_curve():
    rng = random.Random(5)
    form = geo.general_weierstrass(*geo.kubert_z9(2))
    for _ in range(10):
        m = geo.unimodular(rng)
        assert abs(geo.det3(m)) == 1
        moved = geo.substitute(form, m)
        assert geo.evaluate(moved, geo.move_point(m, (1, 0, 0))) == 0
        assert geo.evaluate(moved, geo.move_point(m, (0, 0, 1))) == 0


def test_tangent_pairs_meet_at_their_point():
    rng = random.Random(11)
    for low, high in wl.BezoutPairs.TANGENT_DEGREES:
        a, b, p = wl.BezoutPairs._tangent_pair(rng, low, high)
        assert geo.degree(a) == low and geo.degree(b) == high
        assert geo.evaluate(a, p) == geo.evaluate(b, p) == 0


# -- rounds of a run -----------------------------------------------------------

@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_round_count_depends_only_on_seconds(name):
    w = wl.WORKLOADS[name]
    assert worker.rounds_for(w, 20) == worker.rounds_for(w, 20.0)
    assert worker.rounds_for(w, 0) == worker.MIN_ROUNDS
    assert worker.rounds_for(w, 10 * w.round_s) == 10
    # enough operations for a tail percentile with 10 beyond it
    n = worker.MIN_ROUNDS * len(wl.make_rounds(w, 1, 1)[0])
    assert stats.tail([float(i) for i in range(n)])[2] == stats.TAIL_BEYOND


def test_round_zero_is_the_reference_round():
    w = wl.WORKLOADS["order9_pencils"]
    a = worker.run_inputs(w, 1, 3)
    b = worker.run_inputs(w, 2, 3)
    assert len(a) == 3
    assert stats.digest_of(a[:1]) == stats.digest_of(b[:1])
    assert stats.digest_of(a[1:]) == stats.digest_of(wl.make_rounds(w, 1, 2))


# -- the tail rule -------------------------------------------------------------

def test_tail_has_ten_samples_beyond():
    value, pct, beyond = stats.tail([float(i) for i in range(1, 101)])
    assert (value, pct, beyond) == (90.0, 90.0, 10)
    value, pct, beyond = stats.tail([float(i) for i in range(11, 0, -1)])
    assert (value, beyond) == (1.0, 10)
    assert pct == pytest.approx(100 / 11)


def test_tail_is_the_highest_qualifying_percentile():
    rng = random.Random(2)
    for n in (11, 12, 37, 250):
        xs = [rng.random() for _ in range(n)]
        value, pct, beyond = stats.tail(xs)
        assert sum(1 for x in xs if x > value) == 10 == beyond
        # one rank higher would leave only 9 beyond
        assert sum(1 for x in xs if x > sorted(xs)[n - 10]) == 9


def test_tail_with_too_few_samples_is_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


# -- spans and self time -------------------------------------------------------

def _span(name, parent, start, end, failed=False):
    return [name, parent, start, end, 1, failed, None]


def test_self_time_subtracts_children():
    spans = [_span(0, -1, 0, 100), _span(1, 0, 10, 40), _span(2, 1, 15, 25),
             _span(1, 0, 50, 70)]
    assert tracing.self_times(spans) == [50, 20, 10, 20]


def test_self_time_never_counts_overlap_twice():
    spans = [_span(0, -1, 0, 100), _span(1, 0, 10, 60), _span(1, 0, 40, 80)]
    assert tracing.self_times(spans)[0] == 30


def test_layer_metrics_on_a_synthetic_tree():
    names = list(tracing.TARGETS)
    i = names.index
    pi, ry = i("exactalg.elim.plane_intersection"), i("exactalg.bipoly.resultant_y")
    sub = i("exactalg.forms.HomogeneousForm.substitute")
    spans = [
        _span(pi, -1, 0, 1_000_000),
        _span(sub, 0, 0, 100_000),
        _span(ry, 0, 200_000, 500_000),
        _span(ry, 0, 500_000, 900_000, failed=True),
        _span(pi, -1, 2_000_000, 2_500_000),
        _span(pi, 4, 2_100_000, 2_200_000),  # a recursive call
    ]
    m = tracing.layer_metrics(names, spans)
    assert m["exactalg.elim.plane_intersection.calls"] == 3
    assert m["exactalg.elim.plane_intersection.total_ms"] == pytest.approx(1.5)
    assert m["exactalg.elim.plane_intersection.self_ms"] == pytest.approx(0.2 + 0.4 + 0.1)
    assert m["exactalg.bipoly.resultant_y.failed"] == 1
    assert m["exactalg.bipoly.resultant_y.total_ms"] == pytest.approx(0.7)
    assert m["exactalg.elim.plane_intersection.resultants_per_call"] == pytest.approx(2 / 3)


def test_every_target_fires_on_some_workload():
    fired = set().union(*map(set, tracing.FIRES.values()))
    assert fired == set(tracing.TARGETS)


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert per_layer == tracing.metric_names()
    metrics, _ = stats.end_to_end([0.1] * 12, [0.1] * 12, 1024, [1.0], 12, 0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {n: u for n, (_, u) in metrics.items()}
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_tracer_patches_every_binding_and_restores_it():
    pytest.importorskip("unisecant")
    from unisecant import cubic, singular
    from unisecant.exactalg import HomogeneousForm, elim

    original = elim.plane_intersection
    substitute = HomogeneousForm.substitute
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert singular.plane_intersection is cubic.plane_intersection is elim.plane_intersection
        assert elim.plane_intersection is not original
        tracer.op = 1
        f = HomogeneousForm(2, {(2, 0, 0): 1, (0, 1, 1): -1})
        g = HomogeneousForm(1, {(1, 0, 0): 1, (0, 0, 1): 1})
        singular.bezout_check(f, g)
        tracer.op = None
    finally:
        tracer.uninstall()
    assert elim.plane_intersection is original and singular.plane_intersection is original
    assert HomogeneousForm.substitute is substitute
    fired = tracer.fired()
    assert {"singular.bezout_check", "exactalg.elim.plane_intersection",
            "exactalg.bipoly.resultant_y", "sympy.gcd"} <= fired
    assert all(s[4] == 1 for s in tracer.spans)


# -- correctness gate ----------------------------------------------------------

class _Fake:
    """A workload whose third operation returns a wrong answer."""

    name = "fake"
    deadline_s = 5.0

    def prepare(self, inp):
        return inp

    def run(self, x):
        return x * x if x != 3 else 10

    def check(self, inp, result):
        if isinstance(result, BaseException):
            return False, "error"
        return result == inp * inp, result


def test_wrong_answer_counts_as_failed():
    runner = worker.Runner(_Fake())
    runner.loop([[1, 2, 3]])
    assert (runner.attempted, runner.failed) == (3, 1)
    _, facts = stats.end_to_end(runner.latencies, runner.cpu, 1024, [1.0],
                                runner.attempted, runner.failed)
    assert facts["error_rate"] == pytest.approx(1 / 3)


def test_exception_and_deadline_count_as_failed():
    import signal

    class Slow(_Fake):
        deadline_s = 0.2

        def run(self, x):
            if x == 1:
                raise ValueError("boom")
            if x == 2:
                while True:
                    pass
            return x * x

    previous = signal.signal(signal.SIGALRM, worker._alarm)
    try:
        runner = worker.Runner(Slow())
        runner.loop([[1, 2, 3]])
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert (runner.attempted, runner.failed) == (3, 2)


def test_cli_expectations_reject_wrong_numbers():
    exp = wl.CliCold._torsion(random.Random(1))["expect"]
    k = exp["k"]
    good = {"k": str(k), "total": str(9 * k * k), "by_level": {"1": "9", str(k): str(9 * k * k - 9)}}
    assert wl.CliCold._expected("torsion", exp, good)
    bad = dict(good, total=str(9 * k * k + 1))
    assert not wl.CliCold._expected("torsion", exp, bad)
    uni = wl.CliCold._unisecant(random.Random(4))["expect"]
    assert not wl.CliCold._expected("unisecant", uni, {"j": uni["j"], "total": "305"})


def test_weierstrass_j_values():
    assert geo.weierstrass_j(0, 5) == 0
    assert geo.weierstrass_j(7, 0) == 1728
    assert geo.weierstrass_j(-4, 4) == Fraction(1728 * -64, -64 + 432)
