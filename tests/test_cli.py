"""CLI surface: JSON shapes, exit codes, determinism, fixture verification."""

import json
import os
import subprocess
import sys

import pytest

import unisecant
import unisecant.cubic as cubic_mod
import unisecant.exactalg.elim as elim_mod
import unisecant.singular as singular_mod
from unisecant.cli import (MAX_COEFF_BITS, MAX_CURVE_DEGREE, load_curve_file, load_family_file,
                           main)
from unisecant.cubic import kubert_z6_curve
from unisecant.exactalg import mat3
from conftest import count_calls, fixture_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestNk:
    def test_table_shape(self, capsys):
        code, out, _ = run_cli(capsys, "nk", "--max", "4")
        assert code == 0
        assert json.loads(out) == {
            "entries": [["1", "1"], ["2", "1"], ["3", "12"], ["4", "620"]]}

    def test_byte_identical_reruns(self, capsys):
        code1, first, _ = run_cli(capsys, "nk", "--max", "6")
        code2, second, _ = run_cli(capsys, "nk", "--max", "6")
        assert code1 == code2 == 0
        assert first == second

    def test_writes_no_files(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run_cli(capsys, "nk", "--max", "5")
        assert code == 0
        assert os.listdir(tmp_path) == []

    def test_max_above_bound_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "nk", "--max", "201")
        assert code == 1 and out == "" and "200" in err


class TestTorsion:
    def test_census(self, capsys):
        code, out, _ = run_cli(capsys, "torsion", "--k", "2")
        assert code == 0
        assert json.loads(out) == {
            "k": "2", "total": "36", "by_level": {"1": "9", "2": "27"}}

    def test_enumerate_length(self, capsys):
        code, out, _ = run_cli(capsys, "torsion", "--k", "2", "--enumerate")
        assert len(json.loads(out)["classes"]) == 36


class TestColdStart:
    # Run in a fresh interpreter: the counts print what the README shows,
    # and the bounds their fractions, without loading the exact-algebra
    # layer or sympy.
    SCRIPT = ("import json, sys\n"
              "from unisecant.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "loaded = [m for m in sys.modules\n"
              "          if m.split('.')[0] == 'sympy' or m.startswith('unisecant.exactalg')]\n"
              "print(json.dumps(loaded), file=sys.stderr)\n"
              "sys.exit(code)\n")

    @pytest.mark.parametrize("argv, expected", [
        (["nk", "--max", "4"], {"entries": [["1", "1"], ["2", "1"], ["3", "12"], ["4", "620"]]}),
        (["torsion", "--k", "2"], {"k": "2", "total": "36", "by_level": {"1": "9", "2": "27"}}),
        (["torsion", "--k", "3"], {"k": "3", "total": "81", "by_level": {"1": "9", "3": "72"}}),
        (["bounds", "--deg-c", "4", "--deg-a", "3", "--certificate", "9,2,9"],
         {"contact_bound": "5/2", "ambient_bound": "-7/2", "certificate": {
             "a_sq": "9", "sum_mu": "2", "a_dot_c": "9", "inequality_holds": False}}),
    ], ids=["nk", "torsion-2", "torsion-3", "bounds"])
    def test_counts_start_without_sympy(self, capsys, argv, expected):
        src = os.path.dirname(os.path.dirname(os.path.abspath(unisecant.__file__)))
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, *argv], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stderr) == []
        assert json.loads(proc.stdout) == expected
        assert proc.stdout == run_cli(capsys, *argv)[1]


class TestCurveCommands:
    def test_flexes_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "flexes", "--cubic", fixture_path("fermat.json"))
        _, second, _ = run_cli(capsys, "flexes", "--cubic", fixture_path("fermat.json"))
        assert first == second

    def test_flexes(self, capsys):
        code, out, _ = run_cli(capsys, "flexes", "--cubic", fixture_path("fermat.json"))
        assert code == 0
        data = json.loads(out)
        assert data["count_with_multiplicity"] == "9"
        assert data["eliminant_squarefree"] is True
        assert ["1", "-1", "0"] in data["rational_flexes"]

    def test_jinv(self, capsys):
        code, out, _ = run_cli(capsys, "jinv", "--cubic",
                               fixture_path("weier_a-4_b0.json"))
        assert code == 0
        data = json.loads(out)
        assert data["alpha"] == "-4" and data["j"] == "1728"

    def test_genus(self, capsys):
        code, out, _ = run_cli(capsys, "genus", "--curve",
                               fixture_path("tricuspidal_quartic.json"))
        data = json.loads(out)
        assert data["genus"] == "0" and data["delta"] == "3"
        assert len(data["profiles"]) == 3

    def test_resolve(self, capsys):
        code, out, _ = run_cli(capsys, "resolve", "--curve",
                               fixture_path("nodal_cubic.json"), "--point", "0,0,1")
        data = json.loads(out)
        assert data["multiplicities"] == ["2"] and data["delta"] == "1"

    def test_intersect_local(self, capsys):
        code, out, _ = run_cli(
            capsys, "intersect", "--f", fixture_path("nodal_cubic.json"),
            "--g", fixture_path("cuspidal_cubic.json"), "--point", "0,0,1")
        assert code == 0
        assert int(json.loads(out)["multiplicity"]) >= 1

    def test_intersect_bezout_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "intersect", "--f", fixture_path("nodal_cubic.json"),
            "--g", fixture_path("cuspidal_cubic.json"))
        assert code == 0
        assert json.loads(out) == {
            "product": "9", "rational_sum": "9", "irrational_mass": "0",
            "fibers_fully_rational": "1", "fibers_total": "1", "ok": True}

    def test_unisecant_totals(self, capsys):
        code, out, _ = run_cli(capsys, "unisecant", "--cubic",
                               fixture_path("fermat.json"), "--k", "3")
        assert code == 0
        assert json.loads(out)["total"] == "297"
        code, out, _ = run_cli(capsys, "unisecant", "--cubic",
                               fixture_path("weier_a-4_b0.json"), "--k", "3")
        assert json.loads(out)["total"] == "306"

    def test_pencil_disc_z9(self, capsys):
        code, out, _ = run_cli(capsys, "pencil-disc", "--cubic",
                               fixture_path("z9_d2.json"), "--point", "1,0,0")
        assert code == 0
        data = json.loads(out)
        assert data["multiplicities"] == ["9", "1", "1", "1"]

    def test_conic(self, capsys):
        code, out, _ = run_cli(capsys, "conic", "--cubic",
                               fixture_path("z6_c1.json"), "--point", "1,0,0")
        assert json.loads(out)["kind"] == "irreducible-conic"

    def test_bounds_with_certificate(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--deg-c", "3", "--deg-a", "5",
                               "--certificate", "9,2,9")
        data = json.loads(out)
        assert data["contact_bound"] == "1"
        assert data["certificate"]["inequality_holds"] is False

    def test_check_family(self, capsys):
        code, out, _ = run_cli(capsys, "check-family", "--family",
                               fixture_path("family_translated_node.json"),
                               "--t0", "0")
        assert code == 0
        assert json.loads(out)["derivative_meets_weak_type"] is True


class TestVerificationAndErrors:
    def test_claims_verified_on_load(self, capsys):
        code, out, _ = run_cli(capsys, "flexes", "--cubic", fixture_path("z9_d2.json"))
        assert code == 0  # the order-9 claim re-verified silently

    def test_false_claim_aborts(self, capsys, tmp_path):
        with open(fixture_path("z9_d2.json")) as fh:
            data = json.load(fh)
        data["torsion_points"][0]["order"] = "7"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "flexes", "--cubic", os.fspath(bad))
        assert code == 1 and "order" in err

    def _moved_z6_file(self, tmp_path, order: str) -> str:
        # (1 : 1 : 0) is the order-6 point of the Kubert curve after the
        # coordinate change; its orders at the three rational flexes are 2, 6, 6.
        form, _ = kubert_z6_curve(1)
        moved = form.substitute(mat3([[1, -1, -1], [0, 1, 1], [-1, 0, 1]]))
        path = tmp_path / f"z6_moved_{order}.json"
        path.write_text(json.dumps({
            "form": moved.to_json_dict(),
            "torsion_points": [{"point": ["1", "1", "0"], "order": order}]}))
        return os.fspath(path)

    def test_torsion_claim_at_any_rational_flex(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "flexes", "--cubic", self._moved_z6_file(tmp_path, "6"))
        assert code == 0, err

    def test_false_torsion_claim_on_moved_curve_aborts(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "flexes", "--cubic",
                                 self._moved_z6_file(tmp_path, "5"))
        assert code == 1 and out == ""
        assert "recomputed 2, >5, >5" in err

    @pytest.mark.parametrize("command", ["flexes", "jinv"])
    def test_flex_data_from_load_is_reused(self, capsys, monkeypatch, command):
        # The torsion claim makes the loader intersect the curve with its
        # Hessian; the command must reuse that intersection.
        calls = count_calls(monkeypatch, "plane_intersection", cubic_mod)
        code, _, err = run_cli(capsys, command, "--cubic", fixture_path("z9_d2.json"))
        assert code == 0, err
        assert len(calls) == 1

    @pytest.mark.parametrize("fixture", ["fermat.json", "z9_d2.json"])
    def test_handlers_resolve_geometry_at_call_time(self, capsys, monkeypatch, fixture):
        # A patched cubic.flexes is the one called, from the handler (no
        # claims) or from the loader (a torsion claim): a tracer that wraps
        # module attributes sees every call.
        calls = count_calls(monkeypatch, "flexes", cubic_mod)
        code, _, err = run_cli(capsys, "flexes", "--cubic", fixture_path(fixture))
        assert code == 0, err
        assert len(calls) == 1

    def test_jinv_decides_smoothness_once(self, capsys, monkeypatch):
        # Smoothness is tested once, by the loader's flexes; the
        # normalizations read it off the normal form.
        calls = count_calls(monkeypatch, "ternary_discriminant", elim_mod)
        code, _, err = run_cli(capsys, "jinv", "--cubic", fixture_path("z9_d2.json"))
        assert code == 0, err
        assert len(calls) == 1

    def test_genus_factors_and_resolves_once(self, capsys, monkeypatch):
        # The command prints the profile that geometric_genus was computed from.
        factorizations = count_calls(monkeypatch, "form_factorization", elim_mod, singular_mod)
        searches = count_calls(monkeypatch, "rational_singular_points", singular_mod)
        code, _, err = run_cli(capsys, "genus", "--curve",
                               fixture_path("tricuspidal_quartic.json"))
        assert code == 0, err
        assert len(factorizations) == 1 and len(searches) == 1

    def test_pencil_disc_singular_cubic_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "pencil-disc", "--cubic",
                                 fixture_path("nodal_cubic.json"), "--point", "0,1,0")
        assert code == 1 and out == ""
        assert "smooth cubic" in err

    @pytest.mark.parametrize("claims", [
        {"torsion_points": [{"order": "9"}]},
        {"torsion_points": [{"point": ["1", "0", "0"], "order": "nine"}]},
        {"flexes": [5]},
        {"torsion_points": 5},
        {"torsion_points": [{"point": ["1", "0", "0"], "order": "-3"}]},
        {"flexes": [["0", "0", "0"]]},
        {"form": {"degree": 3, "coeffs": [[2, 2, 0, "1"]]}},
    ], ids=["missing-point", "order-not-a-number", "flex-not-a-list",
            "claims-not-a-list", "negative-order", "flex-at-origin",
            "exponents-off-degree"])
    def test_malformed_claims_exit_2(self, capsys, tmp_path, claims):
        with open(fixture_path("z9_d2.json")) as fh:
            data = json.load(fh)
        data.pop("torsion_points")
        data.update(claims)
        bad = tmp_path / "bad_claims.json"
        bad.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "flexes", "--cubic", os.fspath(bad))
        assert code == 2 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("form, bound", [
        ({"degree": MAX_CURVE_DEGREE + 1, "coeffs": [[MAX_CURVE_DEGREE + 1, 0, 0, "1"]]},
         "MAX_CURVE_DEGREE"),
        ({"degree": 1, "coeffs": [[1, 0, 0, str(2**MAX_COEFF_BITS)]]}, "MAX_COEFF_BITS"),
        ({"degree": 1, "coeffs": [[1, 0, 0, f"1/{2**MAX_COEFF_BITS}"]]}, "MAX_COEFF_BITS"),
    ], ids=["degree", "numerator", "denominator"])
    def test_curve_above_size_bound_exit_2(self, capsys, tmp_path, form, bound):
        at_bound = tmp_path / "at_bound.json"
        at_bound.write_text(json.dumps({"form": {
            "degree": MAX_CURVE_DEGREE,
            "coeffs": [[MAX_CURVE_DEGREE, 0, 0, f"{2**MAX_COEFF_BITS - 1}/{2**MAX_COEFF_BITS - 2}"]]}}))
        assert load_curve_file(os.fspath(at_bound))[0].degree == MAX_CURVE_DEGREE
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"form": form}))
        code, out, err = run_cli(capsys, "genus", "--curve", os.fspath(big))
        assert code == 2 and out == ""
        assert bound in err

    @pytest.mark.parametrize("family, bound", [
        ({"degree": MAX_CURVE_DEGREE + 1, "coeffs": [[MAX_CURVE_DEGREE + 1, 0, 0, ["1"]]]},
         "MAX_CURVE_DEGREE"),
        ({"degree": 1, "coeffs": [[1, 0, 0, ["1", str(2**MAX_COEFF_BITS)]]]}, "MAX_COEFF_BITS"),
        ({"degree": 1, "coeffs": [[1, 0, 0, ["1", f"1/{2**MAX_COEFF_BITS}"]]]}, "MAX_COEFF_BITS"),
    ], ids=["degree", "numerator", "denominator"])
    def test_family_above_size_bound_exit_2(self, capsys, tmp_path, family, bound):
        top = f"{2**MAX_COEFF_BITS - 1}/{2**MAX_COEFF_BITS - 2}"
        at_bound = tmp_path / "at_bound.json"
        at_bound.write_text(json.dumps({
            "degree": MAX_CURVE_DEGREE, "coeffs": [[MAX_CURVE_DEGREE, 0, 0, ["1", top]]]}))
        assert load_family_file(os.fspath(at_bound)).degree == MAX_CURVE_DEGREE
        big = tmp_path / "big.json"
        big.write_text(json.dumps(family))
        code, out, err = run_cli(capsys, "check-family", "--family", os.fspath(big), "--t0", "0")
        assert code == 2 and out == ""
        assert bound in err

    # The same faults as the form serialization's, which also exit 2.
    @pytest.mark.parametrize("family", [
        {"degree": 3, "coeffs": [[2, 2, 0, ["1"]], [3, 0, 0, ["0", "1"]]]},
        {"degree": -1, "coeffs": []},
        {"degree": 3, "coeffs": [[4, -1, 0, ["1"]], [3, 0, 0, ["0", "1"]]]},
    ], ids=["exponents-off-degree", "negative-degree", "negative-exponent"])
    def test_malformed_family_exit_2(self, capsys, tmp_path, family):
        bad = tmp_path / "bad_family.json"
        bad.write_text(json.dumps(family))
        code, out, err = run_cli(capsys, "check-family", "--family", os.fspath(bad), "--t0", "0")
        assert code == 2 and out == ""
        assert err.startswith("error: malformed family file")

    # A curve X0 X2^2 - 4 X1^3 + X0^3, then 2 X0^3, and a family t X0^3, then
    # 5 X0^3: keeping the last value would change the curve or drop t.
    @pytest.mark.parametrize("argv, content", [
        (["jinv", "--cubic"], {"form": {"degree": 3, "coeffs": [
            [1, 0, 2, "1"], [0, 3, 0, "-4"], [3, 0, 0, "1"], [3, 0, 0, "2"]]}}),
        (["check-family", "--t0", "0", "--family"], {"degree": 3, "coeffs": [
            [0, 2, 1, ["1"]], [3, 0, 0, ["0", "1"]], [3, 0, 0, ["5"]]]}),
    ], ids=["curve", "family"])
    def test_monomial_listed_twice_exit_2(self, capsys, tmp_path, argv, content):
        twice = tmp_path / "twice.json"
        twice.write_text(json.dumps(content))
        code, out, err = run_cli(capsys, *argv, os.fspath(twice))
        assert code == 2 and out == ""
        assert "monomial [3, 0, 0] is listed twice" in err

    def test_torsion_claim_above_mazur_bound_exit_1(self, tmp_path):
        # (1 : 1 : 2), the point (1, 2) of y^2 = 4x^3 - 4x + 4, has infinite
        # order: walking the group law to a claimed 10^9 would never end.  A
        # fresh interpreter with a timeout, so a walk fails instead of hanging.
        curve = tmp_path / "mazur.json"
        curve.write_text(json.dumps({
            "form": {"degree": 3, "coeffs": [[1, 0, 2, "1"], [0, 3, 0, "-4"],
                                             [2, 1, 0, "4"], [3, 0, 0, "-4"]]},
            "torsion_points": [{"point": ["1", "1", "2"], "order": str(10**9)}]}))
        src = os.path.dirname(os.path.dirname(os.path.abspath(unisecant.__file__)))
        proc = subprocess.run([sys.executable, "-m", "unisecant.cli", "flexes", "--cubic",
                               os.fspath(curve)], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=30)
        assert proc.returncode == 1 and proc.stdout == ""
        assert "Mazur" in proc.stderr

    def test_point_at_origin_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "resolve", "--curve",
                                 fixture_path("nodal_cubic.json"), "--point", "0,0,0")
        assert code == 2 and out == ""
        assert err.startswith("error:")

    def test_malformed_file_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, _ = run_cli(capsys, "genus", "--curve", os.fspath(bad))
        assert code == 2

    def test_unknown_subcommand_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_domain_error_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "unisecant", "--cubic",
                             fixture_path("nodal_cubic.json"), "--k", "3")
        assert code == 1

    def test_selftest(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--seed", "7", "--rounds", "8")
        assert code == 0
        assert json.loads(out)["ok"] is True

    @pytest.mark.parametrize("rounds", ["0", "-1", "10001"])
    def test_selftest_rounds_out_of_range_exit_2(self, capsys, rounds):
        # With no rounds no check runs, so a vacuous "ok" must not be printed.
        code, out, err = run_cli(capsys, "selftest", "--rounds", rounds)
        assert code == 2 and out == ""
        assert "1..10000" in err

    # y^2 z = x^3 + t z^3: a cusp at t = 0 that smooths out for t != 0.
    SMOOTHING_CUSP = {"degree": 3, "coeffs": [[0, 2, 1, ["1"]], [3, 0, 0, ["-1"]],
                                              [0, 0, 3, ["0", "-1"]]]}

    @pytest.mark.parametrize("samples", ["0", "-1", "13"])
    def test_check_family_samples_out_of_range_exit_2(self, capsys, tmp_path, samples):
        # With no samples equisingularity goes untested, and a verdict on the
        # derivative must not be printed.
        fam = tmp_path / "cusp.json"
        fam.write_text(json.dumps(self.SMOOTHING_CUSP))
        code, out, err = run_cli(capsys, "check-family", "--family", os.fspath(fam),
                                 "--t0", "0", "--samples", samples)
        assert code == 2 and out == ""
        assert "1..12" in err

    def test_check_family_one_sample_refuses_a_smoothing_cusp(self, capsys, tmp_path):
        fam = tmp_path / "cusp.json"
        fam.write_text(json.dumps(self.SMOOTHING_CUSP))
        code, out, err = run_cli(capsys, "check-family", "--family", os.fspath(fam),
                                 "--t0", "0", "--samples", "1")
        assert code == 1 and out == ""
        assert "not equisingular" in err

    @pytest.mark.parametrize("certificate", ["1,2,x", "1,2", "1,2,3,4", "1.5,2,3"])
    def test_bounds_malformed_certificate_exit_2(self, capsys, certificate):
        code, out, err = run_cli(capsys, "bounds", "--deg-c", "3", "--deg-a", "2",
                                 "--certificate", certificate)
        assert code == 2 and out == ""
        assert err == "error: --certificate expects A_SQ,SUM_MU,A_DOT_C\n"
