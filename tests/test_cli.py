from __future__ import annotations

import csv
import io
import json
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from qopuc.cli import main
from qopuc.quaternions import SliceFrame
from conftest import random_frame

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"

DENSITY_FIXTURES = ["lebesgue.json", "bernstein_szego_05.json",
                    "vanishing_density.json", "smooth_trig.json"]


def run(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = main([*argv, "--out", str(out)])
    return code, out.read_bytes()


def load_schema(name):
    ref = resources.files("qopuc") / "schemas" / f"{name}.schema.json"
    return json.loads(ref.read_text())


def validate(name, payload_bytes):
    jsonschema.validate(json.loads(payload_bytes), load_schema(name))


def test_moments_to_verblunsky_fixtures(tmp_path):
    code, out = run(tmp_path, "moments-to-verblunsky",
                    str(FIXDIR / "lebesgue.json"), "--n", "5")
    assert code == 0
    payload = json.loads(out)
    assert all(q == [0, 0, 0, 0] for q in payload["result"]["gammas"])
    validate("moments_to_verblunsky", out)

    code, out = run(tmp_path, "moments-to-verblunsky",
                    str(FIXDIR / "bernstein_szego_05.json"), "--n", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["gammas"][0][0] == 0.5
    assert abs(payload["result"]["route_residual"]) < 1e-8
    validate("moments_to_verblunsky", out)


def test_moments_to_verblunsky_rejects_non_pd(tmp_path):
    bad = tmp_path / "bad.json"
    moments = [[0, [1.0, 0, 0, 0]]] + [[n, [1.0, 0, 0, 0]] for n in range(1, 5)]
    bad.write_text(json.dumps({"moments": moments}))
    code, out = run(tmp_path, "moments-to-verblunsky", str(bad), "--n", "4")
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "NotPositiveDefinite"
    assert err["order"] == 1


def test_moments_to_verblunsky_rejects_short_gamma(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"gammas": [[0.1, 0.2]]}))
    code, out = run(tmp_path, "moments-to-verblunsky", str(bad), "--n", "1")
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ValueError"
    assert "gammas[0]" in err["message"]


def test_nan_density_coefficient_rejected_at_load(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"w1": [[-1, NaN, 0], [0, 1, 0], [1, NaN, 0]]}')
    for command in ("moments-to-verblunsky", "sv"):
        code, out = run(tmp_path, command, str(bad), "--n", "2")
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "ValueError"
        assert "w1[0]" in err["message"]


STANDARD_FRAME = {"i": [0, 1, 0, 0], "j": [0, 0, 1, 0]}
W2_ONLY = {"frame": STANDARD_FRAME, "w2": [[1, 0.1, 0], [-1, -0.1, 0]]}
MIXED = {"frame": STANDARD_FRAME, "w1": [[0, 1, 0]],
         "moments": [[0, [1, 0, 0, 0]], [1, [0.9, 0, 0, 0]]]}
UNNORMALISED = {"frame": STANDARD_FRAME, "w1": [[0, 2, 0]], "w2": []}
EMPTY_MOMENTS = {"moments": []}
FAR_INDEX = {"frame": STANDARD_FRAME,
             "w1": [[0, 1, 0], [10 ** 9, 0.25, 0], [-10 ** 9, 0.25, 0]]}
# +-1e308 terms that cancel on the 2048-point PSD grid (2049 = 1 mod 2048)
OVERFLOW = {"frame": STANDARD_FRAME,
            "w1": [[0, 1, 0], [1, 1e308, 0], [-1, 1e308, 0], [2049, -1e308, 0],
                   [-2049, -1e308, 0]]}
FIXTURE_COMMANDS = (["moments-to-verblunsky", "--n", "1"], ["sv", "--n", "1"],
                    ["grid", "--grid", "7"])


def test_density_fixture_without_frame_rejected_at_load(tmp_path):
    bad = tmp_path / "noframe.json"
    for obj in ({"w1": [[0, 1, 0]]}, {"w2": W2_ONLY["w2"]}):
        bad.write_text(json.dumps(obj))
        for argv in (["grid", "--grid", "4"], ["baxter", "--n", "3"],
                     ["moments-to-verblunsky", "--n", "2"], ["sv", "--n", "1"]):
            code, out = run(tmp_path, argv[0], str(bad), *argv[1:])
            assert code == 2
            err = json.loads(out)["error"]
            assert err["type"] == "ValueError" and err["message"].startswith("frame is missing")


def test_w2_only_fixture_is_a_density(tmp_path):
    # W = [[0, b], [conj b, 0]] with b = 0.2 i sin(theta) is not PSD
    bad = tmp_path / "w2.json"
    bad.write_text(json.dumps(W2_ONLY))
    for argv in FIXTURE_COMMANDS:
        code, out = run(tmp_path, argv[0], str(bad), *argv[1:])
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "ValueError",
            "message": "matrix density not PSD on the grid (min eigenvalue -2.000e-01)"}


def test_unnormalised_density_rejected_by_every_density_command(tmp_path):
    # w = 2: c_0 = 2, which grid once accepted (entropy log 4) while every
    # command that reads moments rejected it
    bad = tmp_path / "unnormalised.json"
    bad.write_text(json.dumps(UNNORMALISED))
    for argv in (["grid", "--grid", "4"], ["sv", "--n", "1"], ["baxter", "--n", "4"],
                 ["moments-to-verblunsky", "--n", "2"], ["zeros", "--n", "2"],
                 ["cd", "--n", "2"], ["orthopolys", "--n", "2"]):
        code, out = run(tmp_path, argv[0], str(bad), *argv[1:])
        assert code == 2, argv
        assert json.loads(out)["error"] == {
            "type": "ValueError", "message": "c_0 must be 1 (probability normalisation)"}


def test_fixture_of_two_kinds_rejected_at_load(tmp_path):
    # m2v would read the moments (gamma_0 = 0.9), sv the Lebesgue density
    bad = tmp_path / "mixed.json"
    bad.write_text(json.dumps(MIXED))
    for argv in FIXTURE_COMMANDS:
        code, out = run(tmp_path, argv[0], str(bad), *argv[1:])
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "ValueError",
            "message": "fixture holds more than one of moments, w1/w2 and gammas "
                       "(found moments, w1)"}


def test_empty_moment_list_needs_c0(tmp_path):
    # the horizon of an empty map was max() of nothing: "max() arg is an
    # empty sequence"
    bad = tmp_path / "empty.json"
    bad.write_text(json.dumps(EMPTY_MOMENTS))
    for argv in (["moments-to-verblunsky", "--n", "1"], ["orthopolys", "--n", "1"],
                 ["cd", "--n", "1"]):
        code, out = run(tmp_path, argv[0], str(bad), *argv[1:])
        assert code == 2
        assert json.loads(out)["error"] == {"type": "ValueError",
                                            "message": "need at least c_0"}


def test_density_index_beyond_int64_rejected_at_load(tmp_path):
    # densities keep their indices as int64, where 2**63 would overflow
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps({"frame": STANDARD_FRAME,
                               "w1": [[0, 1, 0], [2 ** 63, 0.1, 0], [-2 ** 63, 0.1, 0]]}))
    code, out = run(tmp_path, "sv", str(bad), "--n", "2")
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "ValueError",
        "message": f"w1[1] index must be below 2**63 in magnitude, got {2 ** 63}"}


DEEP_JSON = "[" * 100000 + "]" * 100000
HUGE_GAMMA = {"gammas": [[10 ** 400, 0, 0, 0]]}


def test_deeply_nested_json_is_a_typed_error(tmp_path):
    # the parser's RecursionError once escaped main: a traceback and exit 1
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    code, out = run(tmp_path, "moments-to-verblunsky", str(deep), "--n", "2")
    assert code == 2
    assert json.loads(out)["error"] == {"type": "ValueError",
                                        "message": "fixture JSON nests too deeply to parse"}
    code, out = run(tmp_path, "random-gamma", "--n", "2", "--frame", "[" * 100000)
    assert code == 2
    assert json.loads(out)["error"] == {"type": "ValueError",
                                        "message": "--frame JSON nests too deeply to parse"}


@pytest.mark.parametrize("obj, field", [
    (HUGE_GAMMA, "gammas[0]"),
    ({"frame": STANDARD_FRAME, "w1": [[0, 10 ** 400, 0]]}, "w1[0]"),
    ({"frame": STANDARD_FRAME, "w1": [[0, 1, 0], [10 ** 400, 0.1, 0]]}, "w1[1]"),
    ({"frame": {"i": [0, 10 ** 400, 0, 0], "j": [0, 0, 1, 0]}, "w1": [[0, 1, 0]]}, "frame.i"),
    ({"moments": [[0, [1, 0, 0, 0]], [1, [10 ** 400, 0, 0, 0]]]}, "moments[1][1]"),
    (None, "--frame.i"),
], ids=["gamma", "w1-value", "w1-index", "frame", "moment", "frame-flag"])
def test_integer_beyond_float_range_is_a_typed_error(tmp_path, obj, field):
    # math.isfinite raised OverflowError on such an integer: a traceback and
    # exit 1
    if obj is None:
        frame = json.dumps({"i": [0, 10 ** 400, 0, 0], "j": [0, 0, 1, 0]})
        code, out = run(tmp_path, "random-gamma", "--n", "2", "--frame", frame)
    else:
        fixture = tmp_path / "huge.json"
        fixture.write_text(json.dumps(obj))
        code, out = run(tmp_path, "moments-to-verblunsky", str(fixture), "--n", "1")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ValueError"
    assert error["message"].startswith(f"{field} must be a list of ")


@pytest.mark.parametrize("obj, message", [
    ({"gammas": 5}, "gammas must be a list, got 5"),
    ({"frame": 3, "gammas": []}, "frame must be an object with keys i and j"),
    ([], "fixture must be a JSON object"),
    ({"w1": [[0, 1, 0], [1.5, 0.1, 0]]}, "w1[1] index must be an integer, got 1.5"),
    ({"moments": [[0, [1, 0, 0, 0]], [1]]}, "moments[1] must be [index, quaternion], got [1]"),
], ids=["gammas-not-a-list", "frame-not-an-object", "fixture-not-an-object",
        "w1-index-not-an-integer", "moment-entry-short"])
def test_malformed_fixture_is_a_typed_error(tmp_path, obj, message):
    fixture = tmp_path / "bad.json"
    fixture.write_text(json.dumps(obj))
    code, out = run(tmp_path, "moments-to-verblunsky", str(fixture), "--n", "1")
    assert code == 2
    assert json.loads(out)["error"] == {"type": "ValueError", "message": message}


# coefficients whose modulus overflows: |w_1| = 1.7e308 sqrt 2, the
# Hermitian partner 1e200 of c_1 = 0, |gamma_0| = 1e200 and c_0 = 1e200
MODULUS_BEYOND_FLOAT = {"frame": STANDARD_FRAME, "w1": [
    [0, 1, 0], [1, 1.7e308, 1.7e308], [-1, 1.7e308, -1.7e308]]}
W2_BEYOND_FLOAT = {"frame": STANDARD_FRAME, "w1": [[0, 1, 0]], "w2": [
    [1, 1.7e308, 1.7e308], [-1, -1.7e308, -1.7e308]]}
HERMITIAN_OVERFLOW = {"moments": [[0, [1, 0, 0, 0]], [-1, [1e200, 0, 0, 0]]]}
GAMMA_OVERFLOW = {"gammas": [[1e200, 0, 0, 0]]}
C0_OVERFLOW = {"moments": [[0, [1e200, 0, 0, 0]]]}


@pytest.mark.parametrize("obj, argv, error", [
    (MODULUS_BEYOND_FLOAT, ["grid", "--grid", "7"], {
        "type": "ValueError",
        "message": "w1 coefficient at n=1 has a modulus beyond the float range"}),
    (W2_BEYOND_FLOAT, ["sv", "--n", "2"], {
        "type": "ValueError",
        "message": "w2 coefficient at n=1 has a modulus beyond the float range"}),
    *[(HERMITIAN_OVERFLOW, [command, "--n", "1"], {
        "type": "ValueError", "message": "Hermitian symmetry violated at n=-1"})
      for command in ("moments-to-verblunsky", "orthopolys", "zeros")],
    (GAMMA_OVERFLOW, ["verblunsky-to-moments", "--n", "1"], {
        "type": "NotContraction", "message": "gamma_0 has |gamma| >= 1 - 1e-12", "index": 0}),
    (C0_OVERFLOW, ["moments-to-verblunsky", "--n", "1"], {
        "type": "ValueError", "message": "c_0 must be 1 (probability normalisation)"}),
], ids=["w1-modulus", "w2-modulus", "hermitian-m2v", "hermitian-orthopolys",
        "hermitian-zeros", "gamma-norm", "c0-norm"])
def test_overflowing_modulus_is_a_typed_error(tmp_path, obj, argv, error):
    # a density coefficient's abs() raised OverflowError out of main; both
    # sides of the Hermitian check overflowed to inf, so c_{-1} = 1e200 passed
    # against c_1 = 0; the norm checks let numpy's overflow warning escape
    fixture = tmp_path / "overflow.json"
    fixture.write_text(json.dumps(obj))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run(tmp_path, argv[0], str(fixture), *argv[1:])
    assert code == 2
    assert json.loads(out)["error"] == error


def test_unwritable_out_is_a_typed_error(tmp_path, capsys):
    # writing the report, or the error report, to such a path once raised out
    # of main: a traceback and exit 1
    missing = tmp_path / "missing_dir" / "x.json"
    for argv in (["random-gamma", "--n", "2"], ["sv", str(tmp_path / "nofile.json")]):
        assert main([*argv, "--out", str(missing)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "FileNotFoundError" and str(missing) in err["message"]
    assert not missing.parent.exists()


def test_oversized_allocation_is_a_typed_error(tmp_path, monkeypatch):
    # an oversized --n, --grid or --samples once raised numpy's MemoryError
    # out of main; the command is stubbed so that nothing is allocated, and
    # raises a subclass, as numpy does, which is reported as MemoryError
    from qopuc import cli

    message = "Unable to allocate 29.1 TiB for an array with shape (1000000000000,)"

    class ArrayMemoryError(MemoryError):
        pass

    def oversized(args, fix):
        raise ArrayMemoryError(message)

    monkeypatch.setitem(cli._COMMANDS, "grid", oversized)
    code, out = run(tmp_path, "grid", str(FIXDIR / "smooth_trig.json"), "--grid", "1000000000000")
    assert code == 2
    assert json.loads(out)["error"] == {"type": "MemoryError", "message": message}


def test_density_far_index_is_sparse(tmp_path):
    # w1 = 1 + cos(10^9 theta) / 2: moments past c_0 vanish up to 10^9, and
    # 10^9 = 6 mod 7 on the 7-point grid
    fixture = tmp_path / "far.json"
    fixture.write_text(json.dumps(FAR_INDEX))
    code, out = run(tmp_path, "sv", str(fixture), "--n", "4")
    assert code == 0
    assert json.loads(out)["result"]["partial_products"] == [1, 1, 1, 1]
    code, out = run(tmp_path, "grid", str(fixture), "--grid", "7")
    assert code == 0
    w11 = [row["w11_re"] for row in json.loads(out)["result"]["rows"]]
    assert np.max(np.abs(np.array(w11) - (1 + 0.5 * np.cos(2 * np.pi * np.arange(7) / 7)))) < 1e-15


REPEATED_INDEX = {
    "w1": ({"frame": {"i": [0, 1, 0, 0], "j": [0, 0, 1, 0]},
            "w1": [[0, 1, 0], [0, 0.5, 0]]}, "w1[1] repeats index 0"),
    "moments": ({"moments": [[0, [1, 0, 0, 0]], [1, [0.5, 0, 0, 0]], [1, [0.1, 0, 0, 0]]]},
                "moments[2] repeats index 1"),
}


@pytest.mark.parametrize("key", sorted(REPEATED_INDEX))
def test_repeated_index_rejected_at_load(tmp_path, key):
    # a map built from these lists would keep the later entry: gamma_0 = 0.1
    # from the moments, W(0) = 0.9 from the density
    obj, message = REPEATED_INDEX[key]
    bad = tmp_path / "repeat.json"
    bad.write_text(json.dumps(obj))
    for argv in (["moments-to-verblunsky", "--n", "1"], ["grid", "--grid", "4"],
                 ["sv", "--n", "1"]):
        code, out = run(tmp_path, argv[0], str(bad), *argv[1:])
        assert code == 2
        assert json.loads(out)["error"] == {"type": "ValueError", "message": message}


def test_overflowing_density_rejected_as_not_psd(tmp_path):
    # finite coefficients whose grid values overflow: W(theta) holds inf and
    # the smallest grid eigenvalue is NaN, which must fail the PSD check
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"frame": {"i": [0, 1, 0, 0], "j": [0, 0, 1, 0]},
                               "w1": [[0, 1, 0], [1, 1e308, 0], [-1, 1e308, 0]]}))
    for argv in (["grid", "--grid", "4"], ["baxter", "--n", "3"], ["sv", "--n", "3"]):
        with np.errstate(all="ignore"):
            code, out = run(tmp_path, argv[0], str(bad), *argv[1:])
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "ValueError",
            "message": "matrix density not PSD on the grid (min eigenvalue nan)"}


@pytest.mark.parametrize("argv, flag", [
    (["cd", "smooth_trig.json", "--n", "-1"], "--n"),
    (["cd", "smooth_trig.json", "--samples", "0"], "--samples"),
    (["verblunsky-to-moments", "random_gamma_7.json", "--n", "0"], "--n"),
    (["random-gamma", "--n", "-1"], "--n"),
    (["zeros", "lebesgue.json", "--n", "0"], "--n"),
    (["baxter", "lebesgue.json", "--n", "0"], "--n"),
    (["grid", "lebesgue.json", "--grid", "0"], "--grid"),
    # the other range-checked flags: tolerances and --rmax
    (["cd", "smooth_trig.json", "--tol-route", "nan"], "--tol-route"),
    (["zeros", "random_gamma_7.json", "--tol-route", "nan"], "--tol-route"),
    (["moments-to-verblunsky", "smooth_trig.json", "--tol-route", "-1"], "--tol-route"),
    (["zeros", "random_gamma_7.json", "--tol-pd", "nan"], "--tol-pd"),
    (["orthopolys", "smooth_trig.json", "--tol-pd", "-1"], "--tol-pd"),
    (["random-gamma", "--rmax", "nan"], "--rmax"),
    (["random-gamma", "--rmax", "0"], "--rmax"),
    (["random-gamma", "--rmax", "-0.5"], "--rmax"),
    (["random-gamma", "--rmax", "1.5"], "--rmax"),
    # commands without a CSV view
    (["orthopolys", "smooth_trig.json", "--format", "csv"], "--format"),
    (["cd", "smooth_trig.json", "--format", "csv"], "--format"),
    (["random-gamma", "--format", "csv"], "--format"),
    # --seed must be at least 0
    (["cd", "smooth_trig.json", "--seed", "-1"], "--seed"),
    (["random-gamma", "--seed", "-1"], "--seed"),
])
def test_counts_below_one_rejected(tmp_path, argv, flag):
    argv = [str(FIXDIR / a) if a.endswith(".json") else a for a in argv]
    code, out = run(tmp_path, *argv)
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ValueError"
    assert err["message"].startswith(flag + " ")


def test_baxter_runs_route_a_once(tmp_path, monkeypatch):
    from qopuc import polynomials

    calls = []
    original = polynomials.alphas_from_moments

    def counted(C, N):
        calls.append(N)
        return original(C, N)

    monkeypatch.setattr(polynomials, "alphas_from_moments", counted)
    code, out = run(tmp_path, "baxter", str(FIXDIR / "vanishing_density.json"), "--n", "8")
    assert code == 0
    assert calls == [8]
    assert len(json.loads(out)["result"]["gamma_moduli"]) == 8


def _gammas80(tmp_path) -> str:
    """A fixture of 80 seeded rmax-0.8 Verblunsky coefficients."""
    from qopuc.fixtures import random_gamma_seq
    path = tmp_path / "gammas80.json"
    path.write_text(json.dumps({"frame": {"i": [0.0, 1.0, 0.0, 0.0], "j": [0.0, 0.0, 1.0, 0.0]},
                                "gammas": random_gamma_seq(1017, 80, rmax=0.8).to_json()}))
    return str(path)


@pytest.mark.parametrize("argv, contraction_tests", [
    (["baxter", "smooth_trig.json", "--n", "200"], 200),
    (["moments-to-verblunsky", "smooth_trig.json", "--n", "40"], 40),
    (["verblunsky-to-moments", "random_gamma_7.json", "--n", "12"], 12),
    (["random-gamma", "--n", "40"], 0),
    (["verblunsky-to-moments", "gammas80.json", "--n", "20"], 20),
])
def test_sequence_jobs_build_no_quaternion_per_value(tmp_path, monkeypatch, argv,
                                                     contraction_tests):
    # moments and coefficients stay (n, 4) arrays from fixture to report: the
    # only Quaternion objects a job builds are frame generators (their
    # products k = i j included), one fixture frame and the envelope's
    # standard frame; route A and the forward map test the contraction of
    # each coefficient they read, once
    from qopuc import matrix_opuc
    from qopuc.quaternions import Quaternion

    built, norms = [], []
    init, norm = Quaternion.__init__, matrix_opuc.operator_norm2

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    def counting_norm(A):
        norms.append(1)
        return norm(A)

    monkeypatch.setattr(Quaternion, "__init__", counting_init)
    monkeypatch.setattr(matrix_opuc, "operator_norm2", counting_norm)
    argv = [_gammas80(tmp_path) if a == "gammas80.json" else str(FIXDIR / a)
            if a.endswith(".json") else a for a in argv]
    code, _ = run(tmp_path, *argv)
    assert code == 0
    assert len(built) <= 4, built
    assert len(norms) == contraction_tests


@pytest.mark.parametrize("fixture, n, own_builds", [
    ("smooth_trig.json", "8", 1), ("random_gamma_7.json", "6", 0), ("moments.json", "6", 0),
], ids=["density", "gammas", "moments"])
@pytest.mark.parametrize("frame_flag, flag_builds, flag_quaternions", [
    ([], 0, 0),
    (["--frame", "standard"], 0, 1),
    (["--frame", json.dumps({"i": [0.0, 0.0, 1.0, 0.0], "j": [0.0, 0.0, 0.0, 1.0]})], 1, 3),
], ids=["no-frame", "standard", "override"])
def test_one_frame_per_job(tmp_path, monkeypatch, fixture, n, own_builds, frame_flag,
                           flag_builds, flag_quaternions):
    # --frame is parsed once and the fixture's frame built once; under
    # --frame only a density builds its own frame, to read its w1/w2 maps.
    # A frame from JSON builds i, j and k = i j, the standard frame k alone
    # (i and j are module constants), and nothing else builds a Quaternion
    from qopuc import cli
    from qopuc.quaternions import Quaternion, SliceFrame
    from conftest import random_moment_fixture

    (tmp_path / "moments.json").write_text(json.dumps(
        {"frame": STANDARD_FRAME, "moments": random_moment_fixture(7, 6).to_json()}))
    path = str(tmp_path / fixture if fixture == "moments.json" else FIXDIR / fixture)
    frame_builds = flag_builds + (own_builds if frame_flag else 1)

    parses, builds, built = [], [], []
    parse, from_json, init = cli.parse_frame, SliceFrame.from_json.__func__, Quaternion.__init__

    def counting_parse(spec):
        parses.append(spec)
        return parse(spec)

    def counting_from_json(cls, obj):
        builds.append(obj)
        return from_json(cls, obj)

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(cli, "parse_frame", counting_parse)
    monkeypatch.setattr(SliceFrame, "from_json", classmethod(counting_from_json))
    monkeypatch.setattr(Quaternion, "__init__", counting_init)
    for command in ("moments-to-verblunsky", "zeros"):
        parses.clear(), builds.clear(), built.clear()
        code, _ = run(tmp_path, command, path, "--n", n, *frame_flag)
        assert code == 0
        assert len(parses) == 1
        assert len(builds) == frame_builds
        assert len(built) == flag_quaternions + 3 * (frame_builds - flag_builds), built


def test_config_frame_is_the_frame_the_job_ran_in(tmp_path):
    # a fixture's own frame, when --frame does not override it; the envelope
    # once reported the standard frame for these.  --frame standard once
    # parsed to the None of no flag and ran in the fixture's frame: it runs
    # in the standard frame, byte for byte as the standard frame as JSON does
    from conftest import random_moment_fixture

    rng = np.random.default_rng(616)
    own, override = (random_frame(rng).to_json() for _ in range(2))
    smooth = json.loads((FIXDIR / "smooth_trig.json").read_text())
    gammas = json.loads((FIXDIR / "random_gamma_7.json").read_text())["gammas"]
    cases = {
        "density.json": ({**smooth, "frame": own},
                         (["grid", "--grid", "7"], ["sv", "--n", "6"],
                          ["moments-to-verblunsky", "--n", "6"])),
        "moments.json": ({"frame": own, "moments": random_moment_fixture(7, 6).to_json()},
                         (["moments-to-verblunsky", "--n", "6"], ["zeros", "--n", "4"])),
        "gammas.json": ({"frame": own, "gammas": gammas},
                        (["verblunsky-to-moments", "--n", "6"], ["zeros", "--n", "4"])),
    }
    for name, (obj, argvs) in cases.items():
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        for argv in argvs:
            reports = []
            for flag, want in (([], own), (["--frame", json.dumps(override)], override),
                               (["--frame", "standard"], STANDARD_FRAME),
                               (["--frame", json.dumps(STANDARD_FRAME)], STANDARD_FRAME)):
                code, out = run(tmp_path, argv[0], str(path), *argv[1:], *flag)
                assert code == 0, (name, argv, out[:200])
                assert json.loads(out)["config"]["frame"] == want, (name, argv, flag)
                reports.append(out)
            assert reports[2] == reports[3], (name, argv)


def test_random_gamma_result_frame_is_the_job_frame(tmp_path):
    # the fixture it writes once held the standard frame under --frame

    frame = random_frame(np.random.default_rng(617)).to_json()
    for flag, want in (([], STANDARD_FRAME), (["--frame", "standard"], STANDARD_FRAME),
                       (["--frame", json.dumps(frame)], frame)):
        code, out = run(tmp_path, "random-gamma", "--n", "3", *flag)
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["frame"] == payload["config"]["frame"] == want, flag


@pytest.mark.parametrize("fixture", DENSITY_FIXTURES)
def test_density_load_scans_once_under_frame_override(monkeypatch, fixture):
    # the w1/w2 maps are read in the fixture's frame and the density is built
    # once, in the job's; each build scans W on the PSD grid
    from qopuc import cli
    from qopuc.measures import PSD_GRID, QPositiveDensity

    scans = []
    matrix_values = QPositiveDensity.matrix_values

    def counting_matrix_values(self, grid):
        scans.append(grid)
        return matrix_values(self, grid)

    monkeypatch.setattr(QPositiveDensity, "matrix_values", counting_matrix_values)
    override = random_frame(np.random.default_rng(618))
    path = str(FIXDIR / fixture)
    for frame in (None, override):
        scans.clear()
        fix = cli.load_fixture(path, frame)
        assert scans == [PSD_GRID]
        assert fix.density.frame is fix.frame
    assert fix.frame is override
    base = cli.load_fixture(path, None).density
    assert np.array_equal(fix.density.coeffs, base.coeffs)
    assert np.array_equal(fix.density.index, base.index)


def test_moment_fixture_far_index_is_sparse(tmp_path):
    # c_{+-10^6} = 0.1: a dense list up to 10^6 took 127 MB and 2.5 s
    import tracemalloc

    fixture = tmp_path / "far.json"
    fixture.write_text(json.dumps({"moments": [[0, [1, 0, 0, 0]], [10 ** 6, [0.1, 0, 0, 0]],
                                               [-10 ** 6, [0.1, 0, 0, 0]]]}))
    tracemalloc.start()
    try:
        code, out = run(tmp_path, "moments-to-verblunsky", str(fixture), "--n", "2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads(out)["result"]["gammas"] == [[0, 0, 0, 0], [0, 0, 0, 0]]
    assert peak < 8 * 2 ** 20, peak


@pytest.mark.parametrize("command", ["moments-to-verblunsky", "sv"])
def test_route_b_runs_one_recursion_and_builds_no_polynomial(tmp_path, monkeypatch, command):
    # route B reads the gammas of one Szego recursion on the moments; the
    # families stay coefficient rows (the LDL* route ran two factorisations),
    # and the library has no polynomial type to build
    from qopuc import polynomials

    recursions, returned = [], []
    recursion = polynomials.require_nontrivial

    def counting_recursion(*args, **kwargs):
        recursions.append(args[1])
        out = recursion(*args, **kwargs)
        returned.append(out)
        return out

    monkeypatch.setattr(polynomials, "require_nontrivial", counting_recursion)
    code, _ = run(tmp_path, command, str(FIXDIR / "smooth_trig.json"), "--n", "40")
    assert code == 0
    assert recursions == [40]
    (gammas, rows), = returned
    assert type(gammas) is np.ndarray and gammas.shape == (40, 4)
    assert type(rows) is np.ndarray and rows.shape == (2, 41, 41, 4)


@pytest.mark.parametrize("argv", [
    ["orthopolys", "smooth_trig.json", "--n", "12"],
    ["orthopolys", "random_gamma_7.json", "--n", "12", "--frame", "standard"],
    ["zeros", "vanishing_density.json", "--n", "10"],
    ["zeros", "bernstein_szego_05.json", "--n", "6"],
    ["cd", "lebesgue.json", "--n", "5", "--samples", "3"],
    ["cd", "random_gamma_7.json", "--n", "11", "--samples", "3"],
])
def test_family_readers_get_the_pair_form_rows(tmp_path, monkeypatch, argv):
    # the commands that read whole families get, member for member, the rows
    # of the interleaved-pair LDL* and of the polynomial recurrences run from
    # route A's gammas, to 5e-14 and 5e-15 (measured worst, both on
    # random_gamma_7: 1.7e-14 and 1.3e-15), and read them from route B's one
    # stack, which holds nothing past each degree
    from conftest import OrthonormalFamily, family_rows_pairs, szego_family
    from qopuc import analysis, cli
    from qopuc.polynomials import _gammas_via_matrix
    from qopuc.quaternions import SliceFrame

    seen = []

    def keeping(module):
        original = module.orthonormal_polys

        def wrapped(c, N, *args):
            out = original(c, N, *args)
            seen.append((c, N, out))
            return out
        monkeypatch.setattr(module, "orthonormal_polys", wrapped)

    keeping(cli)
    keeping(analysis)
    argv = [str(FIXDIR / a) if a.endswith(".json") else a for a in argv]
    code, _ = run(tmp_path, *argv)
    assert code == 0 and len(seen) == 1
    c, N, (gammas, rows) = seen[0]
    fam = OrthonormalFamily(gammas, rows)
    assert rows.shape == (2, N + 1, N + 1, 4)
    assert not np.triu(np.abs(rows).sum(axis=-1), 1).any()
    rows_r, rows_l = family_rows_pairs(c, N)
    states = szego_family(_gammas_via_matrix(c, N, SliceFrame.standard()), N)
    assert fam.order == N
    for n in range(N + 1):
        for got, pair, recurred in ((fam.right[n], rows_r[n, : n + 1], states[n].right),
                                    (fam.left[n], rows_l[n, : n + 1], states[n].left)):
            assert np.abs(got.arr - pair).max() <= 5e-14
            assert np.abs(got.arr - recurred.arr).max() <= 5e-15


def test_verblunsky_to_moments_past_the_coefficient_count(tmp_path):
    code, out = run(tmp_path, "verblunsky-to-moments", str(FIXDIR / "random_gamma_7.json"),
                    "--n", "30")
    assert code == 2
    assert json.loads(out)["error"] == {"type": "HorizonExceeded",
                                        "message": "fixture holds 12 coefficients, need 30"}


def test_round_trip_through_cli(tmp_path):
    gamma_file = tmp_path / "g.json"
    code = main(["random-gamma", "--seed", "11", "--n", "8",
                 "--out", str(gamma_file)])
    assert code == 0
    validate("random_gamma", gamma_file.read_bytes())
    seed_payload = json.loads(gamma_file.read_text())
    fixture = tmp_path / "gamma_fixture.json"
    fixture.write_text(json.dumps(seed_payload["result"]))

    moments_file = tmp_path / "m.json"
    code = main(["verblunsky-to-moments", str(fixture), "--n", "8",
                 "--out", str(moments_file)])
    assert code == 0
    validate("verblunsky_to_moments", moments_file.read_bytes())
    mom_fixture = tmp_path / "mom_fixture.json"
    mom_fixture.write_text(json.dumps(
        {"moments": json.loads(moments_file.read_text())["result"]["moments"]}))

    back_file = tmp_path / "back.json"
    code = main(["moments-to-verblunsky", str(mom_fixture), "--n", "8",
                 "--out", str(back_file)])
    assert code == 0
    got = json.loads(back_file.read_text())["result"]["gammas"]
    want = json.loads(fixture.read_text())["gammas"]
    for a, b in zip(got, want):
        assert max(abs(x - y) for x, y in zip(a, b)) < 1e-9


def test_verblunsky_to_moments_rejects_non_contraction(tmp_path):
    fixture = tmp_path / "g.json"
    fixture.write_text(json.dumps({"gammas": [[1.5, 0, 0, 0]]}))
    code, out = run(tmp_path, "verblunsky-to-moments", str(fixture), "--n", "1")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "NotContraction"
    # the bound is |gamma| < 1 - 1e-12, with the index of the first miss
    fixture.write_text(json.dumps({"gammas": [[0.5, 0, 0, 0], [1 - 7e-13, 0, 0, 0]]}))
    code, out = run(tmp_path, "verblunsky-to-moments", str(fixture), "--n", "2")
    error = json.loads(out)["error"]
    assert code == 2 and error["type"] == "NotContraction" and error["index"] == 1
    fixture.write_text(json.dumps({"gammas": [[0.5, 0, 0, 0], [1 - 2e-12, 0, 0, 0]]}))
    code, out = run(tmp_path, "verblunsky-to-moments", str(fixture), "--n", "2")
    assert code == 0 and len(json.loads(out)["result"]["moments"]) == 3


@pytest.mark.parametrize("fixture", DENSITY_FIXTURES)
def test_determinism_and_schema_all_commands(tmp_path, fixture):
    path = str(FIXDIR / fixture)
    commands = [
        ("moments-to-verblunsky", "moments_to_verblunsky",
         [path, "--n", "4"]),
        ("orthopolys", "orthopolys", [path, "--n", "4"]),
        ("zeros", "zeros", [path, "--n", "3"]),
        ("cd", "cd", [path, "--n", "3", "--samples", "20", "--seed", "5"]),
        ("sv", "sv", [path, "--n", "5"]),
        ("baxter", "baxter", [path, "--n", "12"]),
        ("grid", "grid", [path, "--grid", "64"]),
    ]
    for command, schema, argv in commands:
        code1, out1 = run(tmp_path, command, *argv)
        assert code1 == 0, (command, out1[:200])
        code2, out2 = run(tmp_path, command, *argv)
        assert out1 == out2  # byte-identical reruns
        validate(schema, out1)


def test_zeros_vanishing_density_in_any_frame(tmp_path):
    # real coefficients: every slice is single-plane, and the determinant of
    # the image would have only double roots
    rng = np.random.default_rng(808)
    frames = [[]] + [["--frame", json.dumps(random_frame(rng).to_json())]
                     for _ in range(5)]
    for frame in frames:
        code, out = run(tmp_path, "zeros", str(FIXDIR / "vanishing_density.json"),
                        "--n", "10", *frame)
        assert code == 0, out[:200]
        rows = json.loads(out)["result"]["per_degree"]
        assert len(rows) == 10
        assert max(row["left_right_distance"] for row in rows) <= 1e-8
        assert all(row["all_inside_ball"] and row["reverses_outside"] for row in rows)


def test_random_gamma_determinism(tmp_path):
    _, out1 = run(tmp_path, "random-gamma", "--seed", "3", "--n", "6")
    _, out2 = run(tmp_path, "random-gamma", "--seed", "3", "--n", "6")
    assert out1 == out2
    _, out3 = run(tmp_path, "random-gamma", "--seed", "4", "--n", "6")
    assert out1 != out3


def test_csv_outputs(tmp_path):
    path = str(FIXDIR / "bernstein_szego_05.json")
    out = tmp_path / "out.csv"
    code = main(["zeros", path, "--n", "3", "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "degree,family,root_re,root_im,modulus"
    assert len(lines) > 3
    code = main(["sv", path, "--n", "4", "--format", "csv", "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[0] == "n,partial_product,gap"
    code = main(["baxter", path, "--n", "8", "--format", "csv", "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[0] == "n,gamma_modulus,l1_partial_sum"
    code = main(["grid", path, "--grid", "32", "--format", "csv", "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[0].startswith("theta,w11_re")


SEEDED_FRAME = ["--frame", json.dumps(random_frame(np.random.default_rng(73)).to_json())]


def _grid_reference(argv) -> str:
    """The grid report of ``argv`` made cell by cell: nine-key rows from every
    entry of W, through the recursive emitter or the per-cell CSV rule."""
    from qopuc.analysis import szego_entropy
    from qopuc.cli import GRID_COLUMNS, _envelope, _parser, load_fixture, parse_frame

    args = _parser().parse_args(argv)
    fix = load_fixture(args.input, parse_frame(args.frame))
    W = fix.density.matrix_values(args.grid).reshape(args.grid, 4)
    columns = [(2.0 * np.pi * np.arange(args.grid) / args.grid).tolist()]
    for k in range(4):
        columns += [W[:, k].real.tolist(), W[:, k].imag.tolist()]
    rows = [dict(zip(GRID_COLUMNS, values)) for values in zip(*columns)]
    if args.format == "csv":
        return "\n".join([",".join(GRID_COLUMNS)] + [
            ",".join(format(float(v), ".17g") for v in row.values()) for row in rows]) + "\n"
    result = {"grid": args.grid, "entropy": szego_entropy(fix.density), "rows": rows}
    return _emit_json_recursive(_envelope(args, fix, result)) + "\n"


@pytest.mark.parametrize("fixture", DENSITY_FIXTURES)
def test_grid_report_bytes_match_the_per_cell_emitters(tmp_path, fixture):
    # the report formats theta, W11 and W12 by column and writes W21 and W22
    # from their text; the smallest grids reflect onto themselves
    for frame in ([], SEEDED_FRAME):
        for grid in (1, 2, 3, 7, 2048):
            for fmt in ("json", "csv"):
                argv = ["grid", str(FIXDIR / fixture), "--grid", str(grid), *frame,
                        "--format", fmt]
                code, out = run(tmp_path, *argv)
                assert code == 0, argv
                assert out.decode() == _grid_reference(argv), argv
                if fixture == "lebesgue.json":   # W21 = conj(0)
                    cells = ('"w21_im": -0,' if fmt == "json" else ",-0,1,0\n").encode()
                    assert out.count(cells) == grid, argv


def test_float_text_is_format_17g_and_negated_text_is_minus():
    from qopuc.cli import _float_text, _negated

    rng = np.random.default_rng(61)
    values = [0.0, -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, float("inf"),
              float("-inf"), float("nan"), 1 / 3, 1 / 3, -2.5, 1e16, 123456789.0]
    values += (rng.normal(size=200) * 10.0 ** rng.integers(-300, 300, size=200)).tolist()
    values += values[::3]
    assert _float_text(np.array(values)) == [format(x, ".17g") for x in values]
    assert _float_text(np.array([])) == []
    signed = [0.0, -0.0, 5e-324, -2.5]
    assert _negated(_float_text(np.array(signed))) == ["-0", "0", "-4.9406564584124654e-324",
                                                       "2.5"]
    finite = [x for x in values if np.isfinite(x)]
    assert _negated(_float_text(np.array(finite))) == [format(-x, ".17g") for x in finite]


def test_grid_beyond_float64_is_a_typed_error(tmp_path):
    # the +-1e308 terms cancel on the 2048-point PSD grid, so the density
    # loads; the 7-point grid once came out as a report with "-inf" rows,
    # which the grid schema rejects, and a cast warning on stderr
    fixture = tmp_path / "overflow.json"
    fixture.write_text(json.dumps(OVERFLOW))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fmt in ("json", "csv"):
            code, out = run(tmp_path, "grid", str(fixture), "--grid", "7", "--format", fmt)
            assert code == 2
            assert json.loads(out)["error"] == {
                "type": "ValueError", "message": "matrix density is not finite on the "
                                                 "7-point grid (its terms overflow float64)"}


def test_baxter_names_a_density_that_is_not_positive_definite(tmp_path):
    # the same fixture's moments are not positive definite at order 1; baxter
    # runs route A alone, whose coefficient 0 is then not a contraction, and
    # once reported that NotContraction, an error of coefficients the user
    # never gave.  It now gives the order, as sv does from route B
    fixture = tmp_path / "overflow.json"
    fixture.write_text(json.dumps(OVERFLOW))
    errors = {}
    for command in ("baxter", "sv", "moments-to-verblunsky"):
        code, out = run(tmp_path, command, str(fixture), "--n", "4")
        assert code == 2
        errors[command] = json.loads(out)["error"]
    assert errors["baxter"] == {
        "type": "NotPositiveDefinite",
        "message": "Toeplitz form not positive definite at order 1 (route A: coefficient 0 "
                   "is not a strict contraction)",
        "order": 1}
    assert errors["sv"] == errors["moments-to-verblunsky"] == {
        "type": "NotPositiveDefinite",
        "message": "Toeplitz form not positive definite at order 1 (pivot -inf)", "order": 1}


# the CSV rows of each view, read off its JSON report field by field
CSV_FIELDS = {
    "zeros": lambda r: [[e["degree"], e["family"], re, im, m] for e in r["reports"]
                        for (re, im), m in zip(e["report"]["slice_roots"],
                                               e["report"]["moduli"])],
    "sv": lambda r: [[n, p, g] for n, (p, g) in enumerate(zip(r["partial_products"],
                                                              r["gap_history"]))],
    "baxter": lambda r: [[n, m, s] for n, (m, s) in enumerate(zip(r["gamma_moduli"],
                                                                  r["gamma_l1_partial"]))],
    "grid": lambda r: [list(row.values()) for row in r["rows"]],
    "verblunsky-to-moments": lambda r: [[n, *q] for n, q in r["moments"]],
    "moments-to-verblunsky": lambda r: [[n, *q] for n, q in enumerate(r["gammas"])],
}
CSV_ARGV = {"zeros": ["--n", "6"], "sv": ["--n", "20"], "baxter": ["--n", "50"],
            "grid": ["--grid", "64"], "verblunsky-to-moments": ["--n", "6"],
            "moments-to-verblunsky": ["--n", "6"]}


@pytest.mark.parametrize("command", sorted(CSV_FIELDS))
def test_every_csv_cell_equals_its_json_field(tmp_path, command):
    from qopuc.cli import CSV_COMMANDS

    assert sorted(CSV_COMMANDS) == sorted(CSV_FIELDS)
    sources = (["random_gamma_7.json"] if command == "verblunsky-to-moments"
               else DENSITY_FIXTURES)
    for fixture in sources:
        for frame in ([], SEEDED_FRAME):
            argv = [command, str(FIXDIR / fixture), *CSV_ARGV[command], *frame]
            code, report = run(tmp_path, *argv)
            assert code == 0, argv
            code, table = run(tmp_path, *argv, "--format", "csv")
            assert code == 0, argv
            want = CSV_FIELDS[command](json.loads(report)["result"])
            got = list(csv.reader(io.StringIO(table.decode())))[1:]
            assert len(got) == len(want) > 0, argv
            for line, fields in zip(got, want):
                assert len(line) == len(fields), argv
                for cell, value in zip(line, fields):
                    assert (cell == value if isinstance(value, str)
                            else float(cell) == value), (argv, line, fields)


def test_frame_override(tmp_path):
    path = str(FIXDIR / "smooth_trig.json")
    frame = json.dumps({"i": [0, 0, 1, 0], "j": [0, 0, 0, 1]})
    code, out = run(tmp_path, "moments-to-verblunsky", path, "--n", "4",
                    "--frame", frame)
    assert code == 0
    base_code, base = run(tmp_path, "moments-to-verblunsky", path, "--n", "4")
    got = json.loads(out)["result"]["gammas"]
    want = json.loads(base)["result"]["gammas"]
    # Verblunsky coefficients are global: frame change must not move them
    for a, b in zip(got, want):
        assert max(abs(x - y) for x, y in zip(a, b)) < 1e-9


def test_missing_file(tmp_path):
    code, out = run(tmp_path, "sv", str(FIXDIR / "nope.json"), "--n", "3")
    assert code == 2


def test_gamma_fixture_as_moment_source(tmp_path):
    code, out = run(tmp_path, "orthopolys", str(FIXDIR / "random_gamma_7.json"),
                    "--n", "5")
    assert code == 0
    validate("orthopolys", out)


def test_no_convergence_maps_to_exit_4(tmp_path, monkeypatch):
    from qopuc import cli
    from qopuc.errors import NoConvergence

    def boom(args, fix):
        raise NoConvergence("iteration budget exhausted")

    monkeypatch.setitem(cli._COMMANDS, "sv", boom)
    out = tmp_path / "out.json"
    code = cli.main(["sv", str(FIXDIR / "lebesgue.json"), "--out", str(out)])
    assert code == 4
    assert json.loads(out.read_text())["error"]["type"] == "NoConvergence"


def test_tol_pd_override(tmp_path):
    # near-trivial fixture: tight pivot tolerance passes, loose one rejects
    path = str(FIXDIR / "bernstein_szego_05.json")
    code, out = run(tmp_path, "moments-to-verblunsky", path, "--n", "4",
                    "--tol-pd", "1e-12")
    assert code == 0
    code, out = run(tmp_path, "moments-to-verblunsky", path, "--n", "4",
                    "--tol-pd", "1e6")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "NotPositiveDefinite"
    # the defaults are the library's constants, shared with zeros
    from qopuc import zeros
    from qopuc.cli import build_parser
    from qopuc.measures import PIVOT_TOL
    from qopuc.polynomials import ROUTE_TOL
    args = build_parser().parse_args(["moments-to-verblunsky", path])
    assert args.tol_route is ROUTE_TOL and args.tol_pd is PIVOT_TOL
    assert zeros.ROUTE_TOL is ROUTE_TOL


@pytest.mark.parametrize("command", ["sv", "cd"])
def test_tol_pd_reaches_sv_and_cd(tmp_path, command):
    # the first prediction error of smooth_trig is 0.9299
    code, out = run(tmp_path, command, str(FIXDIR / "smooth_trig.json"), "--n", "8",
                    "--tol-pd", "0.95")
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "NotPositiveDefinite" and err["order"] == 1


def test_tol_route_reaches_sv(tmp_path):
    # the two Verblunsky routes agree to about 5e-29 on smooth_trig at n = 40
    code, out = run(tmp_path, "sv", str(FIXDIR / "smooth_trig.json"), "--n", "40",
                    "--tol-route", "1e-40")
    assert code == 3
    assert json.loads(out)["error"]["type"] == "RouteMismatch"


def test_cli_reference_values(tmp_path):
    # gamma0 = 0.5 fixture: max root modulus 0.5, everything inside the ball
    code, out = run(tmp_path, "zeros", str(FIXDIR / "bernstein_szego_05.json"),
                    "--n", "3")
    assert code == 0
    rows = json.loads(out)["result"]["per_degree"]
    assert all(abs(r["max_root_modulus"] - 0.5) < 1e-6 for r in rows)
    assert all(r["all_inside_ball"] for r in rows)

    # flat density: gap identically zero
    code, out = run(tmp_path, "sv", str(FIXDIR / "lebesgue.json"), "--n", "4")
    assert code == 0
    gaps = json.loads(out)["result"]["gap_history"]
    assert max(abs(g) for g in gaps) < 1e-13

    # flat density: the diagonal identity is exact
    code, out = run(tmp_path, "cd", str(FIXDIR / "lebesgue.json"), "--n", "4",
                    "--samples", "50")
    assert code == 0
    assert json.loads(out)["result"]["max_residual"] < 1e-12


def test_flag_range_edges_accepted(tmp_path):
    code, _ = run(tmp_path, "zeros", str(FIXDIR / "lebesgue.json"), "--n", "2",
                  "--tol-pd", "0")
    assert code == 0
    code, out = run(tmp_path, "random-gamma", "--n", "3", "--rmax", "0.05")
    assert code == 0
    moduli = [sum(x * x for x in g) ** 0.5
              for g in json.loads(out)["result"]["gammas"]]
    assert all(abs(m - 0.05) < 1e-15 for m in moduli)


def _fmt_float_reference(x: float) -> str:
    if x != x:
        raise ValueError("NaN is not representable in report JSON")
    if x == float("inf"):
        return '"inf"'
    if x == float("-inf"):
        return '"-inf"'
    return format(float(x), ".17g")


def _emit_json_recursive(obj) -> str:
    """The recursive emitter the typed fast paths replaced: the oracle."""
    import numpy as np

    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float_reference(float(obj))
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit_json_recursive(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_emit_json_recursive(v)}"
                               for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialise {type(obj)!r}")


def test_emit_json_matches_recursive_emitter():
    import numpy as np

    from qopuc.cli import emit_json

    rng = np.random.default_rng(5)
    floats = rng.normal(size=40) * 10.0 ** rng.integers(-300, 300, size=40)
    payload = {
        "plain": [float(x) for x in floats],
        "numpy": [np.float64(x) for x in floats[:5]] + [np.int64(-7), np.int32(3)],
        "tuple": (1, 2.5, (True, False, None), []),
        'quote"back\\slash\nnewé☃': {"x": -0.0, "y": 0.0, 3: "q\t"},
        "extremes": [float("inf"), float("-inf"), 5e-324, 1.7976931348623157e308,
                     np.float64("inf"), 1e16, 123456789.0],
        "nested": [{"a": [[1.0, {"b": ()}]]}, {}],
        "bools": {True: 1, None: 2, 2.5: 3},
    }
    assert emit_json(payload) == _emit_json_recursive(payload)
    for bad in (float("nan"), [1.0, float("nan")], {"k": np.float64("nan")}):
        with pytest.raises(ValueError):
            emit_json(bad)
    with pytest.raises(TypeError):
        emit_json({"s": {1, 2}})


# ------------------------------ seeded fuzz ---------------------------------

FUZZ_COMMANDS = ("moments-to-verblunsky", "verblunsky-to-moments", "orthopolys",
                 "zeros", "cd", "sv", "baxter", "grid", "random-gamma")
FUZZ_MAGNITUDES = (0.0, 1e-300, 1e-3, 0.3, 1.0, 3.0, 1e3, 1e154, 1e308, 1.7e308)


def _fuzz_density(obj, rng):
    """Set one to three w1/w2 entries in symmetric pairs (w1_{-n} = conj w1_n,
    w2_{-n} = -w2_n), so the density still passes its symmetry checks and
    reaches the grid, with magnitudes from 0 up to 1e308.  Every entry of a
    set index is rewritten, so a repeated index stays repeated."""
    w = {key: [list(entry) for entry in obj.get(key, [])] for key in ("w1", "w2")}
    for _ in range(rng.integers(1, 4)):
        key = "w1" if rng.random() < 0.6 else "w2"
        n = int(rng.integers(0 if key == "w1" else 1, 5))
        mag = float(rng.choice(FUZZ_MAGNITUDES))
        a = mag * complex(np.exp(1j * rng.uniform(0, 2 * np.pi))) if n else complex(mag)
        for m, value in ((n, a), (-n, a.conjugate() if key == "w1" else -a)):
            hits = [entry for entry in w[key] if entry[0] == m]
            for entry in hits:
                entry[1:] = [value.real, value.imag]
            if not hits:
                w[key].append([m, value.real, value.imag])
    return {**obj, **w}


def _fuzz_gammas(obj, rng):
    gammas = [list(g) for g in obj["gammas"]]
    for _ in range(rng.integers(1, 4)):
        k, comp = int(rng.integers(len(gammas))), int(rng.integers(4))
        gammas[k][comp] = float(rng.choice([-1.0, 1.0]) * rng.choice(FUZZ_MAGNITUDES))
    return {**obj, "gammas": gammas[: int(rng.integers(1, len(gammas) + 1))]}


def _fuzz_moments(obj, rng):
    moments = [[n, list(q)] for n, q in obj["moments"]]
    if not moments:
        return obj
    for _ in range(rng.integers(1, 4)):
        k, comp = int(rng.integers(1, len(moments))), int(rng.integers(4))
        moments[k][1][comp] = float(rng.choice([-1.0, 1.0]) * rng.choice(FUZZ_MAGNITUDES))
    return {**obj, "moments": moments[: int(rng.integers(1, len(moments) + 1))]}


def _fuzz_fixture(obj, rng):
    """One mutation per case: gammas, moments or the density, and in one case
    out of six no frame at all."""
    if "gammas" in obj:
        obj = _fuzz_gammas(obj, rng)
    elif "moments" in obj:
        obj = _fuzz_moments(obj, rng)
    else:
        obj = _fuzz_density(obj, rng)
    if rng.random() < 1 / 6:
        obj = {key: value for key, value in obj.items() if key != "frame"}
    return obj


def _fuzz_frame(rng):
    kind = rng.integers(4)
    if kind == 0:
        return []
    if kind == 1:
        return ["--frame", "standard"]
    v = rng.normal(size=(2, 3))
    if kind == 2:   # orthonormal pair
        v[0] /= np.linalg.norm(v[0])
        v[1] -= (v[0] @ v[1]) * v[0]
        v[1] /= np.linalg.norm(v[1])
    return ["--frame", json.dumps({"i": [0.0, *v[0].tolist()], "j": [0.0, *v[1].tolist()]})]


def _fuzz_fixtures():
    """The shipped fixtures, two moment fixtures of horizon 6, one with a
    frame (moments read off Bernstein-Szego) and one without, the two
    repeated-index fixtures, a w2-only density, a fixture that holds both
    a density and moments, a density with w1_0 = 2, an empty moment list, a
    density with indices +-10^9, a gamma of 10^400 and, as raw text, 100000
    nested lists."""
    from qopuc.measures import moments_from_density
    from conftest import bernstein_szego_density, random_moment_fixture

    fixtures = {p.name: json.loads(p.read_text()) for p in sorted(FIXDIR.glob("*.json"))}
    bs = bernstein_szego_density()
    fixtures["moments_bs.json"] = {"frame": bs.frame.to_json(),
                                   "moments": moments_from_density(bs, 6).to_json()}
    fixtures["moments_random.json"] = {"moments": random_moment_fixture(5, 6).to_json()}
    for key, (obj, _) in sorted(REPEATED_INDEX.items()):
        fixtures[f"repeated_{key}.json"] = obj
    fixtures["w2_only.json"] = W2_ONLY
    fixtures["mixed.json"] = MIXED
    fixtures["unnormalised.json"] = UNNORMALISED
    fixtures["empty_moments.json"] = EMPTY_MOMENTS
    fixtures["far_index.json"] = FAR_INDEX
    fixtures["huge_gamma.json"] = HUGE_GAMMA
    fixtures["deep.json"] = DEEP_JSON
    return fixtures


def test_cli_fuzz_exit_codes(tmp_path):
    """Mutated fixtures (the shipped ones and two moment fixtures) and flags
    across all nine commands, --n up to three past the horizon of the moment
    and gamma fixtures: every call returns a documented exit code (0, 2, 3
    or 4), raises nothing, and no error envelope reports a KeyError,
    IndexError or TypeError, which would mean a malformed input got past the
    load-time checks."""
    rng = np.random.default_rng(20260)
    fixtures = _fuzz_fixtures()
    fixture = tmp_path / "fuzz.json"
    failures = []
    for case in range(200):
        command = FUZZ_COMMANDS[case % len(FUZZ_COMMANDS)]
        name = str(rng.choice(list(fixtures)))
        obj = fixtures[name]
        if isinstance(obj, str):   # raw text, written as it is
            fixture.write_text(obj)
        else:
            obj = _fuzz_fixture(obj, rng)
            fixture.write_text(json.dumps(obj))
        argv = [command] + ([] if command == "random-gamma" else [str(fixture)])
        argv += ["--n", str(int(rng.integers(1, 10))), "--seed", str(int(rng.integers(100)))]
        argv += _fuzz_frame(rng)
        argv += ["--format", str(rng.choice(["json", "csv"]))]
        argv += ["--tol-route", str(rng.choice([1e-8, 1e-3, 1e-15]))]
        argv += ["--tol-pd", str(rng.choice([1e-12, 0.0, 0.5]))]
        if command == "cd":
            argv += ["--samples", str(int(rng.integers(1, 20)))]
        if command == "grid":
            argv += ["--grid", str(int(rng.integers(1, 64)))]
        if command == "random-gamma":
            argv += ["--rmax", str(rng.uniform(0.05, 0.99))]
        try:
            with np.errstate(all="ignore"):   # the 1e308 entries overflow on purpose
                code, out = run(tmp_path, *argv)
        except Exception as exc:
            code, out = f"{type(exc).__name__}: {exc}", b""
        error = json.loads(out).get("error", {}) if code in (2, 3, 4) else {}
        if code not in (0, 2, 3, 4) or error.get("type") in ("KeyError", "IndexError",
                                                              "TypeError"):
            failures.append((case, argv, obj, code, error))
    assert not failures, failures


def test_density_grid_evaluated_once_per_size(tmp_path, monkeypatch):
    from qopuc.measures import QPositiveDensity

    sizes = []
    lapack_calls = []
    matrix_values = QPositiveDensity.matrix_values

    def counted_matrix_values(self, grid):
        sizes.append(grid)
        return matrix_values(self, grid)

    def lapack(name):
        return lambda *args, **kwargs: lapack_calls.append(name)

    monkeypatch.setattr(QPositiveDensity, "matrix_values", counted_matrix_values)
    monkeypatch.setattr(np.linalg, "eigvalsh", lapack("eigvalsh"))
    monkeypatch.setattr(np.linalg, "det", lapack("det"))
    fixture = str(FIXDIR / "smooth_trig.json")
    for argv, grids in ((["baxter", fixture, "--n", "20"], [2048]),
                        (["sv", fixture, "--n", "10"], [2048, 4096]),
                        (["grid", fixture, "--grid", "2048"], [2048, 4096]),
                        (["grid", fixture, "--grid", "7"], [2048, 7, 4096])):
        sizes.clear()
        code, _ = run(tmp_path, *argv)
        assert lapack_calls == [], argv
        assert code == 0
        assert sizes == grids, argv


needs_long_double = pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                                       reason="needs an extended-precision np.longdouble")


@needs_long_double
def test_sv_bernstein_szego_entropy_exact(tmp_path):
    # log det W = 2 log|D|^2 integrates to 2 log(1 - 0.5^2) = log(0.5625)
    code, out = run(tmp_path, "sv", str(FIXDIR / "bernstein_szego_05.json"), "--n", "20")
    assert code == 0
    assert json.loads(out)["result"]["entropy"] == float(np.log(0.5625))


@needs_long_double
def test_baxter_bernstein_szego_density_min_correctly_rounded(tmp_path):
    # the 64-term density's minimum, at theta = pi, is 1/3 + (2/3) 2^-64
    code, out = run(tmp_path, "baxter", str(FIXDIR / "bernstein_szego_05.json"), "--n", "50")
    assert code == 0
    assert json.loads(out)["result"]["density_min"] == 1 / 3
