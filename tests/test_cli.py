from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from qopuc.cli import main

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


def test_density_fixture_without_frame_rejected_at_load(tmp_path):
    bad = tmp_path / "noframe.json"
    bad.write_text('{"w1": [[0, 1, 0]]}')
    for argv in (["grid", "--grid", "4"], ["baxter", "--n", "3"],
                 ["moments-to-verblunsky", "--n", "2"]):
        code, out = run(tmp_path, argv[0], str(bad), *argv[1:])
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "ValueError" and err["message"].startswith("frame is missing")


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


@pytest.mark.parametrize("fixture", DENSITY_FIXTURES)
def test_determinism_and_schema_all_commands(tmp_path, fixture):
    path = str(FIXDIR / fixture)
    # single-plane moments square every factor of the determinant, so the
    # two zero routes agree only to sqrt(eps) there; the tolerance override
    # flag exists for exactly that case
    zeros_args = [path, "--n", "3"]
    if fixture == "vanishing_density.json":
        zeros_args += ["--tol-route", "1e-7"]
    commands = [
        ("moments-to-verblunsky", "moments_to_verblunsky",
         [path, "--n", "4"]),
        ("orthopolys", "orthopolys", [path, "--n", "4"]),
        ("zeros", "zeros", zeros_args),
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

    def boom(args):
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
    reaches the grid, with magnitudes from 0 up to 1e308."""
    w = {key: {n: complex(re, im) for n, re, im in obj.get(key, [])}
         for key in ("w1", "w2")}
    for _ in range(rng.integers(1, 4)):
        key = "w1" if rng.random() < 0.6 else "w2"
        n = int(rng.integers(0 if key == "w1" else 1, 5))
        mag = float(rng.choice(FUZZ_MAGNITUDES))
        a = mag * complex(np.exp(1j * rng.uniform(0, 2 * np.pi))) if n else complex(mag)
        w[key][n] = a
        w[key][-n] = a.conjugate() if key == "w1" else -a
    return {**obj, **{key: [[n, a.real, a.imag] for n, a in sorted(w[key].items())]
                      for key in ("w1", "w2")}}


def _fuzz_gammas(obj, rng):
    gammas = [list(g) for g in obj["gammas"]]
    for _ in range(rng.integers(1, 4)):
        k, comp = int(rng.integers(len(gammas))), int(rng.integers(4))
        gammas[k][comp] = float(rng.choice([-1.0, 1.0]) * rng.choice(FUZZ_MAGNITUDES))
    return {**obj, "gammas": gammas[: int(rng.integers(1, len(gammas) + 1))]}


def _fuzz_moments(obj, rng):
    moments = [[n, list(q)] for n, q in obj["moments"]]
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
    """The shipped fixtures plus two moment fixtures of horizon 6, one with a
    frame (moments read off Bernstein-Szego) and one without."""
    from qopuc.fixtures import bernstein_szego_density, random_moment_fixture
    from qopuc.measures import moments_from_density

    fixtures = {p.name: json.loads(p.read_text()) for p in sorted(FIXDIR.glob("*.json"))}
    bs = bernstein_szego_density()
    fixtures["moments_bs.json"] = {"frame": bs.frame.to_json(),
                                   "moments": moments_from_density(bs, 6).to_json()}
    fixtures["moments_random.json"] = {"moments": random_moment_fixture(5, 6).to_json()}
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
        obj = _fuzz_fixture(fixtures[name], rng)
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
    eigvalsh_calls = []
    matrix_values = QPositiveDensity.matrix_values
    eigvalsh = np.linalg.eigvalsh

    def counted_matrix_values(self, thetas):
        sizes.append(len(thetas))
        return matrix_values(self, thetas)

    def counted_eigvalsh(a, *args, **kwargs):
        eigvalsh_calls.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(QPositiveDensity, "matrix_values", counted_matrix_values)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    fixture = str(FIXDIR / "smooth_trig.json")
    for argv, grids in ((["baxter", fixture, "--n", "20"], [2048]),
                        (["sv", fixture, "--n", "10"], [2048, 4096]),
                        (["grid", fixture, "--grid", "2048"], [2048, 4096]),
                        (["grid", fixture, "--grid", "7"], [2048, 7, 4096])):
        sizes.clear()
        eigvalsh_calls.clear()
        code, _ = run(tmp_path, *argv)
        assert code == 0
        assert sizes == grids, argv
        assert eigvalsh_calls == grids, argv
