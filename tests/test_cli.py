import csv
import json
import math
import pathlib
import shlex
from fractions import Fraction
from types import SimpleNamespace

import pytest

from arithdyn.cli import _build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_constants_command(capsys):
    code, out, _ = run_cli(capsys, "constants")
    assert code == 0
    obj = json.loads(out)
    assert obj["schema"] == 1
    assert abs(obj["ln2"] - 0.693147) < 1e-5
    assert abs(obj["C"] - 0.885325) < 1e-5


def test_height_command(capsys):
    code, out, _ = run_cli(capsys, "height", "z^3 + (3/4)z + 7")
    assert code == 0
    obj = json.loads(out)
    assert abs(obj["h"]["float"] - 3.332204510175204) < 1e-12
    code, out, _ = run_cli(capsys, "height", "z^2-2", "--point", "3")
    obj = json.loads(out)
    assert abs(obj["canonical_height"] - 0.9624236501192069) < 1e-9


def test_green_command(capsys):
    code, out, _ = run_cli(capsys, "green", "z^2", "4")
    assert code == 0
    obj = json.loads(out)
    assert abs(obj["green"] - 1.3862943611198906) < 1e-12


def test_green_refuses_a_point_with_more_than_two_parts(capsys):
    code, out, err = run_cli(capsys, "green", "z^2-2", "1,2,3")
    assert (code, out) == (2, "") and "'1,2,3'" in err
    code, out, _ = run_cli(capsys, "green", "z^2-2", "1,2")
    assert code == 0 and json.loads(out)["z"] == [1.0, 2.0]


def test_json_polynomial_form(capsys):
    text = '{"d": 2, "coeffs": [["-2", "1"], ["0", "1"]]}'
    code, out, _ = run_cli(capsys, "height", text, "--point", "3")
    assert code == 0
    assert abs(json.loads(out)["canonical_height"] - 0.9624236501192069) < 1e-9


def test_pairing_command(capsys):
    code, out, _ = run_cli(capsys, "pairing", "z^2", "z^2-2", "--samples", "4000")
    assert code == 0
    obj = json.loads(out)
    total = 0.5 * (obj["total"]["lo"] + obj["total"]["hi"])
    assert 0.30 <= total <= 0.34
    finite = [e for e in obj["entries"] if e["place"] != "inf"]
    assert all(e["lo"] == 0.0 and e["hi"] == 0.0 for e in finite)


def test_pairing_seed_reproducibility(capsys):
    """A pairing is deterministic, so it takes no seed."""
    _, out1, _ = run_cli(capsys, "pairing", "z^2", "z^2-2", "--samples", "2000")
    _, out2, _ = run_cli(capsys, "pairing", "z^2", "z^2-2", "--samples", "2000")
    assert out1 == out2
    code, _, _ = run_cli(capsys, "pairing", "z^2", "z^2-2", "--seed", "7", "--samples", "2000")
    assert code == 1


def test_prep_intersect_command(capsys):
    code, out, _ = run_cli(capsys, "prep-intersect", "z^2", "z^2-2")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "intersection"
    assert sorted(tuple(p["minpoly"]) for p in obj["points"]) == [(-1, 1), (0, 1), (1, 1)]
    code, out, _ = run_cli(capsys, "prep-intersect", "z^2", "z^2+1/2")
    obj = json.loads(out)
    assert obj["verdict"] == "disjoint" and obj["witness_place"] == 2


def test_prep_intersect_caps_default_to_the_library(capsys):
    capped = ("--m-cap", "2", "--n-cap", "1")
    for extra, caps in (((), {"m": 3, "n": 2}), (capped, {"m": 2, "n": 1})):
        code, out, _ = run_cli(capsys, "prep-intersect", "z^2", "z^2-z", *extra)
        assert code == 0 and json.loads(out)["caps"] == caps


def test_ordinary_check_command(capsys):
    code, out, _ = run_cli(
        capsys, "ordinary-check", "--X", "11", "--eps", "0.2", "z^2+1/5", "z^2+(1/7)z+1/11"
    )
    assert code == 0
    assert json.loads(out)["ordinary"] is True
    code, out, _ = run_cli(
        capsys, "ordinary-check", "--X", "11", "--eps", "0.2", "z^2+1/5", "z^2+1/5"
    )
    obj = json.loads(out)
    assert obj["ordinary"] is False and "gcd" in obj["witness"]
    code, _, err = run_cli(
        capsys, "ordinary-check", "--X", "11", "--eps", "0.3", "z^2+1/5", "z^2+(1/7)z+1/11"
    )
    assert code == 2 and "eps" in err


def test_survey_command_with_csv(capsys, tmp_path):
    out_path = tmp_path / "survey.csv"
    code, out, _ = run_cli(
        capsys,
        "survey", "--kind", "prep", "--d", "2", "--X", "6", "--samples", "40",
        "--seed", "3", "--out", str(out_path),
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "prep-survey" and obj["samples"] + obj["failures"] == 40
    with open(out_path) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + obj["samples"]

    code, out, _ = run_cli(
        capsys, "survey", "--kind", "ordinary", "--d", "2", "--X", "20",
        "--samples", "200", "--eps", "0.2",
    )
    assert code == 0
    assert 0 <= json.loads(out)["proportion"] <= 1


_SURVEY = ("survey", "--kind", "prep", "--d", "3", "--X", "5", "--samples", "5")


def test_survey_command_with_slice(capsys, tmp_path):
    from arithdyn import MonicPoly

    out_path = tmp_path / "survey.csv"
    code, _, _ = run_cli(capsys, *_SURVEY, "--slice", "1=1/2", "--out", str(out_path))
    assert code == 0
    with open(out_path) as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for r in rows:
        f, g = MonicPoly.from_text(r["f"]), MonicPoly.from_text(r["g"])
        assert f.coeffs[1] == g.coeffs[1] == Fraction(1, 2) and f.coeffs[2] == 0


@pytest.mark.parametrize("text, code, reason", [
    ("x", 1, "--slice"),  # malformed: a usage error
    ("7=1/2", 2, "index 7 outside 1..2"),  # an index the sampler would ignore
    ("1=1/100", 2, "height > X = 5"),  # a value outside the height box
])
def test_survey_slice_is_checked_before_sampling(capsys, monkeypatch, text, code, reason):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the slice was checked")  # exit code 3

    monkeypatch.setattr("arithdyn.survey.sample", no_sampling)
    got, out, err = run_cli(capsys, *_SURVEY, "--slice", text)
    assert (got, out) == (code, "") and reason in err


@pytest.mark.parametrize("option", [
    ("--slice", "1=1/2"), ("--out", "rows.csv"), ("--m-cap", "9"), ("--n-cap", "1"),
])
def test_ordinary_survey_rejects_prep_options(capsys, monkeypatch, tmp_path, option):
    def no_survey(*args, **kwargs):
        raise AssertionError("surveyed with an ignored option")  # exit code 3

    monkeypatch.setattr("arithdyn.cli.survey_ordinary", no_survey)
    monkeypatch.chdir(tmp_path)
    args = ("survey", "--kind", "ordinary", "--d", "3", "--X", "5", "--samples", "5")
    got, out, err = run_cli(capsys, *args, *option)
    assert (got, out) == (1, "") and option[0] in err
    assert not (tmp_path / "rows.csv").exists()


@pytest.mark.parametrize("kind", ["prep", "ordinary"])
@pytest.mark.parametrize("samples", ["0", "-2"])
def test_survey_sample_count_below_one_is_a_compute_error(capsys, kind, samples):
    args = ("survey", "--kind", kind, "--d", "2", "--X", "10", "--samples", samples)
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (2, "") and err == "error: sample count must be >= 1\n"


@pytest.mark.parametrize("extra, eps, caps", [
    (("--eps", "1/7"), Fraction(1, 7), (2, 1)),
    (("--m-cap", "3", "--n-cap", "2"), Fraction(1, 10), (3, 2)),
])
def test_survey_config_takes_exact_eps_and_library_caps(capsys, monkeypatch, extra, eps, caps):
    seen = []

    def record(cfg):
        seen.append(cfg)
        return SimpleNamespace(to_json=dict)

    monkeypatch.setattr("arithdyn.cli.survey_average_prep", record)
    args = ("survey", "--kind", "prep", "--d", "2", "--X", "5", "--samples", "3")
    code, _, _ = run_cli(capsys, *args, *extra)
    (cfg,) = seen
    assert code == 0 and cfg.eps == eps and (cfg.m_cap, cfg.n_cap) == caps


@pytest.mark.parametrize("kind", ["prep", "ordinary"])
@pytest.mark.parametrize("extra, eps", [((), Fraction(1, 10)), (("--eps", "1/7"), Fraction(1, 7))])
def test_survey_eps_defaults_to_survey_config(capsys, monkeypatch, kind, extra, eps):
    seen = []

    def prep(cfg):
        seen.append(cfg.eps)
        return SimpleNamespace(to_json=dict)

    def ordinary(d, X, eps, samples, seed):
        seen.append(eps)
        return SimpleNamespace(to_json=dict)

    monkeypatch.setattr("arithdyn.cli.survey_average_prep", prep)
    monkeypatch.setattr("arithdyn.cli.survey_ordinary", ordinary)
    args = ("survey", "--kind", kind, "--d", "2", "--X", "5", "--samples", "3")
    code, _, _ = run_cli(capsys, *args, *extra)
    assert code == 0 and seen == [eps] and type(seen[0]) is Fraction


def test_green_of_far_and_non_finite_points(capsys):
    code, out, _ = run_cli(capsys, "height", "z^2-2", "--point", "1e200")
    assert code == 0 and json.loads(out)["canonical_height"] == pytest.approx(200 * math.log(10), abs=1e-9)
    code, out, _ = run_cli(capsys, "green", "z^2-2", "1e300")
    assert code == 0 and json.loads(out)["green"] == pytest.approx(300 * math.log(10), abs=1e-9)
    for poly, z in (("z^2-2", "inf"), ("z^2", "nan,0")):
        code, out, err = run_cli(capsys, "green", poly, z)
        assert (code, out) == (2, "") and "not finite" in err


def test_readme_cli_examples_parse():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("arithdyn ")]
    assert len(lines) >= 10
    parser = _build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")


def test_robin_command(capsys):
    code, out, _ = run_cli(
        capsys, "robin", "z^8+(1/9967)z+1/9973",
        "z^8+(1/9931)z^7+(1/9941)z^4+1/9949",
        "--X", "10000", "--eps", "0.05",
    )
    assert code == 0
    obj = json.loads(out)
    assert "robin" in obj and "entries" in obj and "c" in obj


def test_usage_and_compute_errors(capsys):
    code, _, _ = run_cli(capsys, "no-such-command")
    assert code == 1
    code, _, _ = run_cli(capsys)
    assert code == 1
    code, _, err = run_cli(capsys, "height", "not a polynomial")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "prep-intersect", "z^2", "z^2")
    assert code == 2


def test_pairing_of_unequal_degrees_is_a_compute_error(capsys):
    for extra in ((), ("--bounds-only",)):
        code, out, err = run_cli(capsys, "pairing", "z^2", "z^3-1", *extra)
        assert code == 2 and out == "" and "equal degrees" in err


def test_internal_check_failure_has_its_own_exit_code(capsys, monkeypatch):
    def violated(*args, **kwargs):
        raise AssertionError("pairing sandwich violated: lo - 2 > (h(f)+h(g))/d")

    monkeypatch.setattr("arithdyn.cli.global_pairing", violated)
    code, out, err = run_cli(capsys, "pairing", "z^2", "z^2-2")
    assert code == 3
    assert out == "" and err.startswith("internal check failed: pairing sandwich violated")
