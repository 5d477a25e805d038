"""Tests of the benchmark's reference computations on hand-derived values.

    python3 -m pytest benchmark/test_reference.py
"""

import math

import pytest

import reference as ref

P = ref.parse_poly


@pytest.mark.parametrize(
    "f, g, count",
    [
        # {0, 1, -1}
        ("z^2", "z^2 - 2", 3),
        # {0, 1, -1, (1 +- sqrt 5)/2}: the golden pair is fixed by z^2 - 1 and
        # maps to 1 -> 0 under z^2 - z.
        ("z^2 - z", "z^2 - 1", 5),
        # {0, 1, -1, e^{+-i pi/3}}: z^2 - z sends e^{i pi/3} to -1 -> 2 -> 2.
        ("z^2", "z^2 - z", 5),
        # {+-1/2, +-i sqrt(3)/2}: 1/2 is the parabolic fixed point of z^2 + 1/4.
        ("z^2 + (1/4)", "z^2 - (3/4)", 4),
        # disjoint at p = 2: |zeta|_2 <= 1 against |zeta|_2 = 2^(1/2)
        ("z^2", "z^2 + (1/2)", 0),
    ],
)
def test_shared_count_at_caps_3_2(f, g, count):
    assert ref.shared_count(P(f), P(g), 3, 2) == count
    assert ref.shared_count(P(g), P(f), 3, 2) == count


def test_caps_bound_the_count():
    # At caps (1, 0) only fixed points count: z^2 fixes {0, 1}, z^2 - 2 fixes
    # {2, -1}, so none is shared.  At caps (2, 1), 1 -> -1 and -1 enter;
    # 0 -> -2 -> 2 needs m = 3.
    assert ref.shared_count(P("z^2"), P("z^2 - 2"), 1, 0) == 0
    assert ref.shared_count(P("z^2"), P("z^2 - 2"), 2, 1) == 2


def test_parse_poly_program_text():
    assert P("z^3 - (5/9)z + (8/5)") == [ref.Fraction(8, 5), ref.Fraction(-5, 9), 0]
    assert P("z^4 + z^3 - 2z^2 - z") == [0, -1, -2, 1]
    with pytest.raises(ValueError):
        P("2z^2 + 1")


def test_orbit_repeats():
    assert ref.orbit_repeats(P("z^2 - 2"), ref.Fraction(-1))
    assert ref.orbit_repeats(P("z^2 - (3/4)"), ref.Fraction(3, 2))  # 3/2 -> 3/2
    assert not ref.orbit_repeats(P("z^2"), ref.Fraction(1, 2))


def test_fault_classes():
    assert ref.fault_class(P("z^2 - z"), P("z^2 - 1"), 3, 2) == "real-irrational"
    assert ref.fault_class(P("z^2 + (1/4)"), P("z^2 - (3/4)"), 3, 2) == "multiple-root"
    assert ref.fault_class(P("z^2 + (1/3)z"), P("z^2 - (2/5)z"), 3, 2) is None
    assert ref.fault_class(P("z^2"), P("z^2 + (1/2)"), 3, 2) is None


def test_chebyshev_pairing_both_ways():
    # The mutual energy is symmetric: integrating G_{z^2} = log+|z| against
    # the arcsine law of z^2 - 2 (x = 2 cos t) must give the same value.
    from scipy.integrate import quad

    other, _ = quad(lambda t: max(0.0, math.log(abs(2 * math.cos(t)))), 0, math.pi / 3)
    other = 2 * other / math.pi
    value, err = ref.chebyshev_pairing()
    assert err < 1e-10
    assert value == pytest.approx(other, abs=1e-10)
    assert 0.30 <= value <= 0.34
