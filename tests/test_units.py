import math
import random

import pytest

from wifipower.units import (
    Distance,
    Frequency,
    PowerDbm,
    PowerMw,
    dbm_to_mw,
    mw_sum_dbm,
    mw_to_dbm,
    sum_in_order,
)


def sum_dbm(ps: list[PowerDbm]) -> PowerDbm:
    """The linear sum of dBm powers, by `mw_sum_dbm`."""
    return mw_sum_dbm(dbm_to_mw(p).value for p in ps)


def test_dbm_to_mw_known_points():
    assert dbm_to_mw(PowerDbm(0.0)).value == pytest.approx(1.0, rel=1e-12)
    # 30 dBm is the 1 W regulatory limit
    assert dbm_to_mw(PowerDbm(30.0)).value == pytest.approx(1000.0, rel=1e-12)
    # frozen from the independent evaluation of 10**(-1.78)
    assert dbm_to_mw(PowerDbm(-17.8)).value == pytest.approx(0.016595869074375606, rel=1e-12)


def test_mw_to_dbm_known_points():
    assert mw_to_dbm(PowerMw(1.0)).value == pytest.approx(0.0, abs=1e-12)
    assert mw_to_dbm(PowerMw(1000.0)).value == pytest.approx(30.0, rel=1e-12)


def test_mw_to_dbm_rejects_zero():
    with pytest.raises(ValueError):
        mw_to_dbm(PowerMw(0.0))


def test_round_trip_across_range():
    for x in [-100 + 0.5 * k for k in range(401)]:
        back = mw_to_dbm(dbm_to_mw(PowerDbm(x))).value
        assert back == pytest.approx(x, rel=1e-12, abs=1e-12)


def test_sum_linear_examples():
    assert sum_dbm([PowerDbm(30.0)]).value == pytest.approx(30.0, rel=1e-12)
    # 2 * 10**2.7 mW back to dBm
    assert sum_dbm([PowerDbm(27.0)] * 2).value == pytest.approx(30.0102999566, abs=1e-9)
    # 10*log10(3)
    assert sum_dbm([PowerDbm(0.0)] * 3).value == pytest.approx(4.7712125472, abs=1e-9)


def test_sum_linear_of_silent_powers_is_minus_inf():
    # -inf dBm is zero power, and a total of zero is -inf dBm again
    assert sum_dbm([PowerDbm(-math.inf)] * 3).value == -math.inf
    assert sum_dbm([PowerDbm(-math.inf), PowerDbm(10.0)]).value == pytest.approx(10.0)


def test_sum_linear_permutation_invariant_and_monotone():
    rng = random.Random(42)
    for _ in range(50):
        ps = [PowerDbm(rng.uniform(-30, 30)) for _ in range(rng.randint(1, 6))]
        shuffled = ps[:]
        rng.shuffle(shuffled)
        assert sum_dbm(ps).value == pytest.approx(sum_dbm(shuffled).value, abs=1e-9)
        bumped = ps[:]
        i = rng.randrange(len(bumped))
        bumped[i] = PowerDbm(bumped[i].value + 1.0)
        assert sum_dbm(bumped).value > sum_dbm(ps).value


def test_dbm_plus_dbm_is_forbidden():
    with pytest.raises(TypeError):
        PowerDbm(10.0) + PowerDbm(10.0)


def test_power_dbm_rejects_nan_and_posinf():
    with pytest.raises(ValueError):
        PowerDbm(math.nan)
    with pytest.raises(ValueError):
        PowerDbm(math.inf)
    # -inf is the explicit zero-power value
    assert dbm_to_mw(PowerDbm(-math.inf)).value == 0.0


def test_power_mw_non_negative_and_additive():
    with pytest.raises(ValueError):
        PowerMw(-1.0)
    # milliwatts add only through the one linear sum
    with pytest.raises(TypeError):
        PowerMw(1.5) + PowerMw(2.5)
    assert mw_sum_dbm([1.5, 2.5]).value == mw_to_dbm(PowerMw(4.0)).value


def test_distance_feet_round_trip():
    for ft in (1.0, 5.0, 10.0, 17.0, 20.0, 28.0):
        d = Distance.from_feet(ft)
        assert d.feet == pytest.approx(ft, rel=1e-12)
    assert Distance.from_feet(1.0).meters == pytest.approx(0.3048, rel=1e-12)


def test_distance_and_frequency_validation():
    with pytest.raises(ValueError):
        Distance(-1.0)
    with pytest.raises(ValueError):
        Frequency(0.0)
    # zero distance is the documented no-range sentinel
    assert Distance(0.0).meters == 0.0


def test_sum_in_order_adds_left_to_right():
    # the builtin sum gives 1.0 here from CPython 3.12 on (compensated)
    assert sum_in_order([1e16, 1.0, -1e16]) == 0.0
    assert sum_in_order([0.1] * 10) == 0.9999999999999999
    assert sum_in_order(iter([1.5, 2.25])) == 3.75
    empty = sum_in_order([])
    assert empty == 0 and type(empty) is int
