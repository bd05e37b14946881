import json
from fractions import Fraction

import numpy as np
import pytest

from upsharp.constants import (
    CONJECTURAL,
    MODE_BOUNDS,
    PROVED,
    ModeBoundSpec,
    PrincipleId,
    growth_certificate,
    hup2_mode_bound,
    hyup2_mode_bound,
    scan_infimum,
    sharp_constant,
)
from upsharp.errors import InconclusiveScanError, UsageError
from upsharp.reports import render_json


def test_sharp_constant_registry():
    assert sharp_constant("hup", 2).value == 1
    assert sharp_constant("hup", 3).value == Fraction(9, 4)
    assert sharp_constant("hyup", 3).value == 1
    assert sharp_constant("hup2", 2) == sharp_constant("hup2_radial", 2)
    assert sharp_constant("hup2", 2).value == 4
    assert sharp_constant("hup2", 3).value == Fraction(25, 4)
    assert sharp_constant("hyup2", 5).value == 9
    assert sharp_constant("hyup2_radial", 2).value == Fraction(9, 4)


def test_sharp_constant_statuses():
    assert sharp_constant("hyup2", 5).status == PROVED
    assert sharp_constant("hyup2", 7).status == PROVED
    for n in (2, 3, 4):
        got = sharp_constant("hyup2", n)
        assert got.status == CONJECTURAL
        assert got.value == Fraction((n + 1) ** 2, 4)
    assert sharp_constant("hyup2_radial", 2).status == PROVED


def test_sharp_constant_rejects():
    # Below its least dimension a principle states nothing, whatever its proof
    # range: asking for its constant there is a usage error (hyup at N = 1 too).
    least = {"hup": 1, "hyup": 2, "hup2": 1, "hyup2": 2, "hup2_radial": 1, "hyup2_radial": 2}
    assert set(least) == {p.value for p in PrincipleId}
    for principle, first in least.items():
        assert sharp_constant(principle, first).value >= 0
        with pytest.raises(UsageError):
            sharp_constant(principle, first - 1)
    with pytest.raises(ValueError):
        sharp_constant("nope", 3)


def test_hup2_mode_bound_spot_values():
    assert hup2_mode_bound(2, 0) == 4
    assert hup2_mode_bound(3, 0) == Fraction(25, 4)
    assert hup2_mode_bound(3, 1) == Fraction(833, 100)


def test_hup2_mode_bound_forms_agree_exactly():
    # The expanded form of S(N, k) is the reference for the factored one the
    # package evaluates, across the whole documented range.
    for n in range(2, 51):
        for k in range(0, 51):
            t = Fraction(n + 2 * k)
            expanded = (
                Fraction(n * n, 4) + n - 3 + n * k + k * k
                + Fraction(4 * (n - 1)) / t + Fraction(4 * n) / t**2
            )
            assert hup2_mode_bound(n, k) == expanded, (n, k)


def test_hyup2_mode_bound_values():
    for n in range(2, 12):
        assert hyup2_mode_bound(n, 0) == Fraction((n + 1) ** 2, 4)
    assert hyup2_mode_bound(5, 1) == Fraction(1024, 100)
    assert hyup2_mode_bound(2, 1) == Fraction(1, 4)
    # degree-0 convention covers the otherwise indeterminate (3, 0) entry
    assert hyup2_mode_bound(3, 0) == 4


def test_mode_bound_rejects():
    with pytest.raises(UsageError):
        hup2_mode_bound(1, 0)
    with pytest.raises(UsageError):
        hyup2_mode_bound(2, -1)


@pytest.mark.parametrize("bad", [2.7, 3.0, True, "3"])
def test_non_integer_dimension_or_degree_is_a_usage_error(bad):
    # Nothing truncates: 2.7 is not N = 2, and True is not 1.
    calls = [
        lambda: sharp_constant("hup2", bad),
        lambda: hup2_mode_bound(bad, 1),
        lambda: hup2_mode_bound(3, bad),
        lambda: hyup2_mode_bound(bad, 1),
        lambda: hyup2_mode_bound(3, bad),
        lambda: scan_infimum("hup2_mode", bad, 8),
        lambda: scan_infimum("hup2_mode", 3, bad),
        lambda: growth_certificate(bad, 5),
        lambda: growth_certificate(3, bad),
    ]
    for call in calls:
        with pytest.raises(UsageError, match="must be an integer"):
            call()


def test_integer_types_of_numpy_are_integers():
    assert sharp_constant("hup2", np.int64(2)).value == 4
    assert hup2_mode_bound(np.int32(3), np.int64(1)) == hup2_mode_bound(3, 1)


def test_growth_certificate_signs():
    # nonnegative from degree 1 in low dimensions, from degree 0 once N >= 4
    assert growth_certificate(2, 2) < 0 and growth_certificate(2, 4) > 0
    assert growth_certificate(3, 3) < 0 and growth_certificate(3, 5) > 0
    for n in range(4, 20):
        assert growth_certificate(n, n) > 0


def test_scan_hup2_full_range():
    for n in range(2, 51):
        res = scan_infimum("hup2_mode", n, 20)
        assert res.argmin == 0
        assert res.infimum == Fraction((n + 2) ** 2, 4)
        assert res.infimum == sharp_constant(PrincipleId.HUP2, n).value


def test_scan_hyup2_proved_range():
    for n in range(5, 51):
        res = scan_infimum("hyup2_mode", n, 20)
        assert res.argmin == 0
        assert res.infimum == Fraction((n + 1) ** 2, 4)
        # monotone from degree 1 upward (exact rational comparisons)
        for k in range(1, 20):
            assert hyup2_mode_bound(n, k + 1) >= hyup2_mode_bound(n, k)


def test_scan_hyup2_low_dimensions_documented():
    # Direct rational evaluation of the formula is the oracle here.
    def oracle(n, k):
        if k == 0:
            return Fraction((n + 1) ** 2, 4)
        t = n + 2 * k - 3
        return Fraction((n + 2 * k + 1) ** 2, 4) * Fraction(t**4, (t * t + 4 * k) ** 2)

    expected = {2: Fraction(1, 4), 3: Fraction(9, 4), 4: Fraction(3969, 676)}
    for n in (2, 3, 4):
        res = scan_infimum("hyup2_mode", n, 20)
        assert res.argmin == 1
        assert res.infimum == expected[n] == oracle(n, 1)
        assert res.infimum < Fraction((n + 1) ** 2, 4)


def test_scan_without_a_certified_tail_is_inconclusive(monkeypatch):
    # Reachable only through a bound whose tail certificate fails: one that
    # never certifies, and one that a later decrease contradicts (the real
    # hyup2 bound falls from 9/4 at k = 0 to 1/4 at k = 1 in N = 2).
    spec = MODE_BOUNDS[PrincipleId.HYUP2]
    monkeypatch.setitem(MODE_BOUNDS, PrincipleId.HYUP2,
                        ModeBoundSpec(spec.correction, lambda n, k_max: None))
    with pytest.raises(InconclusiveScanError, match="not certified"):
        scan_infimum("hyup2_mode", 2, 8)
    monkeypatch.setitem(MODE_BOUNDS, PrincipleId.HYUP2,
                        ModeBoundSpec(spec.correction, lambda n, k_max: 0))
    with pytest.raises(InconclusiveScanError, match="observed decrease"):
        scan_infimum("hyup2_mode", 2, 8)
    monkeypatch.undo()
    assert scan_infimum("hyup2_mode", 2, 8).certified_from == 3


def test_scan_validation_and_json():
    with pytest.raises(UsageError):
        scan_infimum("lemma_scan", 3, 20)
    with pytest.raises(UsageError):
        scan_infimum("hup2_mode", 3, 4)
    res = scan_infimum("hup2_mode", 2, 10)
    blob = json.loads(render_json(res))
    assert blob["k_max"] == 10
    assert blob["infimum"] == {"num": 4, "den": 1, "float": 4.0}
    assert blob["argmin"] == 0
    assert len(blob["values"]) == 11
    assert blob["values"][1] == {"num": 9, "den": 2, "float": 4.5}
    assert blob["certified_from"] == 1


def test_unknown_principle_name_is_a_usage_error():
    # UsageError is a ValueError, so callers that catch ValueError still do.
    with pytest.raises(UsageError, match="'x' is not a valid PrincipleId"):
        sharp_constant("x", 3)
    assert issubclass(UsageError, ValueError)
