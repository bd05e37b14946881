"""Sharp-constant registry and exact discrete-infimum scans.

The per-mode bounds below couple the best constant of a one-dimensional
product inequality with the weighted Hardy correction of the degree-k mode:

* ``hup2_mode``:   S(N, k) = (1 - 8k/(N+2k)^2) * (N+2k+2)^2 / 4
* ``hyup2_mode``:  f(N, k) = ((N+2k+1)^2/4) * (N+2k-3)^4 / ((N+2k-3)^2 + 4k)^2
                   with f(N, 0) = (N+1)^2/4 (no Hardy step at degree 0)

Their infima over k deliver the sharp constants (N+2)^2/4 (all N >= 2) and
(N+1)^2/4 (N >= 5).  Everything here is exact rational arithmetic; a scan is
accepted only when a monotone-tail certificate shows no smaller value can
exist beyond the scanned range.

``PRINCIPLES`` is the one table of each principle's sharp constant
(N + shift)^2/4, least dimension and proved range; ``MODE_BOUNDS`` holds the
correction factor and tail certificate of each per-mode bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import InconclusiveScanError, UsageError, _integer, _NameEnum


class PrincipleId(_NameEnum):
    HUP = "hup"                      # ∫|∇u|^2 ∫|x|^2|u|^2 >= c (∫|u|^2)^2
    HYUP = "hyup"                    # ∫|∇u|^2 ∫|u|^2 >= c (∫|u|^2/|x|)^2
    HUP2 = "hup2"                    # ∫|Δu|^2 ∫|x|^2|∇u|^2 >= c (∫|∇u|^2)^2
    HYUP2 = "hyup2"                  # ∫|Δu|^2 ∫|∇u|^2 >= c (∫|∇u|^2/|x|)^2
    HUP2_RADIAL = "hup2_radial"      # same as hup2 with radial derivatives
    HYUP2_RADIAL = "hyup2_radial"    # same as hyup2 with radial derivatives


PROVED = "proved"
CONJECTURAL = "conjectural"


class PrincipleSpec(NamedTuple):
    shift: int            # the sharp constant is (N + shift)^2 / 4
    least_dimension: int  # the least N the principle is stated in
    proved_from: int      # proved from this N on, conjectured below it


PRINCIPLES = {
    PrincipleId.HUP: PrincipleSpec(0, 1, 1),
    PrincipleId.HYUP: PrincipleSpec(-1, 2, 2),
    PrincipleId.HUP2: PrincipleSpec(2, 1, 1),
    PrincipleId.HYUP2: PrincipleSpec(1, 2, 5),
    PrincipleId.HUP2_RADIAL: PrincipleSpec(2, 1, 1),
    PrincipleId.HYUP2_RADIAL: PrincipleSpec(1, 2, 2),
}


@dataclass(frozen=True)
class SharpConstant:
    value: Fraction
    status: str

    def __float__(self) -> float:
        return float(self.value)


def sharp_constant(principle: PrincipleId | str, dimension: int) -> SharpConstant:
    """Sharp constant (N + shift)^2/4 of a principle in a given dimension, with
    proof status; UsageError below the principle's least dimension."""
    p = PrincipleId(principle)
    n = _integer(dimension, "dimension")
    spec = PRINCIPLES[p]
    if n < spec.least_dimension:
        raise UsageError(f"{p.value} requires dimension >= {spec.least_dimension}")
    status = PROVED if n >= spec.proved_from else CONJECTURAL
    return SharpConstant(Fraction((n + spec.shift) ** 2, 4), status)


def _hup2_correction(n: int, k: int) -> Fraction:
    return 1 - Fraction(8 * k, (n + 2 * k) ** 2)


def _hyup2_correction(n: int, k: int) -> Fraction:
    if k == 0:  # no Hardy step at degree 0
        return Fraction(1)
    t2 = (n + 2 * k - 3) ** 2
    return Fraction(t2, t2 + 4 * k) ** 2


def _hup2_tail(n: int, k_max: int) -> int | None:
    return next((k for k in range(k_max + 1) if growth_certificate(n, n + 2 * k) >= 0), None)


def _hyup2_tail(n: int, k_max: int) -> int | None:
    k = max(1, -(-(7 - n) // 2))  # ceil((7-N)/2), at least 1
    return k if k <= k_max else None


class ModeBoundSpec(NamedTuple):
    correction: Callable[[int, int], Fraction]  # Hardy correction factor at (N, k)
    certified_from: Callable[[int, int], int | None]  # tail start up to k_max, or None


#: The per-mode bound of each principle that has one: correction(N, k) times
#: the principle's sharp-constant formula at N+2k, (N+2k+shift)^2/4.
MODE_BOUNDS = {
    PrincipleId.HUP2: ModeBoundSpec(_hup2_correction, _hup2_tail),
    PrincipleId.HYUP2: ModeBoundSpec(_hyup2_correction, _hyup2_tail),
}
_MODE_NAMES = {f"{p.value}{suffix}": p for p in MODE_BOUNDS for suffix in ("", "_mode")}


def mode_principle(name: str) -> PrincipleId:
    """The principle of a per-mode bound named "hup2" or "hyup2" (or "…_mode")."""
    principle = _MODE_NAMES.get(name)
    if principle is None:
        raise UsageError(f"per-mode bounds exist for hup2 and hyup2 only, not {name!r}")
    return principle


def mode_bound(principle: PrincipleId, n: int, k: int) -> Fraction:
    """Exact per-mode bound of a ``MODE_BOUNDS`` principle; N >= 2, k >= 0 unchecked."""
    shift = PRINCIPLES[principle].shift
    return MODE_BOUNDS[principle].correction(n, k) * Fraction((n + 2 * k + shift) ** 2, 4)


def hup2_mode_bound(dimension: int, degree: int) -> Fraction:
    """Exact S(N, k) = (1 - 8k/(N+2k)^2) (N+2k+2)^2/4."""
    return mode_bound(PrincipleId.HUP2, *_check_nk(dimension, degree))


def hyup2_mode_bound(dimension: int, degree: int) -> Fraction:
    """Exact f(N, k); degree 0 carries no Hardy correction and equals (N+1)^2/4."""
    return mode_bound(PrincipleId.HYUP2, *_check_nk(dimension, degree))


def _check_nk(dimension: int, degree: int) -> tuple[int, int]:
    n, k = _integer(dimension, "dimension"), _integer(degree, "degree")
    if n < 2:
        raise UsageError("mode bounds need dimension >= 2")
    if k < 0:
        raise UsageError("degree must be >= 0")
    return n, k


def growth_certificate(dimension: int, t: int) -> int:
    """h(N, t) = t^4 - 8(N-1)t - 16N; its sign at t = N+2k certifies growth.

    h is nondecreasing in t for t >= N >= 2, and h >= 0 at t = N+2k implies
    the hup2 mode bound is nondecreasing from degree k on.
    """
    n, t = _integer(dimension, "dimension"), _integer(t, "t")
    return t**4 - 8 * (n - 1) * t - 16 * n


@dataclass(frozen=True)
class ScanResult:
    formula: str
    dimension: int
    k_max: int
    values: tuple[Fraction, ...]
    argmin: int
    infimum: Fraction
    certified_from: int
    monotone_from: int


def scan_infimum(formula: str, dimension: int, k_max: int = 64) -> ScanResult:
    """Scan a mode-bound formula over k in [0, k_max] and certify the tail.

    ``certified_from`` is the smallest degree from which the bound is provably
    nondecreasing (sign of the quartic certificate for ``hup2_mode``; the
    increasing-tail argument, valid once k >= 1 and N+2k-3 >= 4, for
    ``hyup2_mode``). A scan whose minimum could move beyond k_max raises.
    """
    principle = mode_principle(formula)
    if _integer(k_max, "k_max") < 8:
        raise UsageError("k_max must be at least 8")
    n, _ = _check_nk(dimension, 0)
    values = tuple(mode_bound(principle, n, k) for k in range(k_max + 1))
    certified_from = MODE_BOUNDS[principle].certified_from(n, k_max)

    monotone_from = k_max
    for k in range(k_max - 1, -1, -1):
        if values[k + 1] >= values[k]:
            monotone_from = k
        else:
            break

    if certified_from is None:
        raise InconclusiveScanError(
            f"{formula} tail not certified within k_max={k_max} for N={n}"
        )
    if monotone_from > certified_from:
        # The certificate promises growth from certified_from on; observing a
        # later decrease would contradict it.
        raise InconclusiveScanError(
            f"{formula} observed decrease past the certified degree for N={n}"
        )
    argmin = min(range(k_max + 1), key=lambda k: values[k])
    return ScanResult(
        formula=formula,
        dimension=n,
        k_max=k_max,
        values=values,
        argmin=argmin,
        infimum=values[argmin],
        certified_from=certified_from,
        monotone_from=monotone_from,
    )
