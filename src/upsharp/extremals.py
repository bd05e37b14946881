"""Closed-form uncertainty-principle quotients on the extremal families.

Each principle pairs two energy integrals against the square of a middle
term, read as raw degree-0 mode functionals from the seminorm term table
(``seminorms.PRINCIPLE_FUNCTIONALS``); on its extremal family the quotient
equals the sharp constant exactly, independent of the rate beta and the
amplitude. Quotients are assembled from exact Gamma/factorial moments
(``closed_form``) or recomputed numerically (``quadrature``); the two routes
are kept fully independent. The N = 1 line quotient of the second-order
Heisenberg principle (``n1_quotient_check``) is assembled the same way.

The sphere-measure factor |S^{N-1}| multiplies every integral and cancels in
every quotient; it is reported informationally only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import CONJECTURAL, PrincipleId, sharp_constant
from .errors import UsageError, _integer
from .profiles import AnalyticProfile, MixtureProfile, Mode, Profile, make_mode
from .quadrature import CLOSED_FORM, QuadratureRule, positive_normal
from .seminorms import PRINCIPLE_FUNCTIONALS, Form, eval_mode_functional

EXTREMAL_FAMILY = {
    PrincipleId.HUP: "gaussian",
    PrincipleId.HUP2: "gaussian",
    PrincipleId.HUP2_RADIAL: "gaussian",
    PrincipleId.HYUP: "exponential",
    PrincipleId.HYUP2: "hydrogen_second",
    PrincipleId.HYUP2_RADIAL: "hydrogen_second",
}

#: The note every report of a principle carries, for principles that have one.
_NOTES = dict.fromkeys(
    (PrincipleId.HUP2_RADIAL, PrincipleId.HYUP2_RADIAL),
    "radial operators reduce to the degree-0 scalar quotient on radial profiles",
)


def sphere_area(dimension: int) -> float:
    """|S^{N-1}| = 2 pi^{N/2} / Gamma(N/2); equals 2 at N=1."""
    return 2.0 * math.pi ** (dimension / 2.0) / math.gamma(dimension / 2.0)


@dataclass(frozen=True)
class QuotientReport:
    principle: PrincipleId
    dimension: int
    family: str
    rate: float
    amplitude: float
    numerator_terms: dict
    denominator: float
    quotient: float
    predicted: float
    rel_gap: float
    status: str
    mode: str
    sphere_factor: float
    note: str = ""


def _principle_quotient(
    p: PrincipleId, mode: Mode, profile: Profile, rule: QuadratureRule, subject: str
) -> tuple[float, float, float, float]:
    """The principle's raw functionals a, b, c on the profile and a·b/c²;
    DegenerateProfileError when a functional or the quotient is not a
    positive normal double (``subject`` names them), the zero profile's
    missing quotient included."""
    a, b, c = (eval_mode_functional(fid, mode, profile, Form.RAW, rule).value
               for fid in PRINCIPLE_FUNCTIONALS[p])
    c_sq = c * c
    quotient = a * b / c_sq if c_sq else math.nan
    return a, b, c, positive_normal(quotient, "the quotient of {} (a={:g}, b={:g}, c={:g})",
                                    subject, a, b, c)


def extremal_quotient(
    principle: PrincipleId | str,
    dimension: int,
    beta: float = 1.0,
    mode: str = "closed_form",
    amplitude: float = 1.0,
) -> QuotientReport:
    """Evaluate one principle's quotient on its extremal family member.

    ``mode`` selects exact moment assembly ("closed_form") or the numerical
    panel rule ("quadrature"). The quotient is beta- and amplitude-invariant;
    on the extremal family it reproduces the predicted sharp constant. The
    radial principles are evaluated as the degree-0 scalar quotient, which the
    radial operators reduce to on radial profiles; their reports say so.
    """
    p = PrincipleId(principle)
    n = _integer(dimension, "dimension")
    if mode not in ("closed_form", "quadrature"):
        raise UsageError(f"unknown evaluation mode {mode!r}")
    if beta <= 0:
        raise UsageError("beta must be positive")
    constant = sharp_constant(p, n)  # UsageError below the least dimension
    profile = AnalyticProfile(EXTREMAL_FAMILY[p], amplitude, beta)
    ids = PRINCIPLE_FUNCTIONALS[p]
    rule = QuadratureRule.CLOSED_FORM if mode == "closed_form" else QuadratureRule.PANELS
    a, b, c, quotient = _principle_quotient(
        p, make_mode(n, 0), profile, rule, f"{p.value} moments at beta={beta:g}"
    )
    predicted = float(constant.value)
    status = constant.status
    note = _NOTES.get(p, "")
    if status == CONJECTURAL:
        note = f"{note} extremality conjectural in this dimension"
    return QuotientReport(
        principle=p,
        dimension=n,
        family=profile.family,
        rate=beta,
        amplitude=amplitude,
        numerator_terms={ids[0].value: a, ids[1].value: b},
        denominator=c,
        quotient=quotient,
        predicted=predicted,
        rel_gap=abs(quotient - predicted) / predicted,
        status=status,
        mode=mode,
        sphere_factor=sphere_area(n),
        note=note.strip(),
    )


def n1_quotient_check(u: AnalyticProfile | MixtureProfile) -> float:
    """One-dimensional second-order quotient for even profiles on the line.

    For even u the full-line integrals reduce to half-line ones and the
    quotient ∫|u''|^2 ∫ r^2|u'|^2 / (∫|u'|^2)^2 is the N=1 case of the
    second-order Heisenberg principle; Gaussian input returns exactly 9/4.
    DegenerateProfileError when a moment or the quotient leaves the normal
    float range (the zero profile included).
    """
    components = u.components if isinstance(u, MixtureProfile) else (u,)
    for comp in components:
        if comp.kernel != "gauss" or comp.power != int(comp.power) or int(comp.power) % 2:
            raise UsageError("the line quotient needs an even, smooth profile")
    # Each functional has a single row on the line.
    return _principle_quotient(
        PrincipleId.HUP2, make_mode(1, 0), u, CLOSED_FORM, "hup2 moments on the line"
    )[-1]
