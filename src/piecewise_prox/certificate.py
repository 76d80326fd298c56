"""Step-size certification from the structural constants.

Given the constants (L_g, G, F0, C, J, eps0, s0, R0, w0, d) the certificate
evaluates the decrease constants

    A      = L_g (G + sqrt(d) F0)
    kappa1 = s C w0 (eps0 - s L_g (1 - w0) (G + F0))
    kappa2 = J - 2 s F0 (G + F0)
    kappa0 = min(kappa1, kappa2)
    kappa  = kappa0 - s (s L_g (G + sqrt(d) F0) + G) (G + sqrt(d) F0)

and the admissible step-size range

    s1    = min( s0 / (G + F0),
                 eps0 / (L_g (1 - w0) (G + F0)),
                 J / (F0 G + G^2 / 2),
                 J / (2 F0 (G + F0)),
                 sup { s : kappa(s) > 0 } )
    s_max = min( s1,  eps0 / (L_g (G + sqrt(d) F0)),  1 / L_g )

+inf sentinels in C or J drop the corresponding terms: without continuous
endpoints the eps0 terms are not required, without discontinuous endpoints the
J terms vanish.  The kappa-positivity term is solved for exactly, in closed
form (``_kappa_root``), so the certificate guarantees that every s < s_max
makes kappa, kappa0, kappa1, kappa2 simultaneously positive.
For constants with C w0 eps0 <= G (G + sqrt(d) F0) no positive step satisfies
kappa > 0 and the certificate reports s_max = 0 (infeasible).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["CertificateError", "StepSizeCertificate", "certify_step_size"]


class CertificateError(ValueError):
    pass


@dataclass(frozen=True)
class StepSizeCertificate:
    L_g: float
    G: float
    F0: float
    C: float
    J: float
    eps0: Optional[float]
    s0: float
    R0: float
    w0: float
    d: int
    A: float
    terms: dict = field(repr=False)
    s1: float
    s_max: float
    binding_term: str

    @property
    def feasible(self) -> bool:
        return self.s_max > 0.0

    def kappas(self, s: float):
        """(kappa, kappa0, kappa1, kappa2) evaluated at step size s."""
        if not s > 0:
            raise ValueError("step size must be positive")
        return _kappas(s, self.L_g, self.G, self.F0, self.C, self.J, self.eps0, self.w0, self.d)

    def is_certified(self, s: float) -> bool:
        return 0.0 < s < self.s_max

    def describe(self) -> str:
        lines = [
            "step-size certificate",
            f"  inputs: L_g={self.L_g:g} G={self.G:g} F0={self.F0:g} C={self.C:g} "
            f"J={self.J:g} eps0={self.eps0 if self.eps0 is not None else 'n/a'} "
            f"s0={self.s0:g} R0={self.R0:g} w0={self.w0:g} d={self.d}",
            f"  A = {self.A:g}",
        ]
        for name, val in self.terms.items():
            lines.append(f"  term {name}: {val:g}")
        lines.append(f"  s1 = {self.s1:g}")
        lines.append(f"  s_max = {self.s_max:g}")
        lines.append(f"  binding term: {self.binding_term}")
        if self.feasible:
            ks = self.kappas(0.5 * self.s_max)
            lines.append(
                f"  at s = s_max/2: kappa={ks[0]:g} kappa0={ks[1]:g} "
                f"kappa1={ks[2]:g} kappa2={ks[3]:g}"
            )
        else:
            lines.append("  infeasible: no positive step size certifies a kappa decrease")
        return "\n".join(lines)


def certify_step_size(L_g: float, G: float, F0: float, C: float = math.inf,
                      J: float = math.inf, eps0: Optional[float] = None,
                      s0: float = math.inf, R0: float = math.inf,
                      w0: float = 0.5, d: int = 1) -> StepSizeCertificate:
    """Evaluate the certified step-size range and decrease constants.

    C and J accept +inf sentinels when no endpoint of the matching kind
    exists.  eps0 is mandatory whenever C is finite (continuous endpoints
    present); R0 is carried for reporting only.
    """
    for name, v in (("L_g", L_g), ("G", G), ("F0", F0), ("w0", w0)):
        if v < 0 or not math.isfinite(v):
            raise CertificateError(f"{name} must be finite and nonnegative")
    if L_g <= 0:
        raise CertificateError("L_g must be positive")
    if not 0.0 < w0 <= 1.0:
        raise CertificateError("w0 must lie in (0, 1]")
    if d < 1:
        raise CertificateError("d must be at least 1")
    if not (C > 0 and J > 0 and s0 > 0 and R0 > 0):  # a NaN fails too
        raise CertificateError("C, J, s0, R0 must be positive (or +inf sentinels)")
    if math.isfinite(C) and eps0 is None:
        raise CertificateError(
            "eps0 is required when continuous endpoints are present (C finite)"
        )
    if eps0 is not None and not eps0 > 0:
        raise CertificateError("eps0 must be positive")

    sqd = math.sqrt(d)
    D = G + sqd * F0
    A = L_g * D
    terms: dict[str, float] = {}

    if math.isfinite(s0) and G + F0 > 0:
        terms["s0/(G+F0)"] = s0 / (G + F0)
    if math.isfinite(C) and w0 < 1.0 and (G + F0) > 0:
        terms["eps0/(L_g(1-w0)(G+F0))"] = eps0 / (L_g * (1.0 - w0) * (G + F0))
    if math.isfinite(J):
        denom = F0 * G + 0.5 * G * G
        if denom > 0:
            terms["J/(F0 G + G^2/2)"] = J / denom
        denom = 2.0 * F0 * (G + F0)
        if denom > 0:
            terms["J/(2 F0 (G+F0))"] = J / denom
    if math.isfinite(C) or math.isfinite(J):
        terms["kappa-positivity"] = _kappa_root(L_g, G, F0, C, J, eps0, w0, d)
    if math.isfinite(C):
        terms["eps0/(L_g(G+sqrt(d)F0))"] = eps0 / (L_g * D) if D > 0 else math.inf
    terms["1/L_g"] = 1.0 / L_g

    s1_names = [n for n in terms if n not in ("eps0/(L_g(G+sqrt(d)F0))", "1/L_g")]
    s1 = min((terms[n] for n in s1_names), default=math.inf)
    s_max = min(terms.values())
    binding = min(terms, key=lambda n: terms[n])
    return StepSizeCertificate(L_g, G, F0, C, J, eps0, s0, R0, w0, d,
                               A, terms, s1, s_max, binding)


def _kappas(s, L_g, G, F0, C, J, eps0, w0, d):
    """(kappa, kappa0, kappa1, kappa2) at step size s; +inf where no term applies."""
    D = G + math.sqrt(d) * F0
    if math.isinf(C):
        k1 = math.inf
    else:
        eps0 = eps0 if eps0 is not None else math.inf
        k1 = s * C * w0 * (eps0 - s * L_g * (1.0 - w0) * (G + F0))
    k2 = J - 2.0 * s * F0 * (G + F0) if math.isfinite(J) else math.inf
    k0 = min(k1, k2)
    kappa = math.inf if k0 == math.inf else k0 - s * (s * L_g * D + G) * D
    return kappa, k0, k1, k2


def _kappa_root(L_g, G, F0, C, J, eps0, w0, d) -> float:
    """sup { s > 0 : kappa(s) > 0 } in closed form; 0 when the set is empty.

    With D = G + sqrt(d) F0, kappa(s) > 0 exactly when each present branch
    of kappa0 exceeds s (s L_g D + G) D.  For kappa1 that is s times a
    linear function of s: s < (C w0 eps0 - G D) / (L_g (C w0 (1 - w0)
    (G + F0) + D^2)), never when the numerator is <= 0.  For kappa2 it is
    J - c s - L_g D^2 s^2 > 0 with c = 2 F0 (G + F0) + G D, whose positive
    root is 2J / (c + sqrt(c^2 + 4 L_g D^2 J)).  A zero denominator leaves
    its branch positive at every s.
    """
    D = G + math.sqrt(d) * F0
    root = math.inf
    if math.isfinite(C):
        num = C * w0 * eps0 - G * D
        if num <= 0:
            return 0.0
        den = L_g * (C * w0 * (1.0 - w0) * (G + F0) + D * D)
        if den > 0:
            root = num / den
    if math.isfinite(J):
        c = 2.0 * F0 * (G + F0) + G * D
        den = c + math.sqrt(c * c + 4.0 * L_g * D * D * J)
        if den > 0:
            root = min(root, 2.0 * J / den)
    return root
