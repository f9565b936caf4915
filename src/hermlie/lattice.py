"""Integrality probes for ``exp(t ad_X)`` restricted to the nilradical.

For an almost nilpotent algebra ``g = n ⋊ span(X)``, a cocompact lattice in
the corresponding simply connected group can be constructed whenever there
are a nonzero ``t`` and a rational basis of ``n`` in which the matrix of
``exp(t ad_X|_n)`` has integer entries.  :func:`run_probe` is one path from
text to verdict: it parses ``X`` and ``t`` with the structure-equation parser
of :mod:`hermlie.liealg` (``pi`` or ``π`` is the one name), computes ``ad_X``
exactly on the rational basis of :func:`~hermlie.liealg.find_nilradical`,
from the rational value of each float of ``X``, rounds it to floats once,
evaluates the exponential with scipy's scaling-and-squaring ``expm`` and tests
integrality to a tolerance.  ``t`` is never searched for automatically: it
comes from the caller or from :data:`BUILTIN_PROBES`.

The probe is one-sided: an integral matrix certifies the construction
applies, while a non-integral one for a particular ``(X, t, basis)`` decides
nothing.  For ``s6.152`` the probe is inconclusive by design.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from ._lazy import np
from .scalars import GaussianRational
from .liealg import LieAlgebra, find_nilradical, parse_form, parse_scalar
from .catalog import get_entry

__all__ = [
    "parse_time",
    "parse_vector",
    "ad_restricted",
    "exact_exp_nilpotent",
    "integrality_check",
    "run_probe",
    "builtin_probe",
    "BUILTIN_PROBES",
]

#: The one name lattice expressions may use.  It is bound to the exact value
#: of the float ``math.pi``, so every expression is real, is reduced exactly
#: and is rounded to a float once.
_PI = {"pi": Fraction(math.pi)}


def _float(x: Fraction) -> float:
    """``x`` rounded to a float; a value beyond the float range is a bad input."""
    try:
        return float(x)
    except OverflowError:
        raise ValueError("a value overflows a float") from None


def parse_time(text: str) -> float:
    """Parse a time expression such as ``2pi``, ``π/2``, ``1`` or ``3/4``."""
    return _float(parse_scalar(text.replace("π", "pi"), _PI).re)


def parse_vector(text: str, dim: int = 6) -> np.ndarray:
    """Parse a vector like ``f6-((pi-1)/pi)f5`` into float components."""
    form = parse_form(text.replace("π", "pi"), _PI, degree=1, dim=dim)
    return np.array([_float(GaussianRational.coerce(form.coeff(i)).re)
                     for i in range(1, dim + 1)])


def ad_restricted(g: LieAlgebra, X: Sequence[float], basis) -> np.ndarray:
    """Matrix of ``ad_X`` on ``span(basis)``; error if the span moves.

    Each float of ``X`` is read as the rational it stores exactly, and column
    ``j`` holds the exact coordinates of ``[X, basis[j]]`` in ``basis``; the
    matrix is rounded to floats once, at the end.
    """
    x = [GaussianRational(Fraction(v)) for v in X]
    rows = [[GaussianRational.coerce(c) for c in row] for row in basis]
    columns = list(zip(*rows))  # basis vectors as columns
    coords = []
    for b in rows:
        c = linalg.solve(columns, g.bracket(x, b))
        if c is None:
            raise ValueError("ad_X does not preserve the span of the given basis")
        coords.append([_float(v.re) for v in c])
    return np.array(coords).T


def exact_exp_nilpotent(A, t) -> list:
    """Exact ``exp(t A)`` for nilpotent rational ``A`` via the finite series."""
    k = len(A)
    A = [[Fraction(x) for x in row] for row in A]
    t = Fraction(t)

    def matmul(P, Q):
        return [[sum(P[i][l] * Q[l][j] for l in range(k)) for j in range(k)]
                for i in range(k)]

    result = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    power = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    coeff = Fraction(1)
    for m in range(1, k + 1):
        power = matmul(power, A)
        coeff = coeff * t / m
        if all(x == 0 for row in power for x in row):
            return result
        for i in range(k):
            for j in range(k):
                result[i][j] += coeff * power[i][j]
    raise ValueError("matrix is not nilpotent")


def integrality_check(matrix: np.ndarray, tol: float = 1e-9):
    """True iff all entries are near integers and |det| is near 1."""
    M = np.asarray(matrix, dtype=float)
    rounded = np.rint(M)
    entry_ok = bool(np.max(np.abs(M - rounded)) <= tol)
    det_ok = bool(abs(abs(float(np.linalg.det(M))) - 1.0) <= tol)
    return entry_ok and det_ok, rounded.astype(int).tolist()


#: Probes with a known decisive answer, as (X, t, presentation); None marks
#: a deliberately open case.  The s6.147^0 probe is integral in its "table1"
#: presentation (the probe vector is tied to that choice of basis).
BUILTIN_PROBES = {
    "s6.147^0": ("f6-((pi-1)/pi)f5", "2pi", "table1"),
    "s6.154^0": ("f6", "2pi", None),
    "s6.152": None,
}


def run_probe(g: LieAlgebra, x_text: str, t_text: str,
              tolerance: float = 1e-9, name: Optional[str] = None) -> dict:
    """Evaluate one probe and report the matrix with its integrality verdict."""
    from scipy.linalg import expm  # imported here: the probe is its only user

    A = ad_restricted(g, parse_vector(x_text, g.dim), find_nilradical(g))
    with np.errstate(over="ignore", invalid="ignore"):
        M = expm(parse_time(t_text) * A)
    if not np.isfinite(M).all():
        raise ValueError("exp(t ad_X) overflows a float")
    integral, rounded = integrality_check(M, tolerance)
    return {
        "algebra": name or g.name,
        "X": x_text,
        "t": t_text,
        "matrix": M.tolist(),
        "integral": integral,
        "rounded": rounded if integral else None,
        "status": "integral" if integral else "not integral at this (X, t)",
        "note": "" if integral else
                "a failed probe decides nothing (evidence, not proof)",
    }


def builtin_probe(name: str) -> dict:
    """Run the stored probe for a catalog algebra, if one is known."""
    if name not in BUILTIN_PROBES:
        raise KeyError(f"no built-in probe for {name!r}")
    spec = BUILTIN_PROBES[name]
    if spec is None:
        return {
            "algebra": name,
            "status": "inconclusive",
            "note": "lattice existence deliberately left open for this algebra",
        }
    x_text, t_text, presentation = spec
    g = get_entry(name).algebra_instance(presentation=presentation)
    return run_probe(g, x_text, t_text, name=name)
