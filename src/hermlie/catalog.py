"""Catalog of six-dimensional strongly unimodular almost nilpotent Lie
algebras carrying complex structures, with golden example structures.

Each entry records: structure equations (with alternative presentations where
the literature uses several isomorphic ones), parameter constraints and
default sample values, the nilradical type, the associated complex-structure
families, the expected verdict for each Hermitian condition, and explicit
example structures (J, omega, and a twisted 1-form mu where relevant).

Claims use three statuses: ``"all"`` (every allowed parameter value admits
the structure), ``"never"``, or a constraint string describing the
subfamily that does (e.g. ``"p=0"``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .cpx import is_integrable, j_from_images
from .forms import Form
from .herm import CHECKERS, is_positive_form, verify_twisted_certificate
from .liealg import (
    LieAlgebra,
    _strongly_unimodular_on,
    is_solvable,
    jacobi_holds,
    parse_form,
    parse_scalar,
    parse_structure_equations,
    verify_nilradical,
)
from .scalars import GR_ONE, GR_ZERO

F = Fraction

CONDITIONS = ("kahler", "skt", "balanced", "lck", "lcskt", "lcb", "first_gauduchon")

#: Bumped whenever the registry data (entries, examples, claims) changes.
CATALOG_VERSION = "2024.1"


@dataclass
class ExampleStructure:
    algebra: str
    conditions: tuple
    equations: str
    params: dict = field(default_factory=dict)
    constraint: str = ""
    j_images: Optional[dict] = None   # {basis index: 1-form text}
    j_matrix: Optional[list] = None   # rows of coefficient expressions
    omega: str = ""
    mu: Optional[str] = None

    def algebra_instance(self) -> LieAlgebra:
        return parse_structure_equations(self.equations, self.params, name=self.algebra)

    def j(self) -> list:
        if self.j_matrix is not None:
            if len(self.j_matrix) != 6 or any(len(row) != 6 for row in self.j_matrix):
                raise ValueError("j_matrix must be 6x6")
            return [[parse_scalar(str(x), self.params) for x in row] for row in self.j_matrix]
        if not self.j_images:
            raise ValueError("need j_images or j_matrix")
        images = {}
        for idx, text in self.j_images.items():
            form = parse_form(text, self.params, degree=1)
            images[idx] = [form.coeff(i) for i in range(1, 7)]
        return j_from_images(images)

    def omega_form(self) -> Form:
        return parse_form(self.omega, self.params, degree=2)

    def mu_form(self) -> Optional[Form]:
        if self.mu is None:
            return None
        return parse_form(self.mu, self.params, degree=1)

    def parse(self) -> tuple:
        """Every expression of the example parsed once: ``(g, J, omega, mu)``,
        with ``omega`` and ``mu`` None when the example has none."""
        return (self.algebra_instance(), self.j(),
                self.omega_form() if self.omega else None, self.mu_form())


@dataclass
class CatalogEntry:
    name: str
    equations: str
    constraint: str
    defaults: dict
    nilradical: str
    families: tuple
    claims: dict
    variants: dict = field(default_factory=dict)
    examples: list = field(default_factory=list)
    admits_complex: bool = True

    def algebra_instance(self, params: Optional[dict] = None,
                         presentation: Optional[str] = None) -> LieAlgebra:
        eqs = self.equations if presentation is None else self.variants[presentation]
        return parse_structure_equations(
            eqs, params if params is not None else self.defaults, name=self.name)


def _ex(algebra, conditions, eqs, omega, j_images=None, j_matrix=None,
        mu=None, params=None, constraint=""):
    return ExampleStructure(
        algebra=algebra,
        conditions=tuple(conditions),
        equations=eqs,
        params=dict(params or {}),
        constraint=constraint,
        j_images=j_images,
        j_matrix=j_matrix,
        omega=omega,
        mu=mu,
    )


_J_STANDARD = {1: "f2", 3: "f4", 5: "f6"}


def _entries() -> list[CatalogEntry]:
    out = []

    # -- almost abelian --------------------------------------------------
    eq = "(f26, -f16, 0, 0, 0, 0)"
    out.append(CatalogEntry(
        "s3.3^0+R3", eq, "", {}, "R5", ("AA-s3.3^0+R3",),
        {c: "all" for c in CONDITIONS},
        examples=[_ex("s3.3^0+R3",
                      ("kahler", "skt", "balanced", "lck", "lcskt", "lcb",
                       "first_gauduchon"),
                      eq, "f12+f34+f56", j_images=_J_STANDARD, mu="f6")],
    ))

    eq = "(f16, -1/2f26, -1/2f36, 0, 0, 0)"
    out.append(CatalogEntry(
        "s4.3^-1/2,-1/2+R2", eq, "", {}, "R5", ("AA-s4.3+R2",),
        {"kahler": "never", "skt": "all", "balanced": "never", "lck": "never",
         "lcskt": "never", "lcb": "all", "first_gauduchon": "all"},
        examples=[_ex("s4.3^-1/2,-1/2+R2", ("skt", "lcb", "first_gauduchon"),
                      eq, "f16+f23+f45",
                      j_images={1: "f6", 2: "f3", 4: "f5"})],
    ))

    eq = "(pf16, -p/2f26+f36, -f26-p/2f36, 0, 0, 0)"
    out.append(CatalogEntry(
        "s4.5^p,-p/2+R2", eq, "p>0", {"p": F(1)}, "R5", ("AA-s4.5+R2",),
        {"kahler": "never", "skt": "all", "balanced": "never", "lck": "never",
         "lcskt": "never", "lcb": "all", "first_gauduchon": "all"},
        examples=[_ex("s4.5^p,-p/2+R2", ("skt", "lcb", "first_gauduchon"),
                      eq, "f16+f23+f45", params={"p": F(1)}, constraint="p>0",
                      j_images={1: "f6", 2: "f3", 4: "f5"})],
    ))

    eq = "(f26, 0, f46, -f36, 0, 0)"
    out.append(CatalogEntry(
        "s5.4^0+R", eq, "", {}, "R5", ("AA-s5.4^0+R",),
        # The stored SKT example has Lee form f5, which is closed, so it is
        # also LCB; the claim records what the exact checker certifies.
        {"kahler": "never", "skt": "all", "balanced": "never", "lck": "never",
         "lcskt": "all", "lcb": "all", "first_gauduchon": "all"},
        examples=[_ex("s5.4^0+R", ("skt", "lcskt", "lcb", "first_gauduchon"),
                      eq, "f15+f26+f34", mu="f6",
                      j_images={1: "f5", 2: "f6", 3: "f4"})],
    ))

    eq = "(f26+f36, -f16+f46, f46, -f36, 0, 0)"
    out.append(CatalogEntry(
        "s5.8^0+R", eq, "", {}, "R5", ("AA-s5.8^0+R",),
        {"kahler": "never", "skt": "never", "balanced": "all", "lck": "never",
         "lcskt": "never", "lcb": "all", "first_gauduchon": "never"},
        examples=[_ex("s5.8^0+R", ("balanced", "lcb"), eq,
                      "f12+f34+f56", j_images=_J_STANDARD)],
    ))

    eq = "(f16, f26, -f36, -f46, 0, 0)"
    out.append(CatalogEntry(
        "s5.9^1,-1,-1+R", eq, "", {}, "R5", ("AA-s5.9+R",),
        {"kahler": "never", "skt": "never", "balanced": "all", "lck": "never",
         "lcskt": "never", "lcb": "all", "first_gauduchon": "never"},
        examples=[_ex("s5.9^1,-1,-1+R", ("balanced", "lcb"), eq,
                      "f12+f34+f56", j_images=_J_STANDARD)],
    ))

    eq = "(pf16, pf26, -pf36+f46, -f36-pf46, 0, 0)"
    out.append(CatalogEntry(
        "s5.11^p,p,-p+R", eq, "p>0", {"p": F(1)}, "R5", ("AA-s5.11+R",),
        {"kahler": "never", "skt": "never", "balanced": "all", "lck": "never",
         "lcskt": "never", "lcb": "all", "first_gauduchon": "never"},
        examples=[_ex("s5.11^p,p,-p+R", ("balanced", "lcb"), eq,
                      "f12+f34+f56", params={"p": F(1)}, constraint="p>0",
                      j_images=_J_STANDARD)],
    ))

    eq = "(pf16+f26, -f16+pf26, -pf36+rf46, -rf36-pf46, 0, 0)"
    out.append(CatalogEntry(
        "s5.13^p,-p,r+R", eq, "r>0", {"p": F(1), "r": F(2)}, "R5",
        ("AA-s5.13+R",),
        {"kahler": "p=0", "skt": "p=0", "balanced": "all", "lck": "p=0",
         "lcskt": "p=0", "lcb": "all", "first_gauduchon": "p=0"},
        examples=[
            _ex("s5.13^p,-p,r+R",
                ("kahler", "skt", "balanced", "lck", "lcskt", "lcb",
                 "first_gauduchon"),
                "(f26, -f16, rf46, -rf36, 0, 0)", "f12+f34+f56",
                params={"r": F(2)}, constraint="p=0, r>0",
                j_images=_J_STANDARD, mu="f6"),
            _ex("s5.13^p,-p,r+R", ("balanced", "lcb"), eq, "f12+f34+f56",
                params={"p": F(1), "r": F(2)}, constraint="p!=0, r>0",
                j_images=_J_STANDARD),
        ],
    ))

    eq = "(-1/4f16+f26, -1/4f26, -1/4f36+f46, -1/4f46, f56, 0)"
    out.append(CatalogEntry(
        "s6.14^-1/4,-1/4", eq, "", {}, "R5", ("AA-s6.14",),
        {"kahler": "never", "skt": "never", "balanced": "never", "lck": "never",
         "lcskt": "never", "lcb": "all", "first_gauduchon": "all"},
        examples=[_ex("s6.14^-1/4,-1/4", ("lcb", "first_gauduchon"), eq,
                      "f13+4f24+f56",
                      j_images={1: "f3", 2: "f4", 5: "f6"})],
    ))

    eq = "(pf16+f26+f36, -f16+pf26+f46, pf36+f46, -f36+pf46, -4pf56, 0)"
    out.append(CatalogEntry(
        "s6.16^p,-4p", eq, "p<0", {"p": F(-1)}, "R5", ("AA-s6.16",),
        {"kahler": "never", "skt": "never", "balanced": "never", "lck": "never",
         "lcskt": "never", "lcb": "all", "first_gauduchon": "all"},
        examples=[_ex("s6.16^p,-4p", ("lcb", "first_gauduchon"), eq,
                      "4p^2f12+f34+f56", params={"p": F(-1)}, constraint="p<0",
                      j_images=_J_STANDARD)],
    ))

    eq = "(f16, f26, qf36, qf46, -2(1+q)f56, 0)"
    out.append(CatalogEntry(
        "s6.17^1,q,q,-2(1+q)", eq, "0<|q|<=1, q!=-1", {"q": F(1, 2)}, "R5",
        ("AA-s6.17",),
        {"kahler": "never", "skt": "never", "balanced": "never", "lck": "q=1",
         "lcskt": "q=1", "lcb": "all", "first_gauduchon": "0<q<1"},
        examples=[
            _ex("s6.17^1,q,q,-2(1+q)", ("lcb",), eq, "f12+f34+f56",
                params={"q": F(-1, 2)}, constraint="-1<q<0",
                j_images=_J_STANDARD),
            _ex("s6.17^1,q,q,-2(1+q)", ("lcb", "first_gauduchon"), eq,
                "f12+4f13+4f24+(4(1+q)^2/q)f34+2f56",
                params={"q": F(1, 2)}, constraint="0<q<1",
                j_images=_J_STANDARD),
            _ex("s6.17^1,q,q,-2(1+q)", ("lck", "lcskt"),
                "(f16, f26, f36, f46, -4f56, 0)",
                "f12+f34+f56", constraint="q=1",
                j_images=_J_STANDARD, mu="2f6"),
        ],
    ))

    eq = "(f16+f26, f26, f36, -3/2f46, -3/2f56, 0)"
    out.append(CatalogEntry(
        "s6.18^1,-3/2,-3/2", eq, "", {}, "R5", ("AA-s6.18",),
        {c: "never" for c in CONDITIONS},
        examples=[_ex("s6.18^1,-3/2,-3/2", (), eq, "",
                      j_images={1: "f3", 2: "f6", 4: "f5"})],
    ))

    eq = "(pf16, pf26, qf36, -(p+q/2)f46+f56, -f46-(p+q/2)f56, 0)"
    out.append(CatalogEntry(
        "s6.19^p,p,q,-p-q/2", eq, "p!=0, q!=0", {"p": F(1), "q": F(-2)}, "R5",
        ("AA-s6.19",),
        {"kahler": "never", "skt": "q=-2p", "balanced": "never",
         "lck": "q=-4p", "lcskt": "q=-4p", "lcb": "all",
         "first_gauduchon": "p(2p+q)<=0"},
        examples=[
            _ex("s6.19^p,p,q,-p-q/2", ("skt", "lcb"),
                "(pf16, pf26, -2pf36, f56, -f46, 0)", "f12+f36+f45",
                params={"p": F(1)}, constraint="q=-2p, p!=0",
                j_images={1: "f2", 3: "f6", 4: "f5"}),
            _ex("s6.19^p,p,q,-p-q/2", ("lck", "lcskt"),
                "(pf16, pf26, -4pf36, pf46+f56, -f46+pf56, 0)",
                "f12+f36+f45", params={"p": F(1)}, constraint="q=-4p, p!=0",
                j_images={1: "f2", 3: "f6", 4: "f5"}, mu="2pf6"),
            _ex("s6.19^p,p,q,-p-q/2", ("first_gauduchon",),
                "(pf16, pf26, -4pf36, pf46+f56, -f46+pf56, 0)",
                "f12+8f14+8f25+4f36+80f45",
                params={"p": F(1)}, constraint="q=-4p, p=1",
                j_images={1: "f2", 3: "f6", 4: "f5"}),
            _ex("s6.19^p,p,q,-p-q/2", ("lcb", "first_gauduchon"), eq,
                "f12+8f14+8f25+4f36-(8(q^2+4)/(p(2p+q)))f45",
                params={"p": F(1), "q": F(-3)},
                constraint="p(2p+q)<0, q!=-4p",
                j_images={1: "f2", 3: "f6", 4: "f5"}),
            _ex("s6.19^p,p,q,-p-q/2", ("lcb",), eq, "f12+f36+f45",
                params={"p": F(1), "q": F(1)}, constraint="p(2p+q)>0, q!=0",
                j_images={1: "f2", 3: "f6", 4: "f5"}),
        ],
    ))

    eq = "(pf16+f26, pf26, pf36, -3/2pf46+f56, -f46-3/2pf56, 0)"
    out.append(CatalogEntry(
        "s6.20^p,p,-3/2p", eq, "p>0", {"p": F(1)}, "R5", ("AA-s6.20",),
        {c: "never" for c in CONDITIONS},
        examples=[_ex("s6.20^p,p,-3/2p", (), eq, "", params={"p": F(1)},
                      constraint="p>0",
                      j_images={1: "f3", 2: "f6", 4: "f5"})],
    ))

    eq = "(pf16+f26, -f16+pf26, qf36+rf46, -rf36+qf46, -2(p+q)f56, 0)"
    out.append(CatalogEntry(
        "s6.21^p,q,r,-2(p+q)", eq, "|p|>=|q|, q!=-p, r>0",
        {"p": F(2), "q": F(1), "r": F(1)}, "R5", ("AA-s6.21",),
        {"kahler": "never", "skt": "q=0, p!=0", "balanced": "never",
         "lck": "q=p, p!=0", "lcskt": "q=p, p!=0", "lcb": "all",
         "first_gauduchon": "pq>=0, p!=0"},
        examples=[
            _ex("s6.21^p,q,r,-2(p+q)", ("skt", "lcb"),
                "(pf16+f26, -f16+pf26, rf46, -rf36, -2pf56, 0)",
                "f12+f34+f56", params={"p": F(1), "r": F(1)},
                constraint="q=0, p!=0, r>0", j_images=_J_STANDARD),
            _ex("s6.21^p,q,r,-2(p+q)", ("lck", "lcskt"),
                "(pf16+f26, -f16+pf26, pf36+rf46, -rf36+pf46, -4pf56, 0)",
                "f12+f34+f56", params={"p": F(1), "r": F(2)},
                constraint="q=p!=0, r>0", j_images=_J_STANDARD, mu="2pf6"),
            _ex("s6.21^p,q,r,-2(p+q)", ("first_gauduchon",),
                "(pf16+f26, -f16+pf26, pf36+rf46, -rf36+pf46, -4pf56, 0)",
                "f12+2f13+2f24+((4p^2+(r-1)^2)/(p^2))f34+f56",
                params={"p": F(1), "r": F(2)}, constraint="q=p!=0, r>0",
                j_images=_J_STANDARD),
            _ex("s6.21^p,q,r,-2(p+q)", ("lcb", "first_gauduchon"), eq,
                "f12+2f13+2f24+(((p+q)^2+(r-1)^2)/(p*q))f34+f56",
                params={"p": F(2), "q": F(1), "r": F(1)},
                constraint="pq>0, |p|>|q|, r>0", j_images=_J_STANDARD),
            _ex("s6.21^p,q,r,-2(p+q)", ("lcb",), eq, "f12+f34+f56",
                params={"p": F(2), "q": F(-1), "r": F(1)},
                constraint="pq<0, |p|>|q|, r>0", j_images=_J_STANDARD),
        ],
    ))

    # -- Heisenberg-type nilradical --------------------------------------
    eq = "(f23, 0, 0, f56, -f46, 0)"
    out.append(CatalogEntry(
        "h3+s3.3^0", eq, "", {}, "h3+R2", ("HT-h3+s3.3^0",),
        {"kahler": "never", "skt": "all", "balanced": "never", "lck": "never",
         "lcskt": "all", "lcb": "all", "first_gauduchon": "all"},
        examples=[_ex("h3+s3.3^0", ("skt", "lcskt", "lcb", "first_gauduchon"),
                      eq, "f16+f23+f45", mu="f2",
                      j_images={1: "f6", 2: "f3", 4: "f5"})],
    ))

    eq = "(f23, f26, -f36, 0, 0, 0)"
    out.append(CatalogEntry(
        "s4.6+R2", eq, "", {}, "h3+R2", (),
        {"kahler": "never", "skt": "all", "balanced": "never", "lck": "never",
         "lcskt": "never", "lcb": "all", "first_gauduchon": "all"},
        examples=[_ex("s4.6+R2", ("skt", "lcb", "first_gauduchon"), eq,
                      "f12+f36+f45",
                      j_images={1: "f2", 3: "f6", 4: "f5"})],
    ))

    eq = "(f23, f36, -f26, 0, 0, 0)"
    out.append(CatalogEntry(
        "s4.7+R2", eq, "", {}, "h3+R2", ("HT-s4.7+R2",),
        {"kahler": "never", "skt": "all", "balanced": "never", "lck": "never",
         "lcskt": "never", "lcb": "all", "first_gauduchon": "all"},
        examples=[_ex("s4.7+R2", ("skt", "lcb", "first_gauduchon"), eq,
                      "f16+f23+f45",
                      j_images={1: "f6", 2: "f3", 4: "f5"})],
    ))

    eq = "(f23+f46, f36, -f26, 0, 0, 0)"
    out.append(CatalogEntry(
        "s5.16+R", eq, "", {}, "h3+R2", (),
        {"kahler": "never", "skt": "never", "balanced": "all", "lck": "all",
         "lcskt": "never", "lcb": "all", "first_gauduchon": "all"},
        examples=[
            _ex("s5.16+R", ("balanced", "lcb"), eq, "f15+f23-f46",
                j_images={1: "f5", 2: "f3", 4: "-f6"}),
            _ex("s5.16+R", ("lck", "lcb"), eq, "f15+f23+f46",
                j_images={1: "f5", 2: "f3", 4: "f6"}),
            _ex("s5.16+R", ("first_gauduchon",), eq,
                "f13+f15+2f23+f25+f46",
                j_images={1: "f5", 2: "f3", 4: "f6"}),
        ],
    ))

    eq = "(f23, f36, -f26, 0, f46, 0)"
    out.append(CatalogEntry(
        "s6.25", eq, "", {}, "h3+R2", (),
        {"kahler": "never", "skt": "all", "balanced": "never", "lck": "never",
         "lcskt": "never", "lcb": "never", "first_gauduchon": "all"},
        examples=[_ex("s6.25", ("skt", "first_gauduchon"), eq,
                      "f15+f23+f46",
                      j_images={1: "f5", 2: "f3", 4: "f6"})],
    ))

    eq = "(f23, f36, -f26, f26+f56, f36-f46, 0)"
    out.append(CatalogEntry(
        "s6.44", eq, "", {}, "h3+R2", ("HT-s6.44",),
        {"kahler": "never", "skt": "never", "balanced": "never", "lck": "never",
         "lcskt": "never", "lcb": "all", "first_gauduchon": "never"},
        examples=[_ex("s6.44", ("lcb",), eq, "f16+f23+f45",
                      j_images={1: "f6", 2: "f3", 4: "f5"})],
    ))

    eq = "(f23, pf26, -pf36, f56, -f46, 0)"
    out.append(CatalogEntry(
        "s6.51^p,0", eq, "p>0", {"p": F(2)}, "h3+R2", (),
        {"kahler": "never", "skt": "all", "balanced": "never", "lck": "never",
         "lcskt": "never", "lcb": "all", "first_gauduchon": "all"},
        examples=[_ex("s6.51^p,0", ("skt", "lcb", "first_gauduchon"), eq,
                      "pf12+f36+f45", params={"p": F(2)}, constraint="p>0",
                      j_images={1: "pf2", 3: "f6", 4: "f5"})],
    ))

    eq = "(f23, f36, -f26, qf56, -qf46, 0)"
    out.append(CatalogEntry(
        "s6.52^0,q", eq, "q>0", {"q": F(3)}, "h3+R2", ("HT-s6.52",),
        {"kahler": "never", "skt": "all", "balanced": "never", "lck": "never",
         "lcskt": "never", "lcb": "all", "first_gauduchon": "all"},
        examples=[_ex("s6.52^0,q", ("skt", "lcb", "first_gauduchon"), eq,
                      "f16+f23+f45", params={"q": F(3)}, constraint="q>0",
                      j_images={1: "f6", 2: "f3", 4: "f5"})],
    ))

    eq = "(f24+f35, 0, f36, 0, -f56, 0)"
    out.append(CatalogEntry(
        "s6.158", eq, "", {}, "h3+R2", (),
        {"kahler": "never", "skt": "all", "balanced": "never", "lck": "never",
         "lcskt": "never", "lcb": "all", "first_gauduchon": "all"},
        examples=[
            _ex("s6.158", ("skt", "first_gauduchon"), eq, "f13+f24+f56",
                j_images={1: "f3", 2: "f4", 5: "f6"}),
            _ex("s6.158", ("lcb",), eq, "f13+f24-f35+f56",
                j_matrix=[
                    ["0", "0", "-1", "0", "0", "1"],
                    ["0", "0", "0", "-1", "0", "0"],
                    ["1", "0", "0", "0", "1", "0"],
                    ["0", "1", "0", "0", "0", "0"],
                    ["0", "0", "0", "0", "0", "-1"],
                    ["0", "0", "0", "0", "1", "0"],
                ]),
        ],
    ))

    out.append(CatalogEntry(
        "s6.159", "(f24+f35, 0, -f56, 0, f36, 0)", "", {}, "h3+R2",
        ("HT-s6.159",),
        {"kahler": "never", "skt": "never", "balanced": "all", "lck": "all",
         "lcskt": "never", "lcb": "all", "first_gauduchon": "all"},
        variants={"example": "(f24+f35, 0, f56, 0, -f36, 0)"},
        examples=[
            _ex("s6.159", ("balanced", "lcb"),
                "(f24+f35, 0, f56, 0, -f36, 0)", "f16-f24+f35",
                j_images={1: "f6", 2: "-f4", 3: "f5"}),
            _ex("s6.159", ("lck", "lcb"),
                "(f24+f35, 0, f56, 0, -f36, 0)", "f16+f24+f35",
                j_images={1: "f6", 2: "f4", 3: "f5"}),
            _ex("s6.159", ("first_gauduchon",),
                "(f24+f35, 0, f56, 0, -f36, 0)",
                "f16-f23+2f24+f35-f45",
                j_images={1: "f6", 2: "f4", 3: "f5"}),
        ],
    ))

    eq = "(f24+f35, f26, f36, -f46, -f56, 0)"
    out.append(CatalogEntry(
        "s6.162^1", eq, "", {}, "h3+R2", ("HT-s6.162^1",),
        {"kahler": "never", "skt": "never", "balanced": "all", "lck": "never",
         "lcskt": "never", "lcb": "all", "first_gauduchon": "never"},
        examples=[_ex("s6.162^1", ("balanced", "lcb"), eq, "f16+f23+f45",
                      j_images={1: "f6", 2: "f3", 4: "f5"})],
    ))

    eq = "(f24+f35, pf26, f56, -pf46, -f36, 0)"
    out.append(CatalogEntry(
        "s6.164^p", eq, "p>0", {"p": F(2)}, "h3+R2", (),
        {"kahler": "never", "skt": "all", "balanced": "never", "lck": "never",
         "lcskt": "never", "lcb": "all", "first_gauduchon": "all"},
        examples=[
            _ex("s6.164^p", ("skt", "first_gauduchon"), eq,
                "pf12+f35+f46", params={"p": F(2)}, constraint="p>0",
                j_images={1: "pf2", 3: "f5", 4: "f6"}),
            _ex("s6.164^p", ("lcb",), eq, "pf12-f24+f35+f46",
                params={"p": F(2)}, constraint="p>0",
                j_matrix=[
                    ["0", "-1/p", "0", "0", "0", "1/p"],
                    ["p", "0", "0", "1", "0", "0"],
                    ["0", "0", "0", "0", "-1", "0"],
                    ["0", "0", "0", "0", "0", "-1"],
                    ["0", "0", "1", "0", "0", "0"],
                    ["0", "0", "0", "1", "0", "0"],
                ]),
        ],
    ))

    eq = "(f24+f35, pf26+f36, -f26+pf36, -pf46+f56, -f46-pf56, 0)"
    out.append(CatalogEntry(
        "s6.165^p", eq, "p>0", {"p": F(1)}, "h3+R2", ("HT-s6.165",),
        {"kahler": "never", "skt": "never", "balanced": "all", "lck": "never",
         "lcskt": "never", "lcb": "all", "first_gauduchon": "never"},
        examples=[_ex("s6.165^p", ("balanced", "lcb"), eq, "f16+f23+f45",
                      params={"p": F(1)}, constraint="p>0",
                      j_images={1: "f6", 2: "f3", 4: "f5"})],
    ))

    out.append(CatalogEntry(
        "s6.166^p", "(f24+f35, -f46, -pf56, f26, pf36, 0)", "0<|p|<=1",
        {"p": F(1, 2)}, "h3+R2", ("HT-s6.166",),
        {"kahler": "never", "skt": "never", "balanced": "all", "lck": "all",
         "lcskt": "never", "lcb": "all", "first_gauduchon": "p!=1"},
        variants={"example": "(f24+f35, f46, pf56, -f26, -pf36, 0)"},
        examples=[
            _ex("s6.166^p", ("balanced", "lcb"),
                "(f24+f35, f46, f56, -f26, -f36, 0)", "f16-f24+f35",
                constraint="p=1", j_images={1: "f6", 2: "-f4", 3: "f5"}),
            _ex("s6.166^p", ("lck", "lcb"),
                "(f24+f35, f46, f56, -f26, -f36, 0)", "f16+f24+f35",
                constraint="p=1", j_images={1: "f6", 2: "f4", 3: "f5"}),
            _ex("s6.166^p", ("balanced", "lcb"),
                "(f24+f35, f46, pf56, -f26, -pf36, 0)", "f16-f24+f35",
                params={"p": F(1, 2)}, constraint="0<|p|<=1, p!=1",
                j_images={1: "f6", 2: "-f4", 3: "f5"}),
            _ex("s6.166^p", ("lck", "lcb"),
                "(f24+f35, f46, pf56, -f26, -pf36, 0)", "f16+f24+f35",
                params={"p": F(1, 2)}, constraint="0<|p|<=1, p!=1",
                j_images={1: "f6", 2: "f4", 3: "f5"}),
            _ex("s6.166^p", ("first_gauduchon",),
                "(f24+f35, f46, pf56, -f26, -pf36, 0)",
                "(1-p)f16+f23+2f24+f35+f45",
                params={"p": F(1, 2)}, constraint="0<|p|<1",
                j_images={1: "f6", 2: "f4", 3: "f5"}),
        ],
    ))

    out.append(CatalogEntry(
        "s6.167", "(f24+f35, f36, -f26, f26+f56, f36-f46, 0)", "", {},
        "h3+R2", ("HT-s6.167",),
        {"kahler": "never", "skt": "never", "balanced": "all", "lck": "never",
         "lcskt": "never", "lcb": "all", "first_gauduchon": "never"},
        examples=[_ex("s6.167", ("balanced", "lcb"),
                      "(f24+f35, f36, -f26, f26+f56, f36-f46, 0)",
                      "f16+f23+f45",
                      j_images={1: "f6", 2: "f3", 4: "f5"})],
    ))

    # -- nilradical with higher-dimensional commutator -------------------
    eq = "(f35+f26, f45-f16, f46, -f36, 0, 0)"
    out.append(CatalogEntry(
        "s6.145^0", eq, "", {}, "n5.1", ("N51-145",),
        {"kahler": "never", "skt": "never", "balanced": "all", "lck": "never",
         "lcskt": "never", "lcb": "all", "first_gauduchon": "never"},
        examples=[_ex("s6.145^0", ("balanced", "lcb"), eq, "f12+f34+f56",
                      j_images=_J_STANDARD)],
    ))

    out.append(CatalogEntry(
        "s6.147^0", "(f35+f26, f45-f16+f36, f46, -f36, 0, 0)", "", {},
        "n5.1", ("N51-147-a", "N51-147-b", "N51-147-c"),
        {"kahler": "never", "skt": "never", "balanced": "all", "lck": "never",
         "lcskt": "never", "lcb": "all", "first_gauduchon": "never"},
        variants={
            "table1": "(f35+f26+f36, f45-f16+f46, f46, -f36, 0, 0)",
            "example": "(f35+f26+f36, f45-f16, f46, -f36, 0, 0)",
        },
        examples=[_ex("s6.147^0", ("balanced", "lcb"),
                      "(f35+f26, f45-f16+f36, f46, -f36, 0, 0)",
                      "2f12+f14+f34+f56",
                      j_matrix=[
                          ["0", "-1", "0", "-1/2", "0", "0"],
                          ["1", "0", "-1/2", "0", "0", "0"],
                          ["0", "0", "0", "-1", "0", "0"],
                          ["0", "0", "1", "0", "0", "0"],
                          ["0", "0", "0", "0", "0", "-1"],
                          ["0", "0", "0", "0", "1", "0"],
                      ])],
    ))

    eq = "(f35+f26, f34-f16+f56, f45, -f56, f46, 0)"
    out.append(CatalogEntry(
        "s6.152", eq, "", {}, "n5.2", ("N52-152-a", "N52-152-b"),
        {"kahler": "never", "skt": "never", "balanced": "never", "lck": "never",
         "lcskt": "never", "lcb": "all", "first_gauduchon": "never"},
        examples=[_ex("s6.152", ("lcb",), eq, "4f12+2f25-f36+f45",
                      j_matrix=[
                          ["0", "-1", "0", "1/2", "0", "0"],
                          ["1", "0", "0", "0", "-1/2", "0"],
                          ["0", "0", "0", "0", "0", "1/2"],
                          ["0", "0", "0", "0", "-1", "0"],
                          ["0", "0", "0", "1", "0", "0"],
                          ["0", "0", "-2", "0", "0", "0"],
                      ])],
    ))

    eq = "(f35+f26, f34-f16, f45, -f56, f46, 0)"
    out.append(CatalogEntry(
        "s6.154^0", eq, "", {}, "n5.2", ("N52-154",),
        {"kahler": "never", "skt": "never", "balanced": "never", "lck": "never",
         "lcskt": "all", "lcb": "all", "first_gauduchon": "never"},
        examples=[_ex("s6.154^0", ("lcskt", "lcb"), eq, "f12+f36-f45",
                      mu="-2f6",
                      j_images={1: "f2", 3: "f6", 4: "-f5"})],
    ))

    return out


def _controls() -> list[CatalogEntry]:
    """Algebras of the same class proven to admit no complex structure."""
    data = [
        ("s6.140^-1", "(f35+f16, f45-f26, f36, -f46, 0, 0)", "n5.1", {}),
        ("s6.146^-1", "(f35+f16+f36, f45-f26-f46, f36, -f46, 0, 0)", "n5.1",
         {"corrected": "(f35+f16, f45-f26+f36, f36, -f46, 0, 0)"}),
        ("s6.151", "(f35+f16, f34-f26-f46, f45, -f46, f56, 0)", "n5.2", {}),
        ("s6.155^1", "(f35+f16, f34-f26, f45, -f46, f56, 0)", "n5.2", {}),
    ]
    out = []
    for name, eqs, nil, variants in data:
        out.append(CatalogEntry(
            name, eqs, "", {}, nil, (),
            {c: "never" for c in CONDITIONS},
            variants=variants,
            admits_complex=False,
        ))
    return out


_ENTRIES = None
_CONTROLS = None


def list_entries(include_controls: bool = False) -> list[CatalogEntry]:
    global _ENTRIES, _CONTROLS
    if _ENTRIES is None:
        _ENTRIES = _entries()
        _CONTROLS = _controls()
    return list(_ENTRIES) + (list(_CONTROLS) if include_controls else [])


def negative_controls() -> list[CatalogEntry]:
    list_entries()
    return list(_CONTROLS)


def get_entry(name: str) -> CatalogEntry:
    for e in list_entries(include_controls=True):
        if e.name == name:
            return e
    raise KeyError(f"no catalog entry named {name!r}")


# ---------------------------------------------------------------------------
# verification helpers


def verify_entry(entry: CatalogEntry) -> dict:
    """Structural integrity of one entry: Jacobi for every presentation,
    solvable, non-nilpotent, strongly unimodular, certified nilradical."""
    report = {"name": entry.name}
    presentations = {"primary": None, **{k: k for k in entry.variants}}
    nil_basis = [[GR_ONE if t == i else GR_ZERO for t in range(6)] for i in range(5)]
    for label, pres in presentations.items():
        g = entry.algebra_instance(presentation=pres)
        nr = verify_nilradical(g, nil_basis)
        report[label] = {
            "jacobi": jacobi_holds(g),
            "solvable": is_solvable(g),
            "nilpotent": nr["algebra_nilpotent"],
            "strongly_unimodular": _strongly_unimodular_on(
                g, nr["lower_central_series"], nr["ad_coordinates"]),
            "nilradical_certified": nr["certified_nilradical"],
        }
    report["ok"] = all(
        v["jacobi"] and v["solvable"] and not v["nilpotent"]
        and v["strongly_unimodular"] and v["nilradical_certified"]
        for k, v in report.items() if isinstance(v, dict)
    )
    return report


def verify_example(ex: ExampleStructure, parsed: Optional[tuple] = None) -> dict:
    """Check one golden example end to end with exact arithmetic.  ``parsed``,
    when given, is ``ex.parse()`` already computed."""
    return verified_example(ex, parsed)[0]


def verified_example(ex: ExampleStructure, parsed: Optional[tuple] = None) -> tuple:
    """``(report, cx, om)``: the :func:`verify_example` report, the verified
    complexification (None if J is not integrable) and omega in its complex
    coframe (None if there is no omega or no cx), so a caller builds neither."""
    g, J, omega, mu = ex.parse() if parsed is None else parsed
    report = {"algebra": ex.algebra, "constraint": ex.constraint, "ok": True}
    cx = is_integrable(g, J)
    if cx is None:
        return {**report, "ok": False, "error": "J not integrable"}, None, None
    if omega is None:
        report["conditions"] = {}
        return report, cx, None
    om = cx.to_alpha(omega)
    if not is_positive_form(om):
        return {**report, "ok": False, "error": "omega not positive"}, cx, om
    results = {}
    for cond in ex.conditions:
        results[cond] = bool(CHECKERS[cond](cx, om))
    report["conditions"] = results
    report["ok"] = all(results.values())
    if mu is not None and "lcskt" in ex.conditions:
        mu_ok = verify_twisted_certificate(cx, om, mu)
        report["mu_certificate"] = mu_ok
        report["ok"] = report["ok"] and mu_ok
    return report, cx, om
