"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces the public functions and methods of each layer
with wrappers, wherever a ``hermlie`` module holds a reference to them, and
``Tracer.remove()`` puts the originals back.  A timed wrapper records calls,
inclusive seconds and self seconds (inclusive time minus the time of wrapped
children); a counting wrapper records calls only and is used on the scalar
and form operations that run hundreds of thousands of times per pass.

Nothing is wrapped unless a traced run asks for it, so untraced runs measure
the program as it is.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from fractions import Fraction

from hermlie import catalog, cpx, forms, herm, lattice, liealg, linalg, obstructions, search
from hermlie.scalars import GaussianRational, Poly

#: (owner, attribute, stat name) of every timed wrapper.
_TIMED = [
    (linalg, "rref", "linalg.rref"),
    (linalg, "solve", "linalg.solve"),
    (linalg, "nullspace", "linalg.nullspace"),
    (forms.Form, "wedge", "forms.wedge"),
    (liealg.LieAlgebra, "bracket", "liealg.bracket"),
    (liealg, "ce_differential", "liealg.ce_differential"),
    (liealg, "verify_nilradical", "liealg.verify_nilradical"),
    (cpx.ComplexFrame, "d", "cpx.frame_d"),
    (cpx.Complexification, "to_real", "cpx.to_real"),
    (cpx.Complexification, "to_alpha", "cpx.to_alpha"),
    (cpx, "nijenhuis", "cpx.nijenhuis"),
    (herm, "lee_form", "herm.lee_form"),
    (catalog, "verify_entry", "catalog.verify_entry"),
    (catalog, "verify_example", "catalog.verify_example"),
    (obstructions, "replay_obstruction_row", "obstructions.replay_row"),
    (lattice, "builtin_probe", "lattice.builtin_probe"),
]


class Tracer:
    def __init__(self):
        # name -> [calls, inclusive s, self s]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.gr_mul_real = 0
        # search outcomes: [restarts, gate attempts, gate accepts, searches, exhausted]
        self.search = [0, 0, 0, 0, 0]
        self._stack = [0.0]
        self._undo = []

    # -- wrappers -------------------------------------------------------
    def _timed(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child
        return wrapper

    def _counted(self, name, fn):
        stat = self.stats[name]

        @functools.wraps(fn)
        def wrapper(self_, other):
            out = fn(self_, other)
            if out is not NotImplemented:
                stat[0] += 1
            return out
        return wrapper

    def _gr_mul(self, fn):
        stat = self.stats["scalars.gr_mul"]
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, b):
            out = fn(a, b)
            if out is not NotImplemented:
                stat[0] += 1
                if not a.im and (isinstance(b, (int, Fraction))
                                 or (isinstance(b, GaussianRational) and not b.im)):
                    tracer.gr_mul_real += 1
            return out
        return wrapper

    def _search(self, name, fn, threshold):
        """Timed search wrapper that also reads restarts and the exact gate
        off the returned outcome.  ``threshold(cfg)`` is the residual at or
        below which a restart's float hit goes to exact reconstruction."""
        timed = self._timed(name, fn)
        counts = self.search

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = timed(*args, **kwargs)
            cfg = kwargs.get("cfg", args[-1] if len(args) > 1 else None)
            if not isinstance(cfg, search.SearchConfig):
                cfg = search.SearchConfig()
            hits = sum(1 for r in out.best_residuals if r <= threshold(cfg))
            witness = out.witness or {}
            accepted = out.status == "found" and (
                name != "search.find_complex_structure" or witness.get("J_exact") is not None)
            counts[0] += len(out.best_residuals)
            counts[1] += hits
            counts[2] += int(accepted)
            counts[3] += 1
            counts[4] += int(out.status == "exhausted")
            return out
        return wrapper

    # -- patching -------------------------------------------------------
    def _replace(self, owner, attr, new):
        old = getattr(owner, attr)
        if isinstance(owner, type):
            self._undo.append((owner, attr, old))
            setattr(owner, attr, new)
            return
        # a module function: rebind every reference a hermlie module holds
        for mod in [m for n, m in sys.modules.items() if n == "hermlie" or n.startswith("hermlie.")]:
            for key, val in list(vars(mod).items()):
                if val is old:
                    self._undo.append((mod, key, old))
                    setattr(mod, key, new)

    def install(self):
        for owner, attr, name in _TIMED:
            self._replace(owner, attr, self._timed(name, getattr(owner, attr)))
        mul = self._gr_mul(GaussianRational.__mul__)
        self._replace(GaussianRational, "__mul__", mul)
        self._replace(GaussianRational, "__rmul__", mul)
        add = self._counted("scalars.gr_add", GaussianRational.__add__)
        self._replace(GaussianRational, "__add__", add)
        self._replace(GaussianRational, "__radd__", add)
        pmul = self._counted("scalars.poly_mul", Poly.__mul__)
        self._replace(Poly, "__mul__", pmul)
        self._replace(Poly, "__rmul__", pmul)
        fmul = self._counted("forms.mul", forms.Form.__mul__)
        self._replace(forms.Form, "__mul__", fmul)
        self._replace(forms.Form, "__rmul__", fmul)
        # the checkers are reached through CHECKERS and by name
        for cond, fn in list(herm.CHECKERS.items()):
            wrapped = self._timed(f"herm.{cond}", fn)
            self._undo.append((herm.CHECKERS, cond, fn))
            herm.CHECKERS[cond] = wrapped
            self._replace(herm, fn.__name__, wrapped)
        self._replace(search, "find_metric", self._search(
            "search.find_metric", search.find_metric, lambda cfg: max(cfg.tol, 1e-12)))
        self._replace(search, "find_complex_structure", self._search(
            "search.find_complex_structure", search.find_complex_structure,
            lambda cfg: cfg.tol))
        kernel = self._timed("search.j_residual", search.j_residual_kernel())
        self._replace(search, "j_residual_kernel", lambda: kernel)
        return self

    def remove(self):
        for owner, attr, old in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._undo.clear()

    # -- results --------------------------------------------------------
    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        s = self.stats

        def calls(name):
            return s[name][0]

        def per_call(name, scale):
            return s[name][1] / s[name][0] * scale if s[name][0] else 0.0

        out = {
            "scalars.gr_mul.calls": (calls("scalars.gr_mul"), "count"),
            "scalars.gr_mul.real_share": (
                self.gr_mul_real / calls("scalars.gr_mul") if calls("scalars.gr_mul") else 0.0,
                "ratio"),
            "scalars.gr_add.calls": (calls("scalars.gr_add"), "count"),
            "scalars.poly_mul.calls": (calls("scalars.poly_mul"), "count"),
            "linalg.rref.calls": (calls("linalg.rref"), "count"),
            "linalg.rref.self_s": (s["linalg.rref"][2], "s"),
            "linalg.solve.calls": (calls("linalg.solve"), "count"),
            "linalg.nullspace.calls": (calls("linalg.nullspace"), "count"),
            "forms.wedge.calls": (calls("forms.wedge"), "count"),
            "forms.wedge.self_s": (s["forms.wedge"][2], "s"),
            "forms.mul.calls": (calls("forms.mul"), "count"),
            "liealg.bracket.calls": (calls("liealg.bracket"), "count"),
            "liealg.bracket.self_s": (s["liealg.bracket"][2], "s"),
            "liealg.ce_differential.calls": (calls("liealg.ce_differential"), "count"),
            "liealg.ce_differential.self_s": (s["liealg.ce_differential"][2], "s"),
            "liealg.verify_nilradical.s": (s["liealg.verify_nilradical"][1], "s"),
            "cpx.frame_d.calls": (calls("cpx.frame_d"), "count"),
            "cpx.frame_d.self_s": (s["cpx.frame_d"][2], "s"),
            "cpx.to_real.calls": (calls("cpx.to_real"), "count"),
            "cpx.to_alpha.calls": (calls("cpx.to_alpha"), "count"),
            "cpx.nijenhuis.calls": (calls("cpx.nijenhuis"), "count"),
            "cpx.nijenhuis.self_s": (s["cpx.nijenhuis"][2], "s"),
        }
        for cond in herm.CHECKERS:
            out[f"herm.{cond}.calls"] = (calls(f"herm.{cond}"), "count")
            out[f"herm.{cond}.ms_per_call"] = (per_call(f"herm.{cond}", 1e3), "ms")
        out["herm.lee_form.calls"] = (calls("herm.lee_form"), "count")
        out["catalog.verify_entry.s"] = (s["catalog.verify_entry"][1], "s")
        out["catalog.verify_example.s"] = (s["catalog.verify_example"][1], "s")
        out["obstructions.replay_row.calls"] = (calls("obstructions.replay_row"), "count")
        out["obstructions.replay_row.ms_per_row"] = (per_call("obstructions.replay_row", 1e3), "ms")
        restarts, attempts, accepts, searches, exhausted = self.search
        search_s = s["search.find_metric"][1] + s["search.find_complex_structure"][1]
        out.update({
            "search.find_metric.s": (s["search.find_metric"][1], "s"),
            "search.find_complex_structure.s": (s["search.find_complex_structure"][1], "s"),
            "search.restarts": (restarts, "count"),
            "search.restarts_per_s": (restarts / search_s if search_s else 0.0, "1/s"),
            "search.j_residual.calls": (calls("search.j_residual"), "count"),
            "search.j_residual.us_per_call": (per_call("search.j_residual", 1e6), "us"),
            "search.exact_gate.attempts": (attempts, "count"),
            "search.exact_gate.accept_ratio": (accepts / attempts if attempts else 0.0, "ratio"),
            "search.exhausted_share": (exhausted / searches if searches else 0.0, "ratio"),
            "lattice.builtin_probe.s": (s["lattice.builtin_probe"][1], "s"),
        })
        return out
