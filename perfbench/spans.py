"""Layer spans recorded from outside the library.

``Tracer.install()`` replaces the public functions and methods of each
layer with wrappers that time every call and count its work (points,
pairs, bytes).  A module-level function is replaced in every module
namespace that holds it, so that a name imported with ``from .quadrature
import convolve`` is traced too.  Nothing in ``nilharmonics`` is edited.

Spans nest: a span's self time is its duration minus the time of the spans
it caused.  Spans are aggregated per name in memory while the program runs
(about 10^5 of them on the covering workload) and read out once at the end.
The tracer's own bookkeeping is kept out of every span's self time and
reported as ``trace.bookkeeping_s``.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time

import numpy as np


def _operand_key(f):
    """A value key for a Polynomial or SmoothField operand."""
    coeffs = getattr(f, "coeffs", None)
    if coeffs is not None:
        return frozenset(coeffs.items())
    prof = f.profile
    return (_operand_key(f.base), prof.name, prof.expr, prof.support_cap,
            tuple(sorted((k, _operand_key(p)) for k, p in f.terms.items())))


class Stat:
    """Aggregate of the spans of one name."""

    __slots__ = ("calls", "total_s", "self_s", "units")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.units = {}

    def add(self, unit, value):
        self.units[unit] = self.units.get(unit, 0) + value


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.stats = {}  # (phase, span name) -> Stat
        self.bookkeeping_s = 0.0
        self.missing = []
        self._stack = []  # time covered by child spans, one slot per open span
        self._seen = set()

    def stat(self, name):
        key = (self.phase, name)
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = Stat()
        return stat

    # -- the span itself -------------------------------------------------

    def _timed(self, name, fn, args, kwargs, before=None, after=None):
        enter = time.perf_counter()
        stat = self.stat(name)
        if before is not None:
            before(stat, args, kwargs)
        stack = self._stack
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            child = stack.pop()
            stat.calls += 1
            stat.total_s += t1 - t0
            stat.self_s += t1 - t0 - child
            if stack:
                stack[-1] += t1 - enter
        if after is not None:
            after(stat, args, kwargs, result)
        leave = time.perf_counter()
        if stack:
            stack[-1] += leave - t1
        self.bookkeeping_s += (leave - enter) - (t1 - t0)
        return result

    def wrap(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._timed(name, fn, args, kwargs, before, after)
        return traced

    # -- installing ------------------------------------------------------

    def patch_method(self, cls, attr, name, before=None, after=None,
                     make=None):
        fn = cls.__dict__.get(attr)
        if fn is None:
            self.missing.append(name)
            return
        setattr(cls, attr,
                make(fn) if make else self.wrap(name, fn, before, after))

    def patch_function(self, module, attr, name, before=None, after=None):
        """Replace module.attr in every loaded module that holds it."""
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(name)
            return
        new = self.wrap(name, fn, before, after)
        for mod in list(sys.modules.values()):
            if mod is not None and getattr(mod, attr, None) is fn:
                setattr(mod, attr, new)

    def install(self):
        """Wrap the public functions of every layer; returns self."""
        from nilharmonics import (calculus, cli, distributions, group_core,
                                  io, kernels, polynomials, quadrature,
                                  weak_l1)

        def points_arg(i):
            """Counts the points of argument i, an array of coordinate
            vectors."""
            def before(stat, args, kwargs):
                stat.add("points", math.prod(np.shape(args[i])[:-1]))
            return before

        def multiply_points(stat, args, kwargs):
            stat.add("points", math.prod(np.broadcast_shapes(
                np.shape(args[1])[:-1], np.shape(args[2])[:-1])))

        def profile_points(stat, args, kwargs):
            prof, u = args[0], args[2]
            size = int(np.size(u))
            stat.add("points", size)
            cap = prof.support_cap
            stat.add("live", size if cap is None else
                     int(np.count_nonzero(np.asarray(u) < cap)))

        def word_repeat(stat, args, kwargs):
            w, f = args[0], args[1]
            key = (w.spec, w.kind, w.alpha, _operand_key(f))
            stat.add("repeats", key in self._seen)
            self._seen.add(key)

        def convolve_pairs(stat, args, kwargs):
            spec, eta, grid = args[0], args[3], args[4]
            form = kwargs.get("form", args[6] if len(args) > 6 else "first")
            stat.add("pairs", (np.size(eta) // spec.n) * len(grid.flat_points)
                     * (2 if form == "both" else 1))

        def direct_pairs(stat, args, kwargs):
            T, eta, grid = args[0], args[3], args[4]
            stat.add("pairs", (np.size(eta) // T.spec.n)
                     * len(grid.flat_points))

        def scaled_pairs(stat, args, kwargs):
            T, eta = args[0], args[3]
            count = kwargs.get("count", args[5] if len(args) > 5 else 31)
            count += count % 2 == 0  # Simpson axes have an odd node count
            stat.add("pairs", (np.size(eta) // T.spec.n)
                     * count ** T.spec.n)

        def u_nu_points(stat, args, kwargs):
            stat.add("points", math.prod(np.broadcast_shapes(
                np.shape(args[4])[:-1], np.shape(args[5]))))

        def grid_points(stat, args, kwargs, result):
            stat.add("points", int(np.size(args[0].flat_weights)))

        def covering_pieces(stat, args, kwargs, cert):
            stat.add("pieces_enumerated", cert.enumerated)
            stat.add("pieces_authorized", len(cert.authorized))

        def written_bytes(stat, args, kwargs, result):
            stat.add("bytes", os.path.getsize(args[1]))

        def lambdify(fn):
            # only a cache miss differentiates and lambdifies
            @functools.wraps(fn)
            def deriv_fn(prof, k):
                cache = getattr(prof, "_derivs", None)
                if cache is not None and k in cache:
                    return fn(prof, k)
                return self._timed("polynomials.lambdify", fn, (prof, k), {})
            return deriv_fn

        def fd_eval(fn):
            @functools.wraps(fn)
            def apply_fd(field, f):
                return self.wrap("calculus.fd_eval", fn(field, f))
            return apply_fd

        pm, pf = self.patch_method, self.patch_function
        pm(group_core.GroupSpec, "multiply", "group_core.multiply",
           before=multiply_points)
        pm(group_core.HomogeneousNorm, "__call__", "group_core.norm",
           before=points_arg(1))
        pm(group_core.HomogeneousNorm, "calibration",
           "group_core.calibration")
        pm(polynomials.Polynomial, "eval", "polynomials.poly_eval",
           before=points_arg(1))
        pm(polynomials.SmoothField, "eval", "polynomials.field_eval",
           before=points_arg(1))
        pm(polynomials.Profile, "eval_deriv", "polynomials.profile_eval",
           before=profile_points)
        pm(polynomials.Profile, "deriv_fn", "polynomials.lambdify",
           make=lambdify)
        pm(calculus.OperatorWord, "apply_symbolic", "calculus.apply_symbolic",
           before=word_repeat)
        pm(calculus.InvariantField, "apply_fd", "calculus.fd_eval",
           make=fd_eval)
        pf(quadrature, "convolve", "quadrature.convolve",
           before=convolve_pairs)
        pm(quadrature.Grid, "__init__", "quadrature.grid", after=grid_points)
        pf(kernels, "dilated_field", "kernels.dilated_field")
        pf(distributions, "poisson_extend_scaled",
           "distributions.extend_scaled", before=scaled_pairs)
        pf(distributions, "poisson_extend", "distributions.extend_direct",
           before=direct_pairs)
        pf(weak_l1, "build_covering", "weak_l1.build_covering",
           after=covering_pieces)
        pf(weak_l1, "U_nu", "weak_l1.U_nu", before=u_nu_points)
        pf(weak_l1, "verify_covering", "weak_l1.verify_covering")
        pf(weak_l1, "superlevel_measure", "weak_l1.superlevel_measure")
        pf(io, "write_json", "io.write_json", after=written_bytes)
        pf(cli, "run", "cli.run")
        return self

    # -- reading out -----------------------------------------------------

    def self_total(self, phase):
        """Seconds of the phase spent inside some span."""
        return sum(st.self_s for (ph, _), st in self.stats.items()
                   if ph == phase)

    def summary(self):
        """Per span name: calls, total_s, self_s and unit counts of the
        verdict phase; the lazy lambdify span is summed over both phases,
        because a change may move it from the jobs into set-up."""
        out = {}
        for (phase, name), st in self.stats.items():
            if phase != "verdict" and name != "polynomials.lambdify":
                continue
            rec = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            rec["calls"] += st.calls
            rec["total_s"] += st.total_s
            rec["self_s"] += st.self_s
            for unit, v in st.units.items():
                rec[unit] = rec.get(unit, 0) + v
        return out
