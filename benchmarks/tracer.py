"""Run-time wrappers that time the benchmark's calls into each library layer.

``Tracer.install`` replaces each target function by a timing wrapper in
its defining module and in every ``snaketsys`` module that bound the same
object by ``from ... import``; ``HeightFunction.preceq`` is wrapped on the
class.  Spans are recorded only while ``active`` is set, which the harness
does around the timed op and nothing else, so input generation and output
checks are never counted.  Spans are aggregated in memory per (function,
parent) and handed back once, at the end of the run.
"""
from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# (metric name, module, attribute): several attributes may share one name
TARGETS = (
    ("roots.inversion_sequence", "snaketsys.roots", "inversion_sequence"),
    ("quivers.preceq", "snaketsys.quivers", "HeightFunction.preceq"),
    ("quivers.phi_map", "snaketsys.quivers", "phi_map"),
    ("quivers.gamma_vertices", "snaketsys.quivers", "_gamma_vertices"),
    ("quivers.render", "snaketsys.quivers", "quiver_ascii"),
    ("quivers.render", "snaketsys.quivers", "quiver_dot"),
    ("lusztig.rho", "snaketsys.lusztig", "rho"),
    ("lusztig.rho_step", "snaketsys.lusztig", "rho_step"),
    ("lusztig.carrier_vertices", "snaketsys.lusztig", "_carrier_vertices"),
    ("reineke.omega", "snaketsys.reineke", "omega"),
    ("reineke.epsilon_mincut", "snaketsys.reineke", "epsilon_mincut"),
    ("reineke.epsilon_bruteforce", "snaketsys.reineke", "epsilon_bruteforce"),
    ("snakes.is_snake", "snaketsys.snakes", "is_snake"),
    ("snakes.is_snake", "snaketsys.snakes", "is_prime_snake"),
    ("snakes.qr_sequences", "snaketsys.snakes", "qr_sequences"),
    ("snakes.translate_twisted", "snaketsys.snakes", "translate_twisted"),
    ("tsystem.extended_tsystem", "snaketsys.tsystem", "extended_tsystem"),
    ("tsystem.check_theorem_hypotheses", "snaketsys.tsystem", "check_theorem_hypotheses"),
    ("tsystem.predicted_tfd", "snaketsys.tsystem", "predicted_tfd_left"),
    ("tsystem.predicted_tfd", "snaketsys.tsystem", "predicted_tfd_right"),
    ("tsystem.tfd_via_epsilon", "snaketsys.tsystem", "tfd_via_epsilon"),
    ("realize.relation_monomials", "snaketsys.realize", "relation_monomials"),
    ("cli.main", "snaketsys.cli", "main"),
)

# solvers whose first argument is an Omega poset: its size is recorded
SOLVERS = ("reineke.epsilon_mincut", "reineke.epsilon_bruteforce")


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # (name, parent) -> calls, total_s, self_s
        self.cache = defaultdict(lambda: [0, 0])         # name -> hits, misses
        self.omega_sizes: list[int] = []
        self._stack: list[list] = []                     # [name, time spent in child spans]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        info = getattr(fn, "cache_info", None)
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else "op"
            frame = [name, 0.0]
            stack.append(frame)
            misses = info().misses if info else 0
            if name in SOLVERS:
                self.omega_sizes.append(len(args[0].vertices))
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = spans[(name, parent)]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                if info:
                    # a recursive miss also counts inner calls, but only a
                    # miss of this call itself can raise the miss count
                    self.cache[name][1 if info().misses > misses else 0] += 1

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = [m for key, m in list(sys.modules.items()) if key == "snaketsys" or key.startswith("snaketsys.")]
        for name, modname, attr in TARGETS:
            mod = sys.modules.get(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is not None and meth in cls.__dict__:
                    self._set(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            fn = getattr(mod, attr, None)
            if fn is None:
                continue  # a later version may have folded or renamed it
            wrapper = self._wrap(name, fn)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        self._set(m, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def span_table(self) -> list[dict]:
        return [
            {"name": name, "parent": parent, "calls": c, "total_s": t, "self_s": s}
            for (name, parent), (c, t, s) in sorted(self.spans.items())
        ]

    def totals(self) -> dict:
        """Per metric name: calls and self time summed over parents."""
        out = defaultdict(lambda: [0, 0.0])
        for (name, _), (calls, _, self_s) in self.spans.items():
            out[name][0] += calls
            out[name][1] += self_s
        return out

    def hit_ratio(self, name: str) -> float:
        hits, misses = self.cache[name]
        return hits / (hits + misses) if hits + misses else 0.0
