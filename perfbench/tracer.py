"""In-process tracing of the hillkdv layers from outside the package.

`Tracer.install()` wraps every public module-level function of the seven
layer modules.  Modules import each other by name (`from .sequences import
convolve`), so a wrapper is set at every name that holds the function in any
`hillkdv` module: `hillkdv.operator.convolve`, `hillkdv.cli.full_spectrum`,
`hillkdv.cli.birkhoff_flow`, ...  `uninstall()` puts the originals back, so
an untraced run executes no wrapper code at all.

Each call becomes a span (name, parent, start, end, task) held in memory;
work counts are read from arguments and return values at the same boundary.
"""

from array import array
from collections import defaultdict
import inspect
import math
import os
import sys
import time

import numpy as np

MODULES = ("sequences", "operator", "reduction", "galerkin", "birkhoff",
           "pde", "cli")


def _rk4_steps(t_end, dt):
    # evolve_kdv's own step rule
    if t_end == 0.0:
        return 0
    return max(1, int(math.ceil(abs(t_end) / dt - 1e-12)))


class Tracer:
    def __init__(self):
        self.names = []        # span name table
        self.name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_task = array("i")
        self.t_start = array("d")
        self.t_end = array("d")
        self.tasks = []
        self.task_id = -1
        self.stack = []
        self.counts = defaultdict(float)
        self.last_default_dt = None
        self.patches = []
        self.extractors = {
            "sequences.convolve": self._convolve,
            "sequences.shifted_norm": self._elems("f", "sequences.shifted_norm"),
            "operator.apply_A_inv_Q": self._elems("f", "operator.apply_A_inv_Q"),
            "reduction.neumann_K_n": self._neumann,
            "reduction.find_roots": self._find_roots,
            "galerkin.periodic_spectrum": self._periodic,
            "galerkin.riesz_projector": self._riesz,
            "pde.default_dt": self._default_dt,
            "pde.evolve_kdv": self._evolve,
            "cli.write_json": self._written,
            "cli.write_csv": self._written,
        }

    # -- installation -----------------------------------------------------

    def set_task(self, name):
        self.tasks.append(name)
        self.task_id = len(self.tasks) - 1

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "hillkdv"
                                         or n.startswith("hillkdv."))]
        wrappers = {}
        for short in MODULES:
            mod = sys.modules["hillkdv." + short]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(short + "." + attr, fn))
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self.patches.append((mod, attr, val))

    def uninstall(self):
        for mod, attr, fn in reversed(self.patches):
            setattr(mod, attr, fn)
        self.patches = []

    def _wrap(self, name, fn):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self.name_ids[name]
        extract = self.extractors.get(name)
        sig = inspect.signature(fn) if extract else None
        clock = time.perf_counter
        stack = self.stack

        def wrapper(*args, **kwargs):
            sid = len(self.t_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_task.append(self.task_id)
            self.t_end.append(0.0)
            stack.append(sid)
            self.t_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.t_end[sid] = clock()
                stack.pop()
            if extract is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                extract(bound.arguments, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- work counts from arguments and return values ----------------------

    def _convolve(self, a, out):
        self.counts["sequences.convolve.out_elems"] += out.coeffs.size
        full = a["a"].coeffs.size + a["b"].coeffs.size - 1
        self.counts["sequences.convolve.bytes_computed"] += 16 * full

    def _elems(self, arg, name):
        def extract(a, out):
            self.counts[name + ".elems"] += a[arg].coeffs.size
        return extract

    def _neumann(self, a, out):
        self.counts["reduction.neumann_terms"] += out[1]

    def _find_roots(self, a, out):
        self.counts["reduction.winding_fallbacks"] += out.method == "winding"

    def _periodic(self, a, out):
        self.counts["galerkin.periodic_spectrum.matrix_dim"] += 2 * a["K"] + 1

    def _riesz(self, a, out):
        self.counts["galerkin.riesz_projector.quad_points"] += \
            out[1]["quad_points"]

    def _default_dt(self, a, out):
        self.last_default_dt = out

    def _evolve(self, a, out):
        dt = a["dt"] if a["dt"] is not None else self.last_default_dt
        self.counts["pde.rk4_steps"] += _rk4_steps(a["t_end"], dt)

    def _written(self, a, out):
        self.counts["cli.bytes_written"] += os.path.getsize(a["path"])

    # -- reduction of the spans ---------------------------------------------

    def arrays(self):
        # copies: a buffer view would stop the arrays from growing
        return {"name": np.array(self.span_name, dtype=np.int32),
                "parent": np.array(self.span_parent, dtype=np.int32),
                "task": np.array(self.span_task, dtype=np.int32),
                "start": np.array(self.t_start, dtype=np.float64),
                "end": np.array(self.t_end, dtype=np.float64)}

    def summary(self):
        """Per function: calls, inclusive seconds and self seconds; per
        module: self seconds; plus the work counts."""
        sp = self.arrays()
        dur = sp["end"] - sp["start"]
        has_parent = sp["parent"] >= 0
        child = np.bincount(sp["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_s = dur - child
        n = len(self.names)
        calls = np.bincount(sp["name"], minlength=n)
        incl = np.bincount(sp["name"], weights=dur, minlength=n)
        excl = np.bincount(sp["name"], weights=self_s, minlength=n)
        functions = {name: {"calls": int(calls[i]), "s": float(incl[i]),
                            "self_s": float(excl[i])}
                     for i, name in enumerate(self.names)}
        modules = {m: 0.0 for m in MODULES}
        for name, row in functions.items():
            modules[name.split(".")[0]] += row["self_s"]
        # coefficient evaluations made on behalf of find_roots, per root
        find_id = self.name_ids.get("reduction.find_roots", -1)
        coeff_id = self.name_ids.get("reduction.coefficients", -1)
        under_find = [False] * dur.size
        per_root = 0
        for sid, (nid, p) in enumerate(zip(self.span_name, self.span_parent)):
            # parents precede their children
            under_find[sid] = p >= 0 and (self.span_name[p] == find_id
                                          or under_find[p])
            per_root += under_find[sid] and nid == coeff_id
        return {"functions": functions, "module_self_s": modules,
                "counts": dict(self.counts),
                "coefficients_under_find_roots": per_root,
                "spans": int(dur.size)}


def layer_metrics(summary):
    """The per-layer metrics named in BENCHMARK.json, from a summary."""
    fn = summary["functions"]
    counts = summary["counts"]

    def calls(name):
        return fn.get(name, {}).get("calls", 0)

    def secs(name):
        return fn.get(name, {}).get("s", 0.0)

    out = {}
    for name in ("sequences.convolve", "sequences.shifted_norm",
                 "sequences.hilbert_sum", "operator.multiply",
                 "operator.apply_A_inv_Q", "reduction.coefficients",
                 "reduction.neumann_K_n", "reduction.find_roots",
                 "galerkin.periodic_spectrum", "galerkin.dirichlet_spectrum",
                 "galerkin.riesz_projector", "pde.evolve_kdv", "birkhoff.flow",
                 "cli.main"):
        out[name + ".calls"] = (calls(name), "count")
        out[name + ".s"] = (secs(name), "s")
    for name in ("reduction.estimate_c_s", "reduction.estimate_c_s_prime",
                 "reduction.make_context", "birkhoff.linearized_birkhoff"):
        out[name + ".s"] = (secs(name), "s")
    for name in ("sequences.convolve.out_elems", "sequences.shifted_norm.elems",
                 "operator.apply_A_inv_Q.elems", "reduction.neumann_terms",
                 "reduction.winding_fallbacks",
                 "galerkin.periodic_spectrum.matrix_dim",
                 "galerkin.riesz_projector.quad_points", "pde.rk4_steps"):
        out[name] = (int(counts.get(name, 0)), "count")
    for name in ("sequences.convolve.bytes_computed", "cli.bytes_written"):
        out[name] = (int(counts.get(name, 0)), "B")
    roots = 2 * calls("reduction.find_roots")
    out["reduction.roots"] = (roots, "count")
    out["reduction.coefficients_per_root"] = (
        summary["coefficients_under_find_roots"] / roots if roots else 0.0,
        "count")
    evolve_s = secs("pde.evolve_kdv")
    out["pde.steps_per_s"] = (
        counts.get("pde.rk4_steps", 0) / evolve_s if evolve_s else 0.0, "1/s")
    for m in MODULES:
        out[m + ".self_s"] = (summary["module_self_s"][m], "s")
    out["trace.spans"] = (summary["spans"], "count")
    return out
