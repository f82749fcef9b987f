"""Span tracer that wraps qopuc's public functions from outside the package.

Every public function of the layer modules is replaced by a wrapper that
records one span per call: function id, start, end, parent span and job id,
in flat arrays held in memory and written out by ``save`` when the run ends.
``from .x import y`` copies the function into the importing module, so the
wrapper is installed in every qopuc module (and every module-level dict,
such as the CLI's command table) that holds a binding to the original.
Imports done inside function bodies read the patched module attribute at
call time, so they see the wrapper too.

Self time is a span's duration minus the durations of its child spans.  It
is accumulated per function while the run goes, and also per *scope*: a
scope is a set of entry functions of one layer, and a span's self time goes
to the innermost active scope of its own layer.  So
``matrix_opuc.alphas_from_moments`` collects the self time of every
matrix_opuc function that runs under route A, and nested scopes of one
layer (``zeros.roots`` inside ``zeros.zero_slice``) split it, not share it.
Private helpers are not wrapped; their time counts toward their nearest
public caller.
"""

from __future__ import annotations

import inspect
import json
import time
from array import array
from pathlib import Path

LAYERS = ("cli", "measures", "series", "matrix_opuc", "polynomials", "zeros",
          "quaternions", "analysis")

# scope name -> (entry functions, index of the horizon argument or None)
SCOPES = {
    "polynomials.orthonormal_polys": (("polynomials.orthonormal_polys",), 1),
    "polynomials.moments_from_verblunsky_q": (("polynomials.moments_from_verblunsky_q",), 1),
    "polynomials.eval": (("polynomials.eval_L", "polynomials.eval_R"), None),
    "measures.pd_check": (("measures.is_nontrivial", "measures.require_nontrivial"), None),
    "measures.density_grid": (("measures.QPositiveDensity.matrix_values",
                               "measures.QPositiveDensity.min_eigenvalue_on_grid"), None),
    "measures.moments_from_density": (("measures.moments_from_density",), None),
    "matrix_opuc.alphas_from_moments": (("matrix_opuc.alphas_from_moments",), 1),
    "matrix_opuc.moments_from_alphas": (("matrix_opuc.moments_from_alphas",), 1),
    "series.series_inv": (("series.series_inv",), None),
    "series.cayley": (("series.herglotz_from_moments", "series.schur_from_herglotz",
                       "series.herglotz_from_schur"), None),
    "zeros.roots": (("zeros.roots",), None),
    "zeros.zero_slice": (("zeros.zero_slice",), None),
    "quaternions.right_eigen_slice": (("quaternions.right_eigen_slice",), None),
    "analysis.cd_identity_check": (("analysis.cd_identity_check",), None),
    "analysis.szego_entropy": (("analysis.szego_entropy",), None),
    "analysis.sv_check": (("analysis.sv_check",), None),
    "analysis.baxter_check": (("analysis.baxter_check",), None),
    "cli.emit": (("cli.emit_json", "cli.emit_csv", "cli.csv_view"), None),
    "cli.load": (("cli.load_fixture", "cli.parse_frame", "cli.fixture_frame",
                  "cli.density_from_fixture", "cli.moments_from_fixture"), None),
    "cli.main": (("cli.main",), None),
}

# functions whose per-call inclusive time is kept, keyed by horizon
INCLUSIVE = ("matrix_opuc.alphas_from_moments", "polynomials.orthonormal_polys",
             "polynomials.moments_from_verblunsky_q")

# class methods wrapped besides module functions: the density grid evaluation
METHODS = (("measures", "QPositiveDensity", "matrix_values"),
           ("measures", "QPositiveDensity", "min_eigenvalue_on_grid"))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.scope_self: dict = {}
        self.inclusive: dict = {}
        self.fid = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.job_id = -1
        self._stack: list[int] = []
        self._child: list[float] = []
        self._scopes = {layer: [] for layer in LAYERS}
        self._restore: list = []

    # ---------------------------- recording -----------------------------

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        layer = name.split(".", 1)[0]
        self.names.append(name)
        self.layer.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        scope, n_arg = None, None
        for key, (entries, arg) in SCOPES.items():
            if name in entries:
                scope, n_arg = key, arg
        keep_inclusive = name in INCLUSIVE
        scope_stack = self._scopes[layer]
        perf = time.perf_counter
        tr = self

        def traced(*args, **kwargs):
            idx = len(tr.fid)
            stack = tr._stack
            tr.fid.append(fid)
            tr.parent.append(stack[-1] if stack else -1)
            tr.job.append(tr.job_id)
            tr.calls[fid] += 1
            n = None
            if n_arg is not None:
                n = args[n_arg] if len(args) > n_arg else kwargs.get("N")
            pushed = scope is not None and (not scope_stack or scope_stack[-1][0] != scope)
            if pushed:
                scope_stack.append((scope, n))
            stack.append(idx)
            tr._child.append(0.0)
            t0 = perf()
            tr.start.append(t0)
            tr.end.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                tr.end[idx] = t1
                stack.pop()
                dur = t1 - t0
                own = dur - tr._child.pop()
                if tr._child:
                    tr._child[-1] += dur
                tr.self_s[fid] += own
                if scope_stack:
                    key, sn = scope_stack[-1]
                    tr.scope_self[key] = tr.scope_self.get(key, 0.0) + own
                    if sn is not None:
                        tr.scope_self[(key, sn)] = tr.scope_self.get((key, sn), 0.0) + own
                if pushed:
                    scope_stack.pop()
                if keep_inclusive:
                    tr.inclusive.setdefault((name, n), []).append(dur)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def install(self, qopuc) -> None:
        """Wrap every public layer function and rebind it everywhere."""
        import importlib

        modules = {name: importlib.import_module(f"qopuc.{name}")
                   for name in LAYERS + ("fixtures",)}
        modules["__init__"] = qopuc
        wrappers = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in sorted(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__ and id(obj) not in wrappers):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and id(value) in wrappers:
                            self._restore.append((obj, key, value))
                            obj[key] = wrappers[id(value)]
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            fn = cls.__dict__[meth]
            self._restore.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()

    # ---------------------------- reading -------------------------------

    def layer_self(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for layer, s in zip(self.layer, self.self_s):
            out[layer] += s
        return out

    def job_self_times(self, job_id: int) -> tuple[float, float]:
        """Recompute, from the stored spans alone, the summed self time of
        one job's spans and the summed duration of its root spans."""
        dur = {}
        child = {}
        roots = 0.0
        for i in range(len(self.fid)):
            if self.job[i] != job_id:
                continue
            d = self.end[i] - self.start[i]
            dur[i] = d
            p = self.parent[i]
            if p in dur:
                child[p] = child.get(p, 0.0) + d
            else:
                roots += d
        total_self = sum(d - child.get(i, 0.0) for i, d in dur.items())
        return total_self, roots

    def save(self, path: Path, job_names: list) -> None:
        """Write the spans as a compressed numpy archive: parallel arrays
        fid, parent, job, start and end, one entry per span, and the
        function and job names as a JSON string."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            fid=np.frombuffer(self.fid, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            names=np.array(json.dumps({"functions": self.names, "jobs": job_names})),
        )
