"""Span tracer that times schurblock's layers from outside the package.

The tracer replaces public functions of the six schurblock modules with
timing wrappers. A module that did ``from .linalg import spectral_norm``
holds its own binding, so every binding of a target, in every loaded
``schurblock`` module, is patched, and ``uninstall`` puts each original
object back. Nothing under ``src/`` is edited.

Each wrapped call records one span: a name, its start and end
(``time.perf_counter``), the index of the enclosing span and the id of the
CLI call it belongs to. Spans stay in flat in-memory arrays until the run
ends; ``summary`` derives per-layer counts and times from them and
``save`` writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np

from workload import PROPERTIES

# (module, attribute, span group). Spans of one group that nest inside each
# other (sample_lift -> sample_block_matrix) count once in calls and
# inclusive time; self time is summed over all of them.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "run_suite", "cli.run_suite"),
    ("cli", "replay_instance", "cli.replay"),
    ("cli", "emit_system_dict", "cli.emit_system_dict"),
    ("instances", "sample_block_matrix", "instances.sample"),
    ("instances", "sample_vector", "instances.sample"),
    ("instances", "sample_lift", "instances.sample"),
    ("stinespring", "StinespringSystem.build", "stinespring.build_system"),
    ("stinespring", "build_lambda", "stinespring.build_lambda"),
    ("stinespring", "build_rho", "stinespring.build_rho"),
    ("stinespring", "build_sigma", "stinespring.build_sigma"),
    *(("verify", f"verify_{p}", f"verify.{p}") for p in PROPERTIES),
    ("linalg", "spectral_norm", "linalg.spectral_norm"),
    ("linalg", "hermitian_min_eig", "linalg.eig"),
    ("linalg", "psd_sqrt", "linalg.eig"),
    ("blocks", "BlockMatrix.__init__", "blocks.blockmatrix_init"),
    ("blocks", "schur_block_product", "blocks.schur_block_product"),
    ("blocks", "block_matmul", "blocks.block_matmul"),
    ("blocks", "block_matrix_from_json", "blocks.json_decode"),
    ("blocks", "vector_from_json", "blocks.json_decode"),
    ("blocks", "operator_to_json", "blocks.json_encode"),
    ("blocks", "block_matrix_to_json", "blocks.json_encode"),
    ("blocks", "vector_to_json", "blocks.json_encode"),
    *(("blocks", f, "blocks.other") for f in (
        "flatten", "unflatten", "adjoint_block", "diag_block", "block_identity",
        "row_norm", "col_norm", "lift_schur_k", "flatten_lift",
    )),
)

NORM_GROUP = "linalg.spectral_norm"
PACKAGE = "schurblock"


@dataclass
class Patch:
    """One replaced binding: ``owner.attr`` held ``original`` before install."""

    owner: object
    attr: str
    original: object


def package_modules() -> list:
    """The loaded schurblock modules, the package itself included."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Wraps the TARGETS in schurblock and records spans."""

    def __init__(self):
        self.groups: list[str] = []
        self.patches: list[Patch] = []
        self.installed = False
        self.call_id = 0
        self._stack: list[int] = []
        self._open: list[int] = []
        self._group = array("H")
        self._parent = array("i")
        self._call = array("i")
        self._outer = array("b")
        self._start = array("d")
        self._end = array("d")
        # spectral_norm spans: span index, max dimension, all-zero input
        self._norm_span = array("i")
        self._norm_dim = array("i")
        self._norm_zero = array("b")

    # -- install / uninstall ------------------------------------------------

    def install(self):
        if self.installed:
            raise RuntimeError("tracer already installed")
        self.installed = True
        __import__(f"{PACKAGE}.cli")
        modules = package_modules()
        for module_name, attr, group in TARGETS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            gid = self._group_id(group)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(original.__func__, gid))
                else:
                    wrapped = self._wrap(original, gid)
                self._patch(cls, method, original, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, gid)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapped)

    def uninstall(self):
        for p in reversed(self.patches):
            setattr(p.owner, p.attr, p.original)
        self.installed = False

    def restored(self) -> bool:
        """True when every binding replaced at install holds its original again."""
        return all(_binding(p.owner, p.attr) is p.original for p in self.patches)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, attr, original, wrapped):
        self.patches.append(Patch(owner, attr, original))
        setattr(owner, attr, wrapped)

    def _group_id(self, group: str) -> int:
        if group not in self.groups:
            self.groups.append(group)
            self._open.append(0)
        return self.groups.index(group)

    def _wrap(self, fn, gid: int):
        tracer = self
        is_norm = self.groups[gid] == NORM_GROUP
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            stack, opened = tracer._stack, tracer._open
            idx = len(tracer._start)
            tracer._group.append(gid)
            tracer._parent.append(stack[-1] if stack else -1)
            tracer._call.append(tracer.call_id)
            tracer._outer.append(opened[gid] == 0)
            tracer._start.append(0.0)
            tracer._end.append(0.0)
            stack.append(idx)
            opened[gid] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                opened[gid] -= 1
                stack.pop()
                tracer._start[idx] = t0
                tracer._end[idx] = t1
                if is_norm:
                    x = np.asarray(args[0])
                    tracer._norm_span.append(idx)
                    tracer._norm_dim.append(max(x.shape))
                    tracer._norm_zero.append(not x.any())

        return functools.wraps(fn)(traced)

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict:
        """The spans as numpy columns (a copy)."""
        return {
            "group": np.array(self._group, dtype=np.int32),
            "parent": np.array(self._parent, dtype=np.int64),
            "call": np.array(self._call, dtype=np.int64),
            "outer": np.array(self._outer, dtype=bool),
            "start": np.array(self._start, dtype=np.float64),
            "end": np.array(self._end, dtype=np.float64),
            "norm_span": np.array(self._norm_span, dtype=np.int64),
            "norm_dim": np.array(self._norm_dim, dtype=np.int64),
            "norm_zero": np.array(self._norm_zero, dtype=bool),
        }

    def save(self, path):
        """Write every span, with the group names, as an .npz file."""
        np.savez(path, groups=np.array(self.groups), **self.arrays())

    def summary(self) -> dict:
        """Totals per group, per module and per spectral_norm dimension.

        Returns plain numbers (not normalised): ``groups[g]`` has ``calls``
        and ``s`` over outermost spans and ``self_s`` over all spans;
        ``modules[m]`` the summed self time; ``norm[dim]`` the calls,
        all-zero calls and seconds of spectral_norm at that max dimension;
        ``emit_serialize_s`` the time of CLI calls that emitted a system,
        less the time spent building the dict they serialise.
        """
        a = self.arrays()
        n = len(a["start"])
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=n)
        self_time = dur - child
        groups = {}
        for gid, name in enumerate(self.groups):
            mine = a["group"] == gid
            outer = mine & a["outer"]
            groups[name] = {
                "calls": int(outer.sum()),
                "s": float(dur[outer].sum()),
                "self_s": float(self_time[mine].sum()),
            }
        modules = {}
        for name, g in groups.items():
            module = name.split(".")[0]
            modules[module] = modules.get(module, 0.0) + g["self_s"]
        norm = {}
        for dim in sorted(set(a["norm_dim"].tolist())):
            at = a["norm_dim"] == dim
            norm[dim] = {
                "calls": int(at.sum()),
                "zero_calls": int(a["norm_zero"][at].sum()),
                "s": float(dur[a["norm_span"][at]].sum()),
            }
        emit = np.flatnonzero(a["group"] == self.groups.index("cli.emit_system_dict"))
        emit_parents = a["parent"][emit]
        serialize = float(dur[emit_parents[emit_parents >= 0]].sum()
                          - dur[emit[emit_parents >= 0]].sum())
        return {
            "spans": n,
            "groups": groups,
            "modules": modules,
            "norm": norm,
            "emit_serialize_s": serialize,
        }


def _binding(owner, attr):
    if isinstance(owner, type):
        return owner.__dict__.get(attr)
    return getattr(owner, attr, None)
