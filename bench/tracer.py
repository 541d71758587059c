"""Per-layer tracing of the weakcp engine, done from outside the package.

``Tracer.install()`` replaces every public function of every ``weakcp.*``
module, at every name it is bound to in any ``weakcp.*`` namespace, with
a wrapper that records a span (name, start, end, parent span, job).  The
package binds functions by ``from .kernel import mat_compose``, so
wrapping only the defining module's attribute would miss most calls.
Two report methods get spans too, and ``FObj.dim`` and
``FMor.__post_init__`` are counted without spans, because they run
millions of times in the miner.  ``Tracer.uninstall()`` puts every
original back and raises if one is not back.

Spans stay in memory (compact arrays) until ``write_spans`` is called.
Self time is accumulated as calls return: a span's duration minus the
durations of its child spans and minus the time this module spent
computing counts inside it.
"""

from __future__ import annotations

import array
import dataclasses
import functools
import json
import os
import sys
import time
import types

# Methods that get a span, named "<module>.<method>" after the table of
# per-layer metrics.
SPAN_METHODS = (
    ("weakcp.report", "Report", "render", "report.render"),
    ("weakcp.report", "Report", "to_json", "report.to_json"),
)

# Hot members that are only counted.
COUNTED = (
    ("weakcp.fdvect", "FObj", "dim", "fdvect.FObj.dim.calls"),
    ("weakcp.fdvect", "FMor", "__post_init__", "fdvect.FMor.init.calls"),
)

# Builders whose inputs are fingerprinted to see how often a job rebuilds
# the same object.
BUILDERS = (
    "wcp.build_crossed_product",
    "preunit.build_unital",
    "iterate.build_iterated",
    "iterate.iterated_preunit",
    "iso.build_iso",
)


def _engine_modules():
    return [
        m for name, m in sorted(sys.modules.items())
        if (name == "weakcp" or name.startswith("weakcp."))
        and isinstance(m, types.ModuleType)
    ]


def _span_name(fn) -> str:
    return fn.__module__.split(".", 1)[-1] + "." + fn.__qualname__


def _fingerprint(x):
    """A hashable value equal for equal engine objects (matrices by entries)."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return (type(x).__name__,) + tuple(
            _fingerprint(getattr(x, f.name)) for f in dataclasses.fields(x)
        )
    if isinstance(x, (tuple, list)):
        return tuple(_fingerprint(v) for v in x)
    return x


class Tracer:
    """Spans and counts of one traced pass; see the module docstring."""

    def __init__(self):
        self.job = -1
        self.names = []
        self._ids = {}
        self.calls = []
        self.self_s = []
        self.raised = []
        self.counted = {name: 0 for *_, name in COUNTED}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_job = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._stack = [[-1, 0.0]]  # [span id, time covered by children]
        self._bindings = []  # (owner, attribute, original)
        self.madds = 0
        self.useful = 0
        self.out_entries = 0
        self.bytes_read = 0
        self.check_failed = 0
        self.accepted = 0
        self._distinct = {}  # span name -> set of (job, fingerprint hash)

    # -- installing and removing the wrappers ----------------------------

    def install(self):
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for module in _engine_modules():
            for attr, value in list(vars(module).items()):
                if (isinstance(value, types.FunctionType)
                        and value.__module__.startswith("weakcp")
                        and not value.__name__.startswith("_")):
                    if value not in wrappers:
                        wrappers[value] = self._span_wrapper(
                            value, _span_name(value))
                    self._replace(module, attr, wrappers[value])
        for modname, cls, attr, name in SPAN_METHODS:
            owner = getattr(sys.modules[modname], cls)
            self._replace(owner, attr, self._span_wrapper(vars(owner)[attr], name))
        for modname, cls, attr, name in COUNTED:
            owner = getattr(sys.modules[modname], cls)
            original = vars(owner)[attr]
            if isinstance(original, property):
                counted = property(self._counter(original.fget, name))
            else:
                counted = self._counter(original, name)
            self._replace(owner, attr, counted)

    def uninstall(self):
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        left = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._bindings
            if vars(owner)[attr] is not original
        ]
        self._bindings = []
        if left:
            raise RuntimeError(f"wrappers not removed: {left}")

    def _replace(self, owner, attr, new):
        self._bindings.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _counter(self, fn, name):
        counted = self.counted

        def counting(*args, **kwargs):
            counted[name] += 1
            return fn(*args, **kwargs)

        return counting

    def _span_wrapper(self, fn, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.raised.append(0)
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)
        if name in BUILDERS:
            hook = self._distinct_hook(name)
        calls, self_s, raised, stack = self.calls, self.self_s, self.raised, self._stack
        sp_name, sp_parent, sp_job = self.span_name, self.span_parent, self.span_job
        sp_start, sp_end = self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(sp_name)
            sp_name.append(nid)
            sp_parent.append(stack[-1][0])
            sp_job.append(self.job)
            sp_start.append(0.0)
            sp_end.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[nid] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                parent = stack[-1]
                d = t1 - t0
                parent[1] += d
                self_s[nid] += d - frame[1]
                calls[nid] += 1
                sp_start[sid] = t0
                sp_end[sid] = t1
            if hook is not None:
                h0 = clock()
                hook(args, result)
                parent[1] += clock() - h0
            return result

        return wrapper

    # -- counts computed from operands, in the traced pass only ----------

    def _seen(self, name, key):
        self._distinct.setdefault(name, set()).add((self.job, hash(key)))

    def _distinct_hook(self, name):
        def hook(args, result):
            self._seen(name, _fingerprint(args))
        return hook

    def _hook_kernel_mat_compose(self, args, result):
        g, f = args
        n, k, m = g.rows, g.cols, f.cols
        ge, fe = g.entries, f.entries
        self.madds += n * k * m
        self.useful += sum(
            (n - ge[t::k].count(0)) * (m - fe[t * m:(t + 1) * m].count(0))
            for t in range(k)
        )
        self._seen("kernel.mat_compose", (n, k, m, ge, fe))

    def _hook_kernel_mat_tensor(self, args, result):
        self.out_entries += result.rows * result.cols

    def _hook_fdvect_check_equal(self, args, result):
        _, lhs, rhs = args[:3]
        self.check_failed += result.passed is False
        self._seen("fdvect.check_equal", (
            lhs.mat.rows, lhs.mat.cols, lhs.mat.entries, rhs.mat.entries))

    def _hook_jsonio_load_workspace(self, args, result):
        self.bytes_read += os.path.getsize(args[0])

    def _hook_mine_mine_wdl(self, args, result):
        self.accepted += result.total

    _hook_mine_mine_wdl_random = _hook_mine_mine_wdl

    # -- results ---------------------------------------------------------

    def _stat(self, name, field):
        nid = self._ids.get(name)
        if nid is None:
            raise KeyError(f"no traced function {name!r}")
        return {"calls": self.calls, "self_s": self.self_s,
                "raised": self.raised}[field][nid]

    def _distinct_ratio(self, name):
        calls = self._stat(name, "calls")
        return len(self._distinct.get(name, ())) / calls if calls else 0.0

    def compositions_per_iso_job(self):
        """``kernel.mat_compose`` calls made by ``fdvect.compose``, per job
        that ran ``iso.build_iso``."""
        compose, matmul, iso = (self._ids[n] for n in (
            "fdvect.compose", "kernel.mat_compose", "iso.build_iso"))
        names, parents, jobs = self.span_name, self.span_parent, self.span_job
        iso_jobs = {j for n, j in zip(names, jobs) if n == iso}
        if not iso_jobs:
            return 0.0
        issued = sum(1 for n, p, j in zip(names, parents, jobs)
                     if n == matmul and j in iso_jobs and p >= 0
                     and names[p] == compose)
        return issued / len(iso_jobs)

    def layer_metrics(self) -> dict:
        """The per-layer metrics of BENCHMARK.json, by name."""
        s = self._stat
        out = {
            "cli.main.self_s": s("cli.main", "self_s"),
            "cli.build_parser.calls": s("cli.build_parser", "calls"),
            "cli.build_parser.self_s": s("cli.build_parser", "self_s"),
            "jsonio.load_workspace.calls": s("jsonio.load_workspace", "calls"),
            "jsonio.load_workspace.self_s": s("jsonio.load_workspace", "self_s"),
            "jsonio.load_workspace.raised": s("jsonio.load_workspace", "raised"),
            "jsonio.bytes_read": self.bytes_read,
            "report.sort_by_registry.self_s": s("report.sort_by_registry", "self_s"),
            "report.render.self_s": s("report.render", "self_s"),
            "report.to_json.self_s": s("report.to_json", "self_s"),
        }
        for name in ("fdvect.compose", "fdvect.tensor", "fdvect.check_equal",
                     "kernel.mat_compose", "kernel.mat_tensor",
                     "kernel.solve_right", "kernel.split_idempotent",
                     "kernel.rank") + BUILDERS:
            out[name + ".calls"] = s(name, "calls")
            out[name + ".self_s"] = s(name, "self_s")
        out["fdvect.check_equal.failed"] = self.check_failed
        out["fdvect.check_equal.distinct_ratio"] = self._distinct_ratio(
            "fdvect.check_equal")
        out.update(self.counted)
        out["kernel.mat_compose.madds"] = self.madds
        out["kernel.mat_compose.useful_ratio"] = (
            self.useful / self.madds if self.madds else 0.0)
        out["kernel.mat_compose.distinct_ratio"] = self._distinct_ratio(
            "kernel.mat_compose")
        out["fdvect.compose.issued_per_iso_job"] = self.compositions_per_iso_job()
        out["kernel.mat_tensor.out_entries"] = self.out_entries
        for name in BUILDERS:
            out[name + ".distinct_ratio"] = self._distinct_ratio(name)
        candidates = s("mine.law_from_code", "calls")
        out["mine.candidates"] = candidates
        out["mine.accepted"] = self.accepted
        out["mine.accept_ratio"] = self.accepted / candidates if candidates else 0.0
        for name in ("mine.law_from_code", "mine.mine_wdl", "mine.mine_wdl_random"):
            out[name + ".self_s"] = s(name, "self_s")
        out["trace.spans"] = len(self.span_name)
        return out

    def write_spans(self, stem, job_keys):
        """Write the spans as ``stem.bin`` (five arrays) and ``stem.json``."""
        arrays = (self.span_name, self.span_parent, self.span_job,
                  self.span_start, self.span_end)
        with open(stem + ".bin", "wb") as fh:
            for a in arrays:
                a.tofile(fh)
        index = {
            "count": len(self.span_name),
            "arrays": [["name", "i"], ["parent", "i"], ["job", "i"],
                       ["start", "d"], ["end", "d"]],
            "itemsize": {"i": array.array("i").itemsize,
                         "d": array.array("d").itemsize},
            "names": self.names,
            "jobs": job_keys,
        }
        with open(stem + ".json", "w") as fh:
            json.dump(index, fh, indent=1)
