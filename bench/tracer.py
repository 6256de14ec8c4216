"""Span tracer for the traced benchmark run.

Every target below is wrapped in its defining module and in every
``leviflat`` namespace that imported it by name, so no call path escapes its
span.  Methods are wrapped on their class.  A span records its target, start,
end, parent span and the identity run it belongs to; spans stay in memory in
per-thread buffers and are written out once, when the pass ends.

A span's self time is its duration minus the part of it that child spans
cover.  The benchmark's own root spans around ``cli.run`` keep, as their self
time, the time no wrapped function accounts for (``trace.unattributed_s``).
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from array import array

import numpy as np

ALL = ("sweep_p20", "t5_p200", "flows_t3")

# group -> (targets, workloads on which every target must record calls).
# A target is "module.function" or "module.Class.method".
LAYERS = {
    "symfield.parse": (("symfield.parse_expr",), ("sweep_p20",)),
    "symfield.diff": (("symfield.ScalarField.diff",), ("sweep_p20", "flows_t3")),
    "symfield.eval": (
        ("symfield.PointEvaluator.__call__", "symfield.ScalarField.__call__"),
        ("t5_p200",),
    ),
    "excalc.build": (
        (
            "excalc.exterior_derivative",
            "excalc.wedge",
            "excalc.interior_product",
            "excalc.lie_bracket",
            "excalc.lie_derivative_form",
            "excalc.matrix_mul",
        ),
        ("sweep_p20",),
    ),
    "excalc.invert": (("excalc.invert_matrix",), ("sweep_p20",)),
    "excalc.eval": (
        (
            "excalc.form_components",
            "excalc.VectorField.at",
            "excalc.DifferentialForm.at",
            "excalc.evaluate_form",
        ),
        ("t5_p200",),
    ),
    "foliation_dgla.bracket": (
        ("foliation_dgla.dgla_bracket", "foliation_dgla.dgla_bracket_reduced"),
        ("sweep_p20", "t5_p200"),
    ),
    "foliation_dgla.delta": (("foliation_dgla.delta",), ("sweep_p20", "t5_p200")),
    "leafcx.build": (
        (
            "leafcx.dbar0",
            "leafcx.dbar1",
            "leafcx.beth",
            "leafcx.h_form",
            "leafcx.nijenhuis",
            "leafcx.conjugate_J",
            "leafcx.deformed_bracket",
            "leafcx.change_couple",
        ),
        ("sweep_p20",),
    ),
    "defcomplex.build": (
        (
            "defcomplex.dfrak",
            "defcomplex.levi_flat_mc_residual_pair",
            "defcomplex.infinitesimal_residuals",
            "defcomplex.gauge_witness_residual",
            "defcomplex.hY_decomposition_residual",
            "defcomplex.dbar_hY_residual",
            "defcomplex.phiH_residual",
            "defcomplex.exactness_witness_check",
            "defcomplex.tangent_witness_image",
        ),
        ("sweep_p20",),
    ),
    "flows.integrate": (("flows.integrate_flow",), ("sweep_p20", "flows_t3")),
    "flows.gauge": (
        (
            "flows.pullback_form_numeric",
            "flows.gauge_action_numeric",
            "flows.gauge_derivative_fd",
            "flows.s_gauge_fd",
            "flows.gauge_mc_value",
        ),
        ("sweep_p20", "flows_t3"),
    ),
    "report.add": (("report.ResidualAccumulator.add",), ("t5_p200",)),
    "sampling.draw": (
        (
            "sampling.sample_points",
            "sampling.random_scalar",
            "sampling.random_vector_field",
            "sampling.random_form",
        ),
        ("sweep_p20",),
    ),
    "scenarios.resolve": (("scenarios.resolve",), ("sweep_p20",)),
    "suites.identity": (("suites.run_identity",), ALL),
    "cli.write": (("cli.write_report",), ALL),
}

# Targets that the seed commit calls only on other workloads than their
# layer's: each must record calls on these instead.
SERVED_BY = {
    "excalc.matrix_mul": ("t5_p200",),
    "leafcx.conjugate_J": ("t5_p200",),
    "excalc.DifferentialForm.at": ("sweep_p20", "flows_t3"),
    "excalc.evaluate_form": ("sweep_p20", "flows_t3"),
    "foliation_dgla.dgla_bracket_reduced": ("sweep_p20",),
}


def served_by(target, group):
    """Workloads on which target must record calls."""
    return SERVED_BY.get(target, LAYERS[group][1])


# Root spans opened by the benchmark itself around each cli.run call.
ROOT = "cli.run"

# One span in a per-thread buffer: sid, target, start, end, parent, identity.
_FIELDS = 6

# integrate_flow builds one PointEvaluator per RK4 stage, four per step.
RK4_STAGES = 4


class _Buffer:
    __slots__ = ("data", "stack", "ident", "flow_sid", "flow_stages")

    def __init__(self):
        self.data = array("d")
        self.stack = []
        self.ident = -1
        # sid of the last integrate_flow span opened on this thread, and the
        # PointEvaluators built directly inside such spans
        self.flow_sid = -1
        self.flow_stages = 0


class Tracer:
    def __init__(self):
        self.targets = [ROOT]
        self.groups = [ROOT]
        self.identities = []
        self.seen_nodes = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers = []
        self._root = -1
        self._lock = threading.Lock()

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            self._buffers.append(buf)
        return buf

    def _wrap(self, fn, tid, pre=None):
        local, ids, clock, tracer = self._local, self._ids, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = getattr(local, "buf", None) or tracer._buffer()
            stack = buf.stack
            sid = next(ids)
            parent = stack[-1] if stack else tracer._root
            saved = buf.ident
            if pre is not None:
                pre(buf, sid, args, kwargs)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                buf.data.extend((sid, tid, t0, t1, parent, buf.ident))
                buf.ident = saved

        return traced

    # -- hooks run before a span starts -------------------------------------

    def _enter_identity(self, buf, sid, args, kwargs):
        spec, scenario = args[0], args[1]
        with self._lock:
            buf.ident = len(self.identities)
            self.identities.append((scenario.name, spec.identity))

    def _enter_flow(self, buf, sid, args, kwargs):
        buf.flow_sid = sid

    def _count_stages(self, init):
        """Wrap PointEvaluator.__init__ (no span) to count the evaluators
        built directly inside an integrate_flow span: its RK4 stages."""
        local = self._local

        @functools.wraps(init)
        def counted(evaluator, *args, **kwargs):
            buf = getattr(local, "buf", None)
            if buf is not None and buf.stack and buf.stack[-1] == buf.flow_sid:
                buf.flow_stages += 1
            return init(evaluator, *args, **kwargs)

        return counted

    def _enter_eval(self, buf, sid, args, kwargs):
        # args is (evaluator, field) or (field, point); count the field's DAG
        field = args[1] if hasattr(args[1], "node") else args[0]
        node = field.node
        seen = self.seen_nodes
        if node in seen:
            return
        todo = [node]
        while todo:
            node = todo.pop()
            if node in seen:
                continue
            seen.add(node)
            for slot in ("a", "b"):
                child = getattr(node, slot, None)
                if child is not None:
                    todo.append(child)

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every target; raises if a target no longer exists."""
        modules = [m for name, m in sys.modules.items() if name == "leviflat" or name.startswith("leviflat.")]
        hooks = {
            "suites.run_identity": self._enter_identity,
            "flows.integrate_flow": self._enter_flow,
            "symfield.PointEvaluator.__call__": self._enter_eval,
            "symfield.ScalarField.__call__": self._enter_eval,
        }
        for group, (targets, _) in LAYERS.items():
            for target in targets:
                tid = len(self.targets)
                self.targets.append(target)
                self.groups.append(group)
                modname, _, attr = target.partition(".")
                module = sys.modules["leviflat." + modname]
                owner, _, method = attr.partition(".")
                if method:
                    cls = getattr(module, owner)
                    if cls.__module__ != module.__name__:
                        raise LookupError(f"{target}: defined in {cls.__module__}")
                    original = cls.__dict__[method]
                    setattr(cls, method, self._wrap(original, tid, hooks.get(target)))
                    continue
                original = getattr(module, attr)
                if original.__module__ != module.__name__:
                    raise LookupError(f"{target}: defined in {original.__module__}")
                wrapper = self._wrap(original, tid, hooks.get(target))
                for ns in modules:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, key, wrapper)
        evaluator = sys.modules["leviflat.symfield"].PointEvaluator
        evaluator.__init__ = self._count_stages(evaluator.__dict__["__init__"])

    def root(self, fn, *args):
        """Call fn under a root span that pool threads attach to."""
        buf = self._buffer()
        sid = next(self._ids)
        self._root = sid
        buf.stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            buf.stack.pop()
            buf.data.extend((sid, 0, t0, t1, -1, -1))
            self._root = -1

    # -- results --------------------------------------------------------------

    def spans(self):
        data = np.concatenate([np.frombuffer(b.data, dtype=np.float64) for b in self._buffers])
        return data.reshape(-1, _FIELDS)

    def save(self, path):
        np.savez(
            path,
            spans=self.spans(),
            targets=np.array(self.targets),
            groups=np.array(self.groups),
            identities=np.array(self.identities, dtype=str).reshape(-1, 2),
        )

    def layer_metrics(self, workload, workers, samples):
        """Per-layer metrics of one traced pass, plus its problems: targets
        that recorded no calls on a workload they must serve, and RK4 stages
        that do not make whole steps."""
        sp = self.spans()
        sid = sp[:, 0].astype(np.int64)
        tid = sp[:, 1].astype(np.int64)
        t0, t1 = sp[:, 2], sp[:, 3]
        parent = sp[:, 4].astype(np.int64)
        dur = t1 - t0
        pos = np.full(sid.max() + 1, -1, dtype=np.int64)
        pos[sid] = np.arange(len(sid))
        has_parent = parent >= 0
        ppos = np.where(has_parent, pos[np.maximum(parent, 0)], -1)

        covered = np.bincount(ppos[has_parent], weights=dur[has_parent], minlength=len(sid))
        # Pool threads overlap under a root span: it covers their union.
        concurrent = 0.0
        for r in np.flatnonzero(tid == 0):
            kids = np.flatnonzero(ppos == r)
            union = _union_length(t0[kids], t1[kids])
            concurrent += covered[r] - union
            covered[r] = union
        self_time = dur - covered

        group_names = sorted(set(self.groups))
        gidx = {g: i for i, g in enumerate(group_names)}
        span_group = np.array([gidx[g] for g in self.groups])[tid]
        parent_group = np.where(ppos >= 0, span_group[np.maximum(ppos, 0)], -1)
        outermost = parent_group != span_group

        def self_s(group):
            return float(self_time[span_group == gidx[group]].sum())

        def calls(group):
            return int(np.count_nonzero(outermost & (span_group == gidx[group])))

        def incl_s(group):
            return float(dur[outermost & (span_group == gidx[group])].sum())

        per_target = np.bincount(tid, minlength=len(self.targets))
        problems = []
        missing = [
            target
            for target, group, n in zip(self.targets, self.groups, per_target)
            if group != ROOT and n == 0 and workload in served_by(target, group)
        ]
        if missing:
            problems.append(f"wrapped names with no calls: {missing}")

        roots = tid == 0
        run_wall = float(dur[roots].sum())
        id_spans = np.flatnonzero(span_group == gidx["suites.identity"])
        waits = [
            starts - starts.min()
            for starts in (t0[id_spans[ppos[id_spans] == r]] for r in np.flatnonzero(roots))
            if len(starts)
        ]
        pool_wait = float(np.concatenate(waits).mean()) if waits else 0.0
        stages = sum(b.flow_stages for b in self._buffers)
        if stages % RK4_STAGES:
            problems.append(f"integrate_flow built {stages} PointEvaluators, not whole RK4 steps")
        steps = stages // RK4_STAGES
        eval_calls = calls("symfield.eval")
        return {
            "symfield.parse_s": self_s("symfield.parse"),
            "symfield.parse_calls": calls("symfield.parse"),
            "symfield.diff_s": self_s("symfield.diff"),
            "symfield.diff_calls": calls("symfield.diff"),
            "symfield.eval_s": self_s("symfield.eval"),
            "symfield.eval_calls": eval_calls,
            "symfield.evals_per_sample": eval_calls / samples if samples else 0.0,
            "symfield.dag_nodes": len(self.seen_nodes),
            "excalc.build_s": self_s("excalc.build"),
            "excalc.build_calls": calls("excalc.build"),
            "excalc.invert_s": self_s("excalc.invert"),
            "excalc.eval_s": self_s("excalc.eval"),
            "excalc.eval_calls": calls("excalc.eval"),
            "foliation_dgla.bracket_s": self_s("foliation_dgla.bracket"),
            "foliation_dgla.bracket_calls": calls("foliation_dgla.bracket"),
            "foliation_dgla.delta_s": self_s("foliation_dgla.delta"),
            "leafcx.build_s": self_s("leafcx.build"),
            "leafcx.build_calls": calls("leafcx.build"),
            "defcomplex.build_s": self_s("defcomplex.build"),
            "flows.integrate_s": self_s("flows.integrate"),
            "flows.integrate_calls": calls("flows.integrate"),
            "flows.integrate_incl_s": incl_s("flows.integrate"),
            "flows.rk4_steps": steps,
            "flows.step_us": 1e6 * incl_s("flows.integrate") / steps if steps else 0.0,
            "flows.steps_per_sample": steps / samples if samples else 0.0,
            "flows.gauge_s": self_s("flows.gauge"),
            "report.add_s": self_s("report.add"),
            "report.add_calls": calls("report.add"),
            "sampling.draw_s": self_s("sampling.draw"),
            "scenarios.resolve_s": self_s("scenarios.resolve"),
            "suites.identity_s": self_s("suites.identity"),
            "suites.identities": calls("suites.identity"),
            "cli.pool_busy_frac": float(dur[id_spans].sum()) / (workers * run_wall),
            "cli.pool_wait_s": pool_wait,
            "cli.write_s": self_s("cli.write"),
            "trace.unattributed_s": self_s(ROOT),
            "trace.concurrent_s": concurrent,
            # all self times less the overlap of pool threads: equals the
            # duration of the top-level spans, the traced run_s
            "trace.accounted_s": float(self_time.sum()) - concurrent,
            "trace.spans": int(len(sid)),
        }, problems


def _union_length(starts, ends):
    """Total length of the union of intervals [starts[i], ends[i]]."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(zip(starts.tolist(), ends.tolist())):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total
