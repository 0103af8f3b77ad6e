"""Spans and counters recorded around calls into the mbdp package.

The tracer patches package functions from the outside (nothing inside
``src/`` knows about it), records one span per call (name, start, end,
parent) in flat arrays, and derives per-layer self times from them: a
span's self time is its duration minus the durations of its direct
children.

``ValueTable.get``, ``put`` and ``__contains__`` are not wrapped: each
``value_vector`` call makes about fifty of them, and a Python wrapper on
each would cost more than the work it measures.  Table hits are
counted instead by whether ``value_vector`` grew the table.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

import mbdp
import mbdp.analysis
import mbdp.policy
import mbdp.solver
from mbdp import CompiledPolicy, DecPomdp, PolicyEvaluator, ValueTable

# names that mbdp.solver imports from mbdp.backup and mbdp.heuristics,
# with the span name each gets
SOLVER_IMPORTS = {
    "build_portfolio": "heuristics.build_portfolio",
    "generate_belief": "heuristics.generate_belief",
    "exhaustive_backup": "backup.exhaustive_backup",
    "partial_backup": "backup.partial_backup",
    "rank_observations": "backup.rank_observations",
    "fill_missing": "backup.fill_missing",
    "prune_value_tensor": "backup.prune_value_tensor",
}
BELIEF_UPDATES = ("propagate", "bayes_update", "observation_probabilities")


class Tracer:
    """In-memory span recorder; spans are appended in the order they open."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # ---- recording -------------------------------------------------

    def open(self, name: str) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def _wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # ---- installing the wrappers ---------------------------------------

    def install(self) -> None:
        counts = self.counts

        def after_backup(result, args):
            counts["trees_built"] += sum(result.sizes)

        def after_belief(result, args):
            counts["trajectory_steps"] += len(result.actions)

        def after_prune(result, args):
            keep, _ = result
            counts["prune_rows_in"] += sum(args[0].shape[:-1])
            counts["prune_rows_out"] += sum(len(k) for k in keep)

        after = {
            "exhaustive_backup": after_backup,
            "partial_backup": after_backup,
            "generate_belief": after_belief,
            "prune_value_tensor": after_prune,
        }
        for attr, name in SOLVER_IMPORTS.items():
            fn = getattr(mbdp.solver, attr)
            self._patch(mbdp.solver, attr, self._wrap(name, fn, after.get(attr)))

        value_vector = PolicyEvaluator.value_vector

        def traced_value_vector(evaluator, joint):
            before = len(evaluator.table)
            index = self.open("policy.value_vector")
            try:
                result = value_vector(evaluator, joint)
            finally:
                self.close(index)
            if len(evaluator.table) == before:
                counts["table_hits"] += 1
            return result

        self._patch(PolicyEvaluator, "value_vector", traced_value_vector)

        retain = ValueTable.retain

        def traced_retain(table, keys):
            counts["table_entries"] = max(counts["table_entries"], len(table))
            index = self.open("policy.retain")
            try:
                return retain(table, keys)
            finally:
                self.close(index)

        self._patch(ValueTable, "retain", traced_retain)
        self._patch(CompiledPolicy, "__init__", self._wrap("policy.compile", CompiledPolicy.__init__))

        def after_simulate(result, args):
            counts["sim_bytes_computed"] += simulate_bytes(args[0], args[1], result.episodes)

        simulate = self._wrap("policy.simulate", mbdp.policy.simulate, after_simulate)
        self._patch(mbdp.policy, "simulate", simulate)
        self._patch(mbdp, "simulate", simulate)

        def after_epsilon(result, args):
            counts["beliefs_checked"] += result.beliefs_checked

        epsilon = self._wrap("analysis.epsilon_global", mbdp.analysis.epsilon_global, after_epsilon)
        self._patch(mbdp.analysis, "epsilon_global", epsilon)
        self._patch(mbdp, "epsilon_global", epsilon)

        for attr in BELIEF_UPDATES:
            self._patch(DecPomdp, attr, _counted(getattr(DecPomdp, attr), counts))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ---- analysis --------------------------------------------------------

    def arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        return name, start, end, parent

    def self_times(self):
        """(name ids, durations, self times, parents) per span."""
        name, start, end, parent = self.arrays()
        duration = end - start
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        return name, duration, duration - child_time, parent

    def save(self, path) -> None:
        name, start, end, parent = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, start=start, end=end, parent=parent)


def _counted(fn, counts):
    def counted(*args, **kwargs):
        counts["belief_updates"] += 1
        return fn(*args, **kwargs)

    counted.__wrapped__ = fn
    return counted


def simulate_bytes(model, joint, episodes: int) -> int:
    """Bytes of the per-episode arrays ``simulate`` materialises, from their sizes.

    Computed, not measured: for the initial state draw and for every step,
    the (episodes x states) probability rows, their cumulative sums and
    comparison mask; the (episodes x joint observations) equivalents for
    all but the last step; and about ten int64/float64 vectors of one
    entry per episode per step.
    """
    trees = joint.trees if hasattr(joint, "trees") else tuple(joint)
    horizon = trees[0].depth
    states = model.num_states
    joint_obs = model.num_joint_observations
    wide = 17 * states  # float64 rows + float64 cumsum + bool mask
    per_step = episodes * (wide + 80)
    obs_step = episodes * 17 * joint_obs
    return int(episodes * wide + horizon * per_step + (horizon - 1) * obs_step)


LAYER_UNITS = {
    "benchmarks.build_s": "s",
    "heuristics.portfolio_s": "s",
    "heuristics.belief_s": "s",
    "heuristics.trajectory_steps": "count",
    "model.belief_updates": "count",
    "solver.self_s": "s",
    "solver.pairs_scored": "count",
    "policy.value_vector_s": "s",
    "policy.value_vector_calls": "count",
    "policy.table_hit_ratio": "ratio",
    "policy.retain_s": "s",
    "policy.table_entries": "count",
    "backup.fill_s": "s",
    "backup.fill_evaluations": "count",
    "backup.partial_s": "s",
    "backup.rank_s": "s",
    "backup.exhaustive_s": "s",
    "backup.trees_built": "count",
    "backup.prune_s": "s",
    "backup.prune_rows_in": "count",
    "backup.prune_rows_out": "count",
    "solver.exact_self_s": "s",
    "solver.tuples_streamed": "count",
    "policy.compile_s": "s",
    "policy.simulate_s": "s",
    "policy.sim_bytes_computed": "B",
    "analysis.epsilon_s": "s",
    "analysis.beliefs_checked": "count",
    "rss.after_setup_mb": "MB",
    "rss.after_solve_mb": "MB",
    "rss.after_simulate_mb": "MB",
    "rss.after_bound_mb": "MB",
    "trace.overhead_s": "s",
}

# spans whose self time makes up a planner solve ("solver.solve" spans);
# value_vector calls made inside fill_missing count toward backup.fill_s
SOLVE_PARTS = {
    "selection scan": ("solver.self_s", "policy.value_vector_s"),
    "belief generation": ("heuristics.belief_s", "heuristics.portfolio_s"),
    "fill": ("backup.fill_s",),
    "backups and ranking": ("backup.exhaustive_s", "backup.partial_s", "backup.rank_s"),
    "table upkeep": ("policy.retain_s",),
}


def layer_metrics(tracer: Tracer):
    """Per-layer metrics from the recorded spans and counters, and the solve split.

    Returns (metrics, split).  Times are self times except ``backup.fill_s``,
    which includes the ``value_vector`` calls that fill makes; those calls
    are left out of ``policy.value_vector_s`` and ``solver.pairs_scored``.
    The workload adds the metrics it knows itself (RSS, tuples streamed,
    tracing overhead).
    """
    name, duration, self_time, parent = tracer.self_times()
    ids = {n: i for i, n in enumerate(tracer.names)}

    def select(span):
        return name == ids.get(span, -1)

    def self_s(span):
        return float(self_time[select(span)].sum())

    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
    in_fill = parent_name == ids.get("backup.fill_missing", -1)
    calls = select("policy.value_vector")
    counts = tracer.counts
    total_calls = int(calls.sum())
    metrics = {
        "benchmarks.build_s": float(duration[select("benchmarks.build")].sum()),
        "heuristics.portfolio_s": self_s("heuristics.build_portfolio"),
        "heuristics.belief_s": self_s("heuristics.generate_belief"),
        "heuristics.trajectory_steps": counts["trajectory_steps"],
        "model.belief_updates": counts["belief_updates"],
        "solver.self_s": self_s("solver.solve"),
        "solver.pairs_scored": int((calls & ~in_fill).sum()),
        "policy.value_vector_s": float(self_time[calls & ~in_fill].sum()),
        "policy.value_vector_calls": total_calls,
        "policy.table_hit_ratio": counts["table_hits"] / total_calls if total_calls else 0.0,
        "policy.retain_s": self_s("policy.retain"),
        "policy.table_entries": counts["table_entries"],
        "backup.fill_s": float(duration[select("backup.fill_missing")].sum()),
        "backup.fill_evaluations": int((calls & in_fill).sum()),
        "backup.partial_s": self_s("backup.partial_backup"),
        "backup.rank_s": self_s("backup.rank_observations"),
        "backup.exhaustive_s": self_s("backup.exhaustive_backup"),
        "backup.trees_built": counts["trees_built"],
        "backup.prune_s": self_s("backup.prune_value_tensor"),
        "backup.prune_rows_in": counts["prune_rows_in"],
        "backup.prune_rows_out": counts["prune_rows_out"],
        "solver.exact_self_s": self_s("solver.exact_solve"),
        "policy.compile_s": self_s("policy.compile"),
        "policy.simulate_s": self_s("policy.simulate"),
        "policy.sim_bytes_computed": counts["sim_bytes_computed"],
        "analysis.epsilon_s": self_s("analysis.epsilon_global"),
        "analysis.beliefs_checked": counts["beliefs_checked"],
    }
    solve_span = float(duration[select("solver.solve")].sum())
    parts = {part: sum(metrics[m] for m in names) for part, names in SOLVE_PARTS.items()}
    split = {
        "solve_span_s": solve_span,
        "solve_parts_s": parts,
        "solve_parts_sum_s": sum(parts.values()),
        "exact_span_s": float(duration[select("solver.exact_solve")].sum()),
    }
    return metrics, split
