"""Command line interface and the plain-text problem file format.

Subcommands: solve (memory-bounded planner), exact (oracle), evaluate
and simulate (stored policies), bound (observation-mass loss bound), and
bench (value table across horizons).  ``--format records`` emits one
JSON object per line with a fixed schema; timing always goes into its
own record type so that record streams from identical runs stay
byte-comparable regardless of machine speed.

Exit codes: 0 success, 2 usage, 3 capacity (a requested computation is
too large), 4 bad data (unparseable or inconsistent problem/policy).
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .analysis import epsilon_global, error_bound
from .benchmarks import (
    BUILTIN_PROBLEMS,
    build_boxpush,
    build_builtin,
    load_boxpush_config,
)
from .errors import (
    CapacityError,
    ConfigError,
    EvaluationError,
    ImpossibleEvidenceError,
    ModelError,
    ParseError,
)
from .model import DecPomdp
from .policy import PolicyEvaluator, parse_policy, serialize_policy, simulate
from .solver import (
    SolverConfig,
    exact_solve,
    improved_mbdp,
    mbdp,
    random_policy_baseline,
    uniform_random_value,
)

SCHEMA = 1

# ---- problem file format -------------------------------------------------
#
# Line oriented, UTF-8, '#' starts a comment.  Headers first:
#   name: label
#   agents: 2
#   states: name... | count
#   actions: <agent> name...
#   observations: <agent> name...
#   horizon: T
#   start: p... | uniform
# then table entries (missing entries are zero):
#   T: a... s s' p
#   O: a... s' o... p
#   R: a... s s' value
# Tokens are whitespace separated, so names cannot contain spaces.


def _auto_names(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(count))


class _ProblemBuilder:
    def __init__(self):
        self.name = ""
        self.num_agents = None
        self.states = None
        self.actions = {}
        self.observations = {}
        self.horizon = None
        self.start = None
        self.entries = {"T": {}, "O": {}, "R": {}}

    def missing_headers(self) -> list[str]:
        missing = []
        if self.num_agents is None:
            missing.append("agents")
        if self.states is None:
            missing.append("states")
        if self.horizon is None:
            missing.append("horizon")
        if self.start is None:
            missing.append("start")
        for i in range(self.num_agents or 0):
            if i not in self.actions:
                missing.append(f"actions {i}")
            if i not in self.observations:
                missing.append(f"observations {i}")
        return missing

    def ready_for_body(self, lineno):
        missing = self.missing_headers()
        if missing:
            raise ParseError(
                f"line {lineno}: table entries before headers ({', '.join(missing)})"
            )


def parse_problem_text(text: str, name: str = "") -> DecPomdp:
    """Parses the plain-text problem format into a model.

    The result is fully validated; inconsistent probability tables are
    reported as parse errors with the header they violate.
    """
    builder = _ProblemBuilder()
    builder.name = name
    body_started = False

    def fail(lineno, message):
        raise ParseError(f"line {lineno}: {message}")

    def agent_index(lineno, token):
        try:
            idx = int(token)
        except ValueError:
            fail(lineno, f"agent index expected, got {token!r}")
        if builder.num_agents is None:
            fail(lineno, "agents header must come first")
        if not 0 <= idx < builder.num_agents:
            fail(lineno, f"agent index {idx} out of range")
        return idx

    def number(lineno, token, what):
        try:
            return float(token)
        except ValueError:
            fail(lineno, f"{what} expected a number, got {token!r}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(":")
        head = head.strip()
        tokens = rest.split()
        if head in ("T", "O", "R"):
            body_started = True
            builder.ready_for_body(lineno)
            n = builder.num_agents
            table = builder.entries[head]
            if head == "T" or head == "R":
                if len(tokens) != n + 3:
                    fail(lineno, f"{head}: needs {n} actions, state, state, value")
                acts, s, s2, v = tokens[:n], tokens[n], tokens[n + 1], tokens[n + 2]
                key = (tuple(acts), s, s2)
            else:
                if len(tokens) != 2 * n + 2:
                    fail(lineno, f"O: needs {n} actions, state, {n} observations, value")
                acts = tokens[:n]
                s2 = tokens[n]
                obs = tokens[n + 1 : 2 * n + 1]
                v = tokens[2 * n + 1]
                key = (tuple(acts), s2, tuple(obs))
            if key in table:
                fail(lineno, f"duplicate {head} entry for {key}")
            table[key] = (lineno, number(lineno, v, head))
            continue
        if body_started:
            fail(lineno, f"header '{head}' after table entries")
        if head == "name":
            builder.name = rest.strip()
        elif head == "agents":
            if len(tokens) != 1 or not tokens[0].isdigit():
                fail(lineno, "agents: needs one integer")
            builder.num_agents = int(tokens[0])
            if builder.num_agents < 2:
                fail(lineno, "at least two agents required")
        elif head == "states":
            if not tokens:
                fail(lineno, "states: needs names or a count")
            if len(tokens) == 1 and tokens[0].isdigit():
                builder.states = _auto_names("s", int(tokens[0]))
            else:
                builder.states = tuple(tokens)
        elif head == "actions":
            if len(tokens) < 2:
                fail(lineno, "actions: needs an agent index and names")
            idx = agent_index(lineno, tokens[0])
            if idx in builder.actions:
                fail(lineno, f"duplicate actions header for agent {idx}")
            builder.actions[idx] = tuple(tokens[1:])
        elif head == "observations":
            if len(tokens) < 2:
                fail(lineno, "observations: needs an agent index and names")
            idx = agent_index(lineno, tokens[0])
            if idx in builder.observations:
                fail(lineno, f"duplicate observations header for agent {idx}")
            builder.observations[idx] = tuple(tokens[1:])
        elif head == "horizon":
            if len(tokens) != 1 or not tokens[0].isdigit() or int(tokens[0]) < 1:
                fail(lineno, "horizon: needs one positive integer")
            builder.horizon = int(tokens[0])
        elif head == "start":
            if tokens == ["uniform"]:
                builder.start = "uniform"
            else:
                builder.start = [number(lineno, t, "start") for t in tokens]
        else:
            fail(lineno, f"unknown header '{head}'")

    missing = builder.missing_headers()
    if missing:
        raise ParseError(f"missing headers: {', '.join(missing)}")

    n = builder.num_agents
    states = builder.states
    actions = tuple(builder.actions[i] for i in range(n))
    observations = tuple(builder.observations[i] for i in range(n))
    s_index = {s: i for i, s in enumerate(states)}
    a_index = [{a: j for j, a in enumerate(actions[i])} for i in range(n)]
    o_index = [{o: j for j, o in enumerate(observations[i])} for i in range(n)]
    if len(s_index) != len(states):
        raise ParseError("duplicate state names")

    num_s = len(states)
    num_ja = int(np.prod([len(a) for a in actions]))
    num_jo = int(np.prod([len(o) for o in observations]))
    a_strides = [1] * n
    for i in range(n - 2, -1, -1):
        a_strides[i] = a_strides[i + 1] * len(actions[i + 1])
    o_strides = [1] * n
    for i in range(n - 2, -1, -1):
        o_strides[i] = o_strides[i + 1] * len(observations[i + 1])

    def lookup(lineno, mapping, token, what):
        if token not in mapping:
            raise ParseError(f"line {lineno}: unknown {what} {token!r}")
        return mapping[token]

    transition = np.zeros((num_ja, num_s, num_s))
    observation = np.zeros((num_ja, num_s, num_jo))
    reward = np.zeros((num_ja, num_s, num_s))
    for (acts, s, s2), (lineno, v) in builder.entries["T"].items():
        ja = sum(
            lookup(lineno, a_index[i], acts[i], f"action of agent {i}") * a_strides[i]
            for i in range(n)
        )
        transition[ja, lookup(lineno, s_index, s, "state"), lookup(lineno, s_index, s2, "state")] = v
    for (acts, s2, obs), (lineno, v) in builder.entries["O"].items():
        ja = sum(
            lookup(lineno, a_index[i], acts[i], f"action of agent {i}") * a_strides[i]
            for i in range(n)
        )
        jo = sum(
            lookup(lineno, o_index[i], obs[i], f"observation of agent {i}") * o_strides[i]
            for i in range(n)
        )
        observation[ja, lookup(lineno, s_index, s2, "state"), jo] = v
    for (acts, s, s2), (lineno, v) in builder.entries["R"].items():
        ja = sum(
            lookup(lineno, a_index[i], acts[i], f"action of agent {i}") * a_strides[i]
            for i in range(n)
        )
        reward[ja, lookup(lineno, s_index, s, "state"), lookup(lineno, s_index, s2, "state")] = v

    if builder.start == "uniform":
        start = np.full(num_s, 1.0 / num_s)
    else:
        if len(builder.start) != num_s:
            raise ParseError(
                f"start: has {len(builder.start)} entries for {num_s} states"
            )
        start = np.asarray(builder.start)

    try:
        model = DecPomdp(
            states=states,
            actions=actions,
            observations=observations,
            transition=transition,
            observation=observation,
            reward=reward,
            initial_belief=start,
            horizon=builder.horizon,
            name=builder.name,
        )
    except ModelError as exc:
        raise ParseError(str(exc)) from exc
    problems = model.validate()
    if problems:
        raise ParseError("; ".join(problems))
    return model


def problem_to_text(model: DecPomdp) -> str:
    """Writes a model in the plain-text problem format (round-trips exactly)."""
    for group in (model.states,) + model.actions + model.observations:
        for token in group:
            if any(c.isspace() for c in token) or "#" in token:
                raise ConfigError(f"name {token!r} cannot be written to a problem file")
    lines = []
    if model.name:
        lines.append(f"name: {model.name}")
    lines.append(f"agents: {model.num_agents}")
    lines.append("states: " + " ".join(model.states))
    for i in range(model.num_agents):
        lines.append(f"actions: {i} " + " ".join(model.actions[i]))
    for i in range(model.num_agents):
        lines.append(f"observations: {i} " + " ".join(model.observations[i]))
    lines.append(f"horizon: {model.horizon}")
    lines.append("start: " + " ".join(repr(float(p)) for p in model.initial_belief.probs))
    for ja in range(model.num_joint_actions):
        acts = " ".join(model.action_names(ja))
        for s in range(model.num_states):
            for s2 in range(model.num_states):
                p = float(model.transition[ja, s, s2])
                if p != 0.0:
                    lines.append(
                        f"T: {acts} {model.states[s]} {model.states[s2]} {p!r}"
                    )
                r = float(model.reward[ja, s, s2])
                if r != 0.0:
                    lines.append(
                        f"R: {acts} {model.states[s]} {model.states[s2]} {r!r}"
                    )
        for s2 in range(model.num_states):
            for jo in range(model.num_joint_observations):
                p = float(model.observation[ja, s2, jo])
                if p != 0.0:
                    obs = " ".join(model.observation_names(jo))
                    lines.append(f"O: {acts} {model.states[s2]} {obs} {p!r}")
    return "\n".join(lines) + "\n"


def load_problem(spec: str, horizon: int | None = None) -> DecPomdp:
    """Resolves --problem: builtin:NAME, a bare builtin name, boxpush:cfg.json, or a path."""
    if spec.startswith("builtin:"):
        return build_builtin(spec[len("builtin:"):], horizon)
    if spec in BUILTIN_PROBLEMS:
        return build_builtin(spec, horizon)
    if spec.startswith("boxpush:"):
        model = build_boxpush(load_boxpush_config(spec[len("boxpush:"):]))
    else:
        with open(spec, "r", encoding="utf-8") as fh:
            model = parse_problem_text(fh.read(), name=os.path.basename(spec))
    if horizon is not None:
        if horizon < 1:
            raise ConfigError("horizon must be >= 1")
        model = replace(model, horizon=horizon)
    return model


# ---- record and text output ----------------------------------------------


class _Out:
    def __init__(self, args):
        self.records = args.format == "records"

    def record(self, record: dict, human: str | None):
        if self.records:
            print(json.dumps(record, separators=(",", ":")))
        elif human is not None:
            print(human)


def _meta(command: str, model: DecPomdp) -> dict:
    return {
        "schema": SCHEMA,
        "type": "meta",
        "command": command,
        "problem": model.name or "unnamed",
        "horizon": model.horizon,
        "agents": model.num_agents,
        "states": model.num_states,
    }


def _write_policy(args, model, policy) -> tuple[str | None, str | None]:
    """(text, path) of the policy file, made only when a record or ``--output`` needs it."""
    if policy is None or not (args.format == "records" or args.output):
        return None, None
    text = serialize_policy(model, policy)
    if not args.output:
        return text, None
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text, args.output


def _solver_config(args) -> SolverConfig:
    return SolverConfig(
        max_trees=args.max_trees,
        max_obs=args.max_obs,
        heuristics=tuple(args.heuristics.split(",")),
        seed=args.seed,
        recursion_depth=args.recursion_depth,
        backup_cap=args.backup_cap,
    )


# ---- subcommands -----------------------------------------------------------


def _cmd_solve(args) -> int:
    model = load_problem(args.problem, args.horizon)
    out = _Out(args)
    out.record(_meta("solve", model), None)
    started = time.perf_counter()

    if args.solver == "random":
        result = random_policy_baseline(model, samples=args.samples, seed=args.seed)
        policy_text, path = _write_policy(args, model, result.policy)
        out.record(
            {
                "schema": SCHEMA,
                "type": "result",
                "solver": "random",
                "value": result.value,
                "std_error": result.std_error,
                "samples": result.samples,
                "seed": args.seed,
                "policy": policy_text,
                "policy_file": path,
            },
            f"random baseline: value={result.value:.6f}"
            + (f" +- {result.std_error:.6f} (se)" if result.std_error else "")
            + f" over {result.samples} sample(s)",
        )
        out.record(
            {
                "schema": SCHEMA,
                "type": "timing",
                "millis": (time.perf_counter() - started) * 1000.0,
            },
            None,
        )
        return 0

    cfg = _solver_config(args)
    solve = mbdp if args.solver == "mbdp" else improved_mbdp
    report = solve(model, cfg)
    for level in report.levels:
        out.record(
            {
                "schema": SCHEMA,
                "type": "level",
                "tree_depth": level.tree_depth,
                "selection_values": list(level.selection_values),
                "heuristics": list(level.heuristic_names),
                "duplicated": level.duplicated,
                "backup_sizes": list(level.backup_sizes),
                "partial": level.partial,
            },
            f"level {level.tree_depth}: "
            f"selections={['%.4f' % v for v in level.selection_values]} "
            f"backup={list(level.backup_sizes)}"
            + (" (partial)" if level.partial else ""),
        )
    policy_text, path = _write_policy(args, model, report.policy)
    out.record(
        {
            "schema": SCHEMA,
            "type": "result",
            "solver": report.solver,
            "value": report.value,
            "round_values": list(report.round_values),
            "seed": cfg.seed,
            "max_trees": cfg.max_trees,
            "max_obs": cfg.max_obs,
            "policy": policy_text,
            "policy_file": path,
        },
        f"{report.solver}: value={report.value:.6f} (horizon {report.horizon}, "
        f"max_trees {cfg.max_trees}"
        + (f", max_obs {cfg.max_obs}" if cfg.max_obs is not None else "")
        + ")",
    )
    out.record(
        {
            "schema": SCHEMA,
            "type": "timing",
            "millis": report.millis,
            "level_millis": [level.millis for level in report.levels],
        },
        None,
    )
    return 0


def _cmd_exact(args) -> int:
    model = load_problem(args.problem, args.horizon)
    out = _Out(args)
    out.record(_meta("exact", model), None)
    started = time.perf_counter()
    result = exact_solve(
        model,
        max_candidates=args.max_candidates,
        max_pairs=args.max_pairs,
        max_stream=args.max_stream,
    )
    policy_text, path = _write_policy(args, model, result.policy)
    out.record(
        {
            "schema": SCHEMA,
            "type": "result",
            "solver": "exact",
            "value": result.value,
            "candidate_counts": [list(c) for c in result.candidate_counts],
            "state_values": [float(v) for v in result.state_values],
            "policy": policy_text,
            "policy_file": path,
        },
        f"exact: value={result.value:.6f} (horizon {model.horizon}, "
        f"levels {[list(c) for c in result.candidate_counts]})",
    )
    out.record(
        {
            "schema": SCHEMA,
            "type": "timing",
            "millis": (time.perf_counter() - started) * 1000.0,
        },
        None,
    )
    return 0


def _load_policy(args, model):
    with open(args.policy, "r", encoding="utf-8") as fh:
        return parse_policy(model, fh.read())


def _cmd_evaluate(args) -> int:
    model = load_problem(args.problem, args.horizon)
    joint = _load_policy(args, model)
    out = _Out(args)
    out.record(_meta("evaluate", model), None)
    value = PolicyEvaluator(model).at_belief(joint, model.initial_belief)
    out.record(
        {
            "schema": SCHEMA,
            "type": "result",
            "solver": "evaluate",
            "value": value,
            "depth": joint.depth,
        },
        f"policy value at the initial belief: {value:.6f} (depth {joint.depth})",
    )
    return 0


def _cmd_simulate(args) -> int:
    model = load_problem(args.problem, args.horizon)
    joint = _load_policy(args, model)
    out = _Out(args)
    out.record(_meta("simulate", model), None)
    started = time.perf_counter()
    result = simulate(model, joint, episodes=args.episodes, seed=args.seed)
    out.record(
        {
            "schema": SCHEMA,
            "type": "result",
            "solver": "simulate",
            "value": result.mean,
            "std_error": result.std_error,
            "episodes": result.episodes,
            "seed": args.seed,
        },
        f"simulated value: {result.mean:.6f} +- {result.std_error:.6f} (se) "
        f"over {result.episodes} episodes",
    )
    out.record(
        {
            "schema": SCHEMA,
            "type": "timing",
            "millis": (time.perf_counter() - started) * 1000.0,
        },
        None,
    )
    return 0


def _cmd_bound(args) -> int:
    model = load_problem(args.problem, args.horizon)
    out = _Out(args)
    out.record(_meta("bound", model), None)
    started = time.perf_counter()
    report = epsilon_global(
        model,
        max_obs=args.max_obs,
        mode=args.mode,
        budget=args.budget,
        seed=args.seed,
        max_beliefs=args.max_beliefs,
    )
    bound = error_bound(model, report.epsilon)
    witness = None
    if report.witness is not None:
        witness = {
            "history": [list(step) for step in report.witness.history],
            "action": report.witness.action,
            "belief": list(report.witness.belief),
            "subsets": [list(s) for s in report.witness.subsets],
        }
    guarantee = "guaranteed" if report.guaranteed else "estimate only, not a guarantee"
    out.record(
        {
            "schema": SCHEMA,
            "type": "bound",
            "mode": report.mode,
            "guaranteed": report.guaranteed,
            "max_obs": report.max_obs,
            "epsilon": report.epsilon,
            "bound": bound,
            "beliefs_checked": report.beliefs_checked,
            "witness": witness,
        },
        f"epsilon={report.epsilon:.6f} ({report.mode}, {guarantee}; "
        f"{report.beliefs_checked} beliefs), worst-case loss bound={bound:.6f}",
    )
    out.record(
        {
            "schema": SCHEMA,
            "type": "timing",
            "millis": (time.perf_counter() - started) * 1000.0,
        },
        None,
    )
    return 0


def _parse_horizons(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, _, hi = part.partition("..")
            try:
                lo_i, hi_i = int(lo), int(hi)
            except ValueError:
                raise ConfigError(f"bad horizon range {part!r}")
            if lo_i < 1 or hi_i < lo_i:
                raise ConfigError(f"bad horizon range {part!r}")
            out.extend(range(lo_i, hi_i + 1))
        else:
            try:
                value = int(part)
            except ValueError:
                raise ConfigError(f"bad horizon {part!r}")
            if value < 1:
                raise ConfigError("horizons must be >= 1")
            out.append(value)
    if not out:
        raise ConfigError("no horizons given")
    return out


def _cmd_bench(args) -> int:
    horizons = _parse_horizons(args.horizons)
    if args.seeds < 1:
        raise ConfigError("seeds must be >= 1")
    out = _Out(args)
    rows = []
    for h in horizons:
        model = load_problem(args.problem, h)
        if not rows:
            out.record(_meta("bench", model), None)
            if not out.records:
                print(
                    f"{'h':>4} {'optimal':>12} {'random':>12} "
                    f"{'mbdp':>12} {'improved':>12}"
                )
        cfg = _solver_config(args)
        timing = {"schema": SCHEMA, "type": "timing", "horizon": h}
        optimal = None
        if h <= args.oracle_limit:
            t0 = time.perf_counter()
            try:
                optimal = exact_solve(model).value
            except CapacityError:
                optimal = None
            timing["exact_millis"] = (time.perf_counter() - t0) * 1000.0
        rand_value = uniform_random_value(model)
        seeds = range(cfg.seed, cfg.seed + args.seeds)
        planned = {}
        for name, solve in (("mbdp", mbdp), ("improved", improved_mbdp)):
            t0 = time.perf_counter()
            planned[name] = max(solve(model, replace(cfg, seed=s)).value for s in seeds)
            timing[f"{name}_millis"] = (time.perf_counter() - t0) * 1000.0
        row = {
            "schema": SCHEMA,
            "type": "bench-row",
            "horizon": h,
            "optimal": optimal,
            "random": rand_value,
            "mbdp": planned["mbdp"],
            "improved": planned["improved"],
        }
        rows.append(row)

        def cell(v):
            return f"{v:12.4f}" if v is not None else f"{'-':>12}"

        out.record(
            row,
            f"{h:>4} {cell(optimal)} {cell(rand_value)} {cell(planned['mbdp'])} "
            f"{cell(planned['improved'])}",
        )
        out.record(timing, None)
    return 0


# ---- argument parsing ------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbdp",
        description="Memory-bounded planning for finite-horizon decentralized POMDPs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument(
            "--problem",
            required=True,
            help="builtin:NAME (mabc, tiger, boxpush), boxpush:CONFIG.json, or a problem file",
        )
        p.add_argument("--horizon", type=int, default=None)
        p.add_argument(
            "--format", choices=("human", "records"), default="human",
            help="records = one JSON object per line",
        )
        if seed:
            p.add_argument("--seed", type=int, default=0)

    def solver_options(p):
        p.add_argument("--max-trees", type=int, default=3)
        p.add_argument(
            "--max-obs", type=int, default=None,
            help="observations kept per agent in each backup (default: all)",
        )
        p.add_argument("--heuristics", default="mdp,random")
        p.add_argument("--recursion-depth", type=int, default=0)
        p.add_argument("--backup-cap", type=int, default=1_000_000)

    p = sub.add_parser("solve", help="run the memory-bounded planner")
    common(p)
    solver_options(p)
    p.add_argument("--solver", choices=("improved", "mbdp", "random"), default="improved")
    p.add_argument("--samples", type=int, default=1, help="policies drawn when --solver random")
    p.add_argument("--output", default=None, help="write the policy to this file")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("exact", help="solve exactly by exhaustive enumeration")
    common(p, seed=False)
    # the caps default to exact_solve's own defaults
    caps = inspect.signature(exact_solve).parameters
    for cap in ("max_candidates", "max_pairs", "max_stream"):
        p.add_argument("--" + cap.replace("_", "-"), type=int, default=caps[cap].default)
    p.add_argument("--output", default=None, help="write the policy to this file")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("evaluate", help="exact value of a stored policy")
    common(p, seed=False)
    p.add_argument("--policy", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("simulate", help="Monte Carlo value of a stored policy")
    common(p)
    p.add_argument("--policy", required=True)
    p.add_argument("--episodes", type=int, default=10_000)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bound", help="observation-mass parameter and loss bound")
    common(p)
    p.add_argument("--max-obs", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    p.add_argument("--budget", type=int, default=256, help="rollouts in sampled mode")
    p.add_argument("--max-beliefs", type=int, default=500_000)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("bench", help="value table across horizons")
    common(p)
    solver_options(p)
    p.add_argument("--horizons", default="1,2,3", help="e.g. 1,2,3 or 1..10")
    p.add_argument(
        "--seeds", type=int, default=1,
        help="planner columns report the best over seeds SEED..SEED+N-1",
    )
    p.add_argument(
        "--oracle-limit", type=int, default=4,
        help="compute the exact value for horizons up to this",
    )
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        _emit_error(args, exc)
        return 3
    except (ParseError, ModelError, ConfigError, EvaluationError, ImpossibleEvidenceError) as exc:
        _emit_error(args, exc)
        return 4
    except OSError as exc:
        _emit_error(args, exc)
        return 4


def _emit_error(args, exc) -> None:
    record = {
        "schema": SCHEMA,
        "type": "error",
        "error": type(exc).__name__,
        "message": str(exc),
    }
    if getattr(args, "format", "human") == "records":
        print(json.dumps(record, separators=(",", ":")), file=sys.stderr)
    else:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
