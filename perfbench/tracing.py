"""Spans around omdkit's public callables, recorded from outside the package.

`Tracer.install()` replaces each traced callable, in every omdkit module
namespace that binds it (and on its class, for methods), with a wrapper that
records a span: callable, start, end and parent span. Spans live in flat
arrays while the run goes and are written out once, when it ends.
`layer_metrics` turns them into the per-layer figures.
"""
from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

# (module, attribute) of each traced function, and (module, class, method)
# of each traced method.
FUNCTIONS = (
    ("mirror", "omd_round"),
    ("mirror", "adaptive_eta"),
    ("mirror", "prox_step"),
    ("games", "full_info_step"),
    ("games", "run_full_info_match"),
    ("games", "run_bandit_match"),
    ("games", "tangent_basis"),
    ("offline", "mirror_prox"),
    ("offline", "holder_optimize"),
    ("saddle", "saddle_solve"),
    ("convexprog", "solve_cp"),
    ("convexprog", "max_flow"),
    ("harness", "run_experiment"),
    ("harness", "parse_matrix"),
    ("harness", "parse_graph"),
)
METHODS = (
    ("mirror", "SimplexPoint", "exp_step"),
    ("_linalg", "AffineSolver", "project"),
)
MODULES = ("omdkit", "omdkit.mirror", "omdkit._linalg", "omdkit.games", "omdkit.offline",
           "omdkit.saddle", "omdkit.convexprog", "omdkit.harness", "omdkit.cli")
OP = "op"


def _records_bytes(result) -> int:
    """Bytes of the distinct arrays held by a match's per-round records."""
    seen = {}
    for rec in list(result.row_records) + list(result.col_records):
        for value in vars(rec).values():
            if isinstance(value, np.ndarray):
                seen[id(value)] = value.nbytes
    return sum(seen.values())


# what a span keeps of its call, by callable name
_EXTRA = {
    "solve_cp": lambda out: out[1].rounds,
    "run_bandit_match": lambda out: (len(out.trace), len(out.f_average), len(out.x_average)),
    "run_full_info_match": _records_bytes,
    "mirror_prox": lambda out: len(out.rounds),
    "holder_optimize": lambda out: len(out.rounds),
    "saddle_solve": lambda out: len(out.trace),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = [OP]
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.extra: dict[int, object] = {}
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- recording
    def _open(self, kind: int) -> int:
        idx = len(self.kind)
        self.kind.append(kind)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def span(self, name: str, fn):
        """Run fn() under a span of the given name; returns its result."""
        return self._wrap(name, fn)()

    def _kind(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name: str, fn):
        kind = self._kind(name)
        extra = _EXTRA.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(kind)
            started = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer.start[idx] = started
                tracer._stack.pop()
            if extra is not None:
                tracer.extra[idx] = extra(out)
            return out

        return traced

    # ----------------------------------------------------------- installation
    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for module_name, attr in FUNCTIONS:
            original = getattr(importlib.import_module(f"omdkit.{module_name}"), attr)
            wrapper = self._wrap(attr, original)
            for module in modules:
                if vars(module).get(attr) is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)
        for module_name, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"omdkit.{module_name}"), cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ---------------------------------------------------------------- output
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "kind": np.frombuffer(self.kind, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _under(parent: np.ndarray, kind: np.ndarray, target: int) -> np.ndarray:
    """Mask of spans that have an ancestor of the given kind."""
    mask = np.zeros(parent.size, dtype=bool)
    cur = parent.copy()
    while np.any(cur >= 0):
        live = cur >= 0
        mask[live] |= kind[cur[live]] == target
        nxt = np.full_like(cur, -1)
        nxt[live] = parent[cur[live]]
        cur = nxt
    return mask


def _op_of(parent: np.ndarray, kind: np.ndarray) -> np.ndarray:
    """Index of the enclosing op span of every span (-1 outside ops)."""
    top = np.arange(parent.size)
    while True:
        p = parent[top]
        step = p >= 0
        if not np.any(step):
            break
        top = np.where(step, p, top)
    return np.where(kind[top] == 0, top, -1)


def _tenths(idx: np.ndarray, owner: np.ndarray, dur: np.ndarray) -> tuple[float, float]:
    """Mean duration of the first and the last tenth of spans, per owner."""
    early, late = [], []
    for o in np.unique(owner[idx]):
        own = idx[owner[idx] == o]
        k = max(1, own.size // 10)
        early.append(dur[own[:k]])
        late.append(dur[own[-k:]])
    if not early:
        return 0.0, 0.0
    return float(np.mean(np.concatenate(early))), float(np.mean(np.concatenate(late)))


def layer_metrics(tracer: Tracer, passes: int, op_time_s: float) -> dict[str, float]:
    """Per-layer figures from the recorded spans; figures per pass where counted.

    op_time_s is the summed duration of the op spans, the denominator of
    the projection's self-time share.
    """
    a = tracer.arrays()
    kind, parent = a["kind"], a["parent"]
    dur = a["end"] - a["start"]
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=kind.size)
    self_time = dur - child
    ids = {name: i for i, name in enumerate(tracer.names)}

    def of(name):
        return np.flatnonzero(kind == ids[name]) if name in ids else np.zeros(0, dtype=int)

    def mean_us(name):
        idx = of(name)
        return float(dur[idx].mean() * 1e6) if idx.size else 0.0

    def extra_sum(names):
        return sum(tracer.extra[i] for n in names for i in of(n))

    m: dict[str, float] = {}
    owner = _op_of(parent, kind)
    omd = of("omd_round")
    m["mirror.omd_round_us.early"], m["mirror.omd_round_us.late"] = (x * 1e6 for x in _tenths(omd, owner, dur))
    m["mirror.adaptive_eta_us.late"] = _tenths(of("adaptive_eta"), owner, dur)[1] * 1e6
    m["mirror.prox_calls"] = of("prox_step").size / passes
    m["mirror.prox_us"] = mean_us("prox_step")
    m["mirror.exp_step_calls"] = of("exp_step").size / passes
    m["mirror.exp_step_us"] = mean_us("exp_step")
    proj = of("project")
    m["linalg.project_calls"] = proj.size / passes
    m["linalg.project_us"] = mean_us("project")
    m["linalg.project_self_share"] = float(self_time[proj].sum()) / op_time_s if op_time_s > 0 else 0.0
    cp = of("solve_cp")
    cp_rounds = extra_sum(["solve_cp"])
    m["convexprog.rounds"] = cp_rounds / passes
    m["convexprog.solves"] = cp.size / passes
    m["convexprog.round_us"] = float(dur[cp].sum()) / cp_rounds * 1e6 if cp_rounds else 0.0
    m["games.full_info_step_us"] = mean_us("full_info_step")
    m["games.records_mb"] = max((tracer.extra[i] for i in of("run_full_info_match")), default=0) / 1e6
    for tag, wide in (("wide", True), ("narrow", False)):
        # a wide match has more than 50 actions on some side
        sel = [i for i in of("run_bandit_match") if (max(tracer.extra[i][1:]) > 50) == wide]
        rounds = sum(tracer.extra[i][0] for i in sel)
        m[f"games.bandit_round_us.{tag}"] = float(dur[sel].sum()) / rounds * 1e6 if rounds else 0.0
    m["games.tangent_basis_ms"] = mean_us("tangent_basis") / 1e3
    off = np.concatenate([of("mirror_prox"), of("holder_optimize")])
    off_rounds = extra_sum(["mirror_prox", "holder_optimize"])
    m["offline.round_us"] = float(dur[off].sum()) / off_rounds * 1e6 if off_rounds else 0.0
    sad = of("saddle_solve")
    sad_rounds = extra_sum(["saddle_solve"])
    m["saddle.round_us"] = float(dur[sad].sum()) / sad_rounds * 1e6 if sad_rounds else 0.0
    if sad_rounds:
        in_saddle = _under(parent, kind, ids["saddle_solve"])
        m["saddle.prox_calls_per_round"] = int(np.sum(in_saddle[of("prox_step")])) / (2 * sad_rounds)
    else:
        m["saddle.prox_calls_per_round"] = 0.0
    m["harness.self_s"] = float(self_time[of("run_experiment")].sum()) / passes
    parses = np.concatenate([of("parse_matrix"), of("parse_graph")])
    m["harness.parse_ms"] = float(dur[parses].mean() * 1e3) if parses.size else 0.0
    return m
