"""The benchmark's three workloads: op streams, op execution and oracles.

An op is one closed-loop request: a call of ``nlvtest.cli.main`` with a
command line, or of ``leggett.scan_explicit_model`` for the scans the CLI
cannot express.  Every oracle here rests on closed forms or published
numbers, never on nlvtest's own functions.

Importing this module loads only the standard library, so that a set-up
probe can time the import of nlvtest on its own.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import random
import statistics
from dataclasses import dataclass

WORKLOADS = ("mc-counting", "predict-scan", "model-checks")

# Op seeds are workload_seed * SEED_STRIDE + op index, so that no two
# workload seeds share an op seed within SEED_STRIDE ops.
SEED_STRIDE = 1_000_000

# mc-counting: the published counting run, 10 runs per op.  Of every 20
# ops, 4 subtract accidentals and 4 make 20 runs.  The 20-run ops are the
# slowest fifth, so the 90th percentile falls in their middle rather than
# in the tail of ops that all do the same work, where it measured how
# often the host stalled an op.
MC_N, MC_PHI_DEG, MC_RUNS, MC_LONG_RUNS = 4, 15.0, 10, 20
MC_OPS = 120
MC_REFERENCE_OPS = 8
MC_PUBLISHED_MEAN_L = 3.8955  # criterion 8: mean L within 0.01
MC_MEAN_L_TOL = 0.01
MC_STD_OVER_SIGMA_TOL = 0.10  # criterion 9: std/sigma within 10% of 1
# sha256 of the data sections (manifest lines stripped) of the first
# MC_REFERENCE_OPS ops for workload seed 0, which every mc-counting run
# replays.  It changes only when the seeded output of `simulate` changes,
# which needs a manifest version bump.
MC_REFERENCE_SHA256 = "a724d47bb9013a18d039f95c1eb85a1571ab3dd648be5c9b2ca72cb7b9e6f673"

# predict-scan: every state is a diagonal Stokes tensor (t1, t2, t3).
PREDICT_STATES = {
    "singlet": (-1.0, -1.0, -1.0),
    "werner:0.96": (-0.96, -0.96, -0.96),
    "colored:0.98": (-1.0, -0.98, -0.98),
    "visibilities:0.995,0.990,0.982": (-0.995, -0.990, -0.982),
}
PREDICT_NS = (2, 3, 4, 8, 16, 32)
PREDICT_PHIS_DEG = (10.0, 15.0, 18.0, 25.0)
# The N=8 and N=32 ops appear twice in the list, so that the median falls
# in the middle of the N=8 class and the 90th percentile well inside the
# N=32 class, not at a class boundary.
PREDICT_REPEATS = {8: 2, 32: 2}

# model-checks: 72 lemma checks, 6 Leggett checks and the 9 scans, the
# N=3 ones five times over.  Lemma checks hold the median.  The N >= 2
# scans are the slowest 18 of the 99 ops, the N=3 ones (faster than N=2)
# the lower 15 of them, so the 90th percentile falls near the middle of
# the N=3 class, whose times vary most between ops: the more of them a run
# holds, the steadier the percentile.
CHECK_TRIALS, CHECK_ENSEMBLES = 2000, 5
CHECK_COUNTS = {"lemma": 72, "leggett": 6}
SCAN_REPEATS = {3: 5}
LEMMA_PROPERTIES = (
    "lemma-lower-bound", "lemma-closed-form", "lemma-equality-case", "bound-slope",
)
LEGGETT_PROPERTIES = (
    "admissible-range-boundary", "marginal-c-independence",
    "feasibility-form-equivalence", "single-setting-model-feasible",
    "local-ensembles-respect-bound",
)
SCAN_NS = (1, 2, 3)
SCAN_PHIS_DEG = (10.0, 15.0, 20.0)
SCAN_RESOLUTION_DEG = 3.0

_MANIFEST_PREFIX = "# nlvtest-manifest "


@dataclass(frozen=True)
class Op:
    """One request.  A scan op carries its measured pairs; the others a CLI
    command line."""

    kind: str
    argv: tuple[str, ...] = ()
    n: int = 0
    phi_deg: float = 0.0
    state: str = ""
    seed: int = 0
    runs: int = 0
    pairs: tuple = ()


@dataclass(frozen=True)
class Outcome:
    """What an op returned: the CLI exit code and its output without the
    manifest lines, or 0 and the scan result.  An op that raised has code -1
    and the exception as its text."""

    code: int
    text: str


# ---------------------------------------------------------------------------
# op lists


def build(name: str, seed: int, nlv) -> tuple[list[Op], list[Op]]:
    """The warm-up ops and the op list of workload ``name``, which a run
    repeats round after round."""
    if name == "mc-counting":
        return _mc_ops(0, MC_REFERENCE_OPS), _mc_ops(seed, MC_OPS)
    if name == "predict-scan":
        ops = [
            Op(f"predict-n{n}",
               ("predict", "--state", state, "--n", str(n), "--phi", f"{phi:g}"),
               n=n, phi_deg=phi, state=state)
            for n in PREDICT_NS
            for _ in range(PREDICT_REPEATS.get(n, 1))
            for state in PREDICT_STATES for phi in PREDICT_PHIS_DEG
        ]
    elif name == "model-checks":
        ops = _scan_ops(nlv)
        for suite, count in CHECK_COUNTS.items():
            ops += [_check_op(suite, seed * SEED_STRIDE + len(ops) + j) for j in range(count)]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    ops = _spread(ops, random.Random(seed))
    first: dict[str, Op] = {}
    for op in ops:
        first.setdefault(op.kind, op)
    return list(first.values()), ops


def _spread(ops: list[Op], rng: random.Random) -> list[Op]:
    """Shuffle ``ops`` with each kind spread evenly over the list, so that a
    round cut short by the deadline still holds the kinds in proportion."""
    kinds: dict[str, list[Op]] = {}
    for op in ops:
        kinds.setdefault(op.kind, []).append(op)
    keyed = []
    for group in kinds.values():
        rng.shuffle(group)
        offset = rng.random()
        keyed += [((j + offset) / len(group), op) for j, op in enumerate(group)]
    keyed.sort(key=lambda item: item[0])
    return [op for _, op in keyed]


def _mc_ops(seed: int, count: int) -> list[Op]:
    ops = []
    for j in range(count):
        op_seed = seed * SEED_STRIDE + j
        kind, runs = "simulate", MC_RUNS
        if j % 5 == 4:
            kind, runs = "simulate-long", MC_LONG_RUNS
        elif j % 4 == 3:
            kind = "simulate-sub"
        argv = ("simulate", "--n", str(MC_N), "--phi", f"{MC_PHI_DEG:g}",
                "--runs", str(runs), "--seed", str(op_seed))
        if kind == "simulate-sub":
            argv += ("--subtract-accidentals",)
        ops.append(Op(kind, argv, n=MC_N, phi_deg=MC_PHI_DEG, seed=op_seed, runs=runs))
    return ops


def _check_op(suite: str, op_seed: int) -> Op:
    argv = ("check", suite, "--trials", str(CHECK_TRIALS), "--seed", str(op_seed))
    if suite == "leggett":
        argv += ("--ensembles", str(CHECK_ENSEMBLES))
    return Op(suite, argv, seed=op_seed)


def _scan_ops(nlv) -> list[Op]:
    """The two-plane schedule's measured pairs, (alice, bob(0)) and
    (alice, bob(phi)) for each setting, for every scanned (N, phi)."""
    ops = []
    for n in SCAN_NS:
        for phi in SCAN_PHIS_DEG:
            pairs = []
            for frame in nlv.sphere.default_frames():
                for entry in nlv.sphere.build_schedule(frame, n, math.radians(phi)).entries:
                    pairs += [(entry.alice, entry.bob0), (entry.alice, entry.bobphi)]
            ops += [Op(f"scan-n{n}", n=n, phi_deg=phi, pairs=tuple(pairs))] * SCAN_REPEATS.get(n, 1)
    return ops


# ---------------------------------------------------------------------------
# execution


def execute(op: Op, nlv) -> Outcome:
    """Run one op in-process; an exception becomes a failed outcome."""
    try:
        if op.pairs:
            r = nlv.leggett.scan_explicit_model(list(op.pairs), resolution_deg=SCAN_RESOLUTION_DEG)
            return Outcome(0, f"{r.feasible_found},{r.grid_size},{r.candidates_checked},"
                              f"{r.best_margin!r}")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = nlv.cli.main(list(op.argv))
    except Exception as exc:  # a raising op is a failed op, not a failed run
        return Outcome(-1, f"{type(exc).__name__}: {exc}")
    text = "".join(line for line in out.getvalue().splitlines(keepends=True)
                   if not line.startswith(_MANIFEST_PREFIX))
    return Outcome(code, text)


# ---------------------------------------------------------------------------
# oracles


def _u_n(n: int) -> float:
    """cot(pi/2N)/N, the discrete-averaging constant."""
    half = math.pi / (2 * n)
    return math.cos(half) / (n * math.sin(half))


def _bound(n: int, phi_deg: float) -> float:
    return 4.0 - 2.0 * _u_n(n) * abs(math.sin(math.radians(phi_deg) / 2.0))


def _scan_grid_size(resolution_deg: float) -> int:
    """Two poles plus a full ring of longitudes at every inner latitude."""
    rings = round(180.0 / resolution_deg) - 1
    return 2 + rings * round(360.0 / resolution_deg)


def judge(name: str, ops: list[Op], outcomes: list[Outcome], warmup: bool = False) -> list[str | None]:
    """Per op, why it failed its oracle, or None.

    mc-counting's warm-up ops must reproduce the recorded digest; its timed
    plain ops must also meet criteria 8 and 9 pooled over the run, and fail
    together when they do not.
    """
    reasons = [_check(op, out) for op, out in zip(ops, outcomes)]
    if name != "mc-counting":
        return reasons
    if warmup:
        digest = hashlib.sha256("".join(o.text for o in outcomes).encode()).hexdigest()
        if digest != MC_REFERENCE_SHA256:
            reasons = [r or f"reference digest {digest} != recorded" for r in reasons]
        return reasons
    plain = [i for i, op in enumerate(ops) if op.kind != "simulate-sub" and reasons[i] is None]
    rows = [row for i in plain for row in _csv(outcomes[i].text) if row["run"] != "summary"]
    pooled = _pooled_check([float(r["l_exp"]) for r in rows], [float(r["sigma"]) for r in rows])
    if pooled:
        for i in plain:
            reasons[i] = pooled
    return reasons


def _pooled_check(l_values: list[float], sigmas: list[float]) -> str | None:
    if len(l_values) < 2:
        return None
    mean_l = statistics.fmean(l_values)
    ratio = statistics.stdev(l_values) / statistics.fmean(sigmas)
    if abs(mean_l - MC_PUBLISHED_MEAN_L) > MC_MEAN_L_TOL or abs(ratio - 1.0) > MC_STD_OVER_SIGMA_TOL:
        return f"pooled mean L {mean_l:.4f}, std/sigma {ratio:.3f} over {len(l_values)} runs"
    return None


def _csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _check(op: Op, out: Outcome) -> str | None:
    if out.code != 0:
        return f"exit {out.code}: {out.text.strip()[:200]}"
    try:
        if op.pairs:
            return _check_scan(op, out.text)
        if op.kind.startswith("simulate"):
            return _check_simulate(op, _csv(out.text))
        if op.kind.startswith("predict"):
            return _check_predict(op, _csv(out.text))
        return _check_properties(op, out.text.splitlines())
    except (KeyError, ValueError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def _close(got: str, want: float, tol: float) -> bool:
    return abs(float(got) - want) <= tol + 1e-9


def _check_simulate(op: Op, rows: list[dict[str, str]]) -> str | None:
    runs = rows[:-1]
    if len(runs) != op.runs or rows[-1]["run"] != "summary":
        return f"expected {op.runs} run rows and a summary, got {len(rows)} rows"
    want_bound = _bound(op.n, op.phi_deg)
    for idx, row in enumerate(runs):
        if row["status"] != "ok":
            return f"run {idx} status {row['status']!r}"
        if row["seed"] != f"{op.seed}-{idx}" or not _close(row["bound"], want_bound, 5e-5):
            return f"run {idx} seed {row['seed']} bound {row['bound']}"
        if not (float(row["sigma"]) > 0.0 and 0.0 <= float(row["l_exp"]) <= 4.0):
            return f"run {idx} l_exp {row['l_exp']} sigma {row['sigma']}"
    return None


def _check_predict(op: Op, rows: list[dict[str, str]]) -> str | None:
    if len(rows) != 1:
        return f"expected one row, got {len(rows)}"
    row = rows[0]
    t1, t2, t3 = PREDICT_STATES[op.state]
    k = abs(t1 + t2) + abs(t1 + t3)
    phi = math.radians(op.phi_deg)
    expected = {
        "l_value": (k / 2.0 * (1.0 + math.cos(phi)), 5e-5),
        "bound": (_bound(op.n, op.phi_deg), 5e-5),
        "best_phi_deg": (math.degrees(2.0 * math.asin(_u_n(op.n) / k)), 0.02),
    }
    for column, (want, tol) in expected.items():
        if not _close(row[column], want, tol):
            return f"{column} = {row[column]}, oracle {want:.6f}"
    return None


def _check_properties(op: Op, lines: list[str]) -> str | None:
    names = LEMMA_PROPERTIES if op.kind == "lemma" else LEGGETT_PROPERTIES
    passed = [line.split(":")[0].removeprefix("PASS ") for line in lines[:-1]
              if line.startswith("PASS ")]
    if sorted(passed) != sorted(names) or len(lines) != len(names) + 1:
        return f"properties not all PASS: {lines}"
    if lines[-1] != f"{len(names)}/{len(names)} properties passed":
        return f"summary line {lines[-1]!r}"
    return None


def _check_scan(op: Op, text: str) -> str | None:
    feasible, grid_size, _, _ = text.split(",")
    if feasible != str(op.n == 1):
        return f"N={op.n} phi={op.phi_deg:g}: feasible={feasible}"
    if int(grid_size) != _scan_grid_size(SCAN_RESOLUTION_DEG):
        return f"grid size {grid_size}"
    return None
