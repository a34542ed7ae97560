"""Acceptance suite: the package's exit criteria at their stated tolerances.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output on failure) and asserts the criterion.
"""

import math

import numpy as np
from helpers import random_frames

from nlvtest import _checks
from nlvtest.cli import main as cli_main
from nlvtest.inequality import l_n, nlv_bound, optimal_phi
from nlvtest.leggett import explicit_model_margin, product_ensemble, scan_explicit_model
from nlvtest.quantum import singlet, singlet_L
from nlvtest.simulate import ExperimentConfig, replicate
from nlvtest.sphere import UnitVector, default_frames, schedule_rows


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


TABLE_ROWS = [
    (2, 12.5, "3.8911"),
    (2, 15.0, "3.8695"),
    (2, 17.5, "3.8479"),
    (3, 12.5, "3.8743"),
    (3, 15.0, "3.8493"),
    (3, 17.5, "3.8243"),
    (3, 20.0, "3.7995"),
    (4, 12.5, "3.8686"),
    (4, 15.0, "3.8424"),
    (4, 17.5, "3.8164"),
]


def test_01_bound_reproduction():
    mismatches = [
        (n, deg, f"{nlv_bound(n, math.radians(deg)):.4f}", expected)
        for n, deg, expected in TABLE_ROWS
        if f"{nlv_bound(n, math.radians(deg)):.4f}" != expected
    ]
    report(
        "criterion-1 bound-reproduction",
        not mismatches,
        f"all {len(TABLE_ROWS)} published bounds match to 4 decimals"
        if not mismatches
        else f"mismatches: {mismatches}",
    )


def test_02_singlet_prediction():
    rng = np.random.default_rng(2026)
    state = singlet()
    worst = 0.0
    phis = np.linspace(0.0, math.pi, 50)
    for _ in range(20):
        frames = random_frames(rng)
        for n in range(1, 7):
            for phi in phis:
                got = l_n(state, frames, n, float(phi)).l_value
                worst = max(worst, abs(got - singlet_L(float(phi))))
    report(
        "criterion-2 singlet-prediction",
        worst <= 1e-12,
        f"max |L_N - 2(1+cos phi)| = {worst:.3e} over 20 frames, N in 1..6, 50 angles",
    )


def test_03_optimal_angles():
    two = math.degrees(optimal_phi(2))
    cont = math.degrees(optimal_phi(math.inf))
    ok = abs(two - 14.36) <= 0.05 and abs(cont - 18.31) <= 0.05
    report(
        "criterion-3 optimal-angles",
        ok,
        f"two-setting optimum {two:.4f} deg, continuum optimum {cont:.4f} deg",
    )


def test_04_lemma_property_suite():
    results = _checks.lemma_suite(trials=100_000, seed=4)
    named = {r.name: r for r in results}
    ok = named["lemma-lower-bound"].passed and named["lemma-closed-form"].passed
    report(
        "criterion-4 lemma-suite",
        ok,
        "; ".join(f"{r.name}: {r.detail}" for r in results),
    )


def test_05_leggett_consistency_suite():
    results = _checks.leggett_suite(trials=100_000, seed=5, ensembles=5)
    named = {r.name: r for r in results}
    ok = (
        named["admissible-range-boundary"].passed
        and named["marginal-c-independence"].passed
    )
    report(
        "criterion-5 leggett-consistency",
        ok,
        f"{named['admissible-range-boundary'].detail}; "
        f"{named['marginal-c-independence'].detail}",
    )


def test_06_local_mixtures_never_violate():
    rng = np.random.default_rng(6)
    frames = default_frames()
    phis = np.linspace(0.0, math.pi / 2, 25)
    worst = -math.inf

    def rand_unit():
        while True:
            vec = rng.normal(size=3)
            norm = np.linalg.norm(vec)
            if norm > 1e-6:
                return UnitVector(*(vec / norm))

    for _ in range(1000):
        k = int(rng.integers(1, 5))
        weights = rng.dirichlet(np.ones(k))
        ens = product_ensemble([(float(w), rand_unit(), rand_unit()) for w in weights])
        for n in range(1, 6):
            for rep in l_n(ens, frames, n, phis):
                worst = max(worst, rep.l_value - rep.bound)
    report(
        "criterion-6 local-mixtures",
        worst <= 1e-12,
        f"max (L - bound) = {worst:.3e} over 1000 ensembles, N in 1..5, 25 angles",
    )


def test_07_explicit_model_feasibility():
    frames = default_frames()
    u = np.array([1.0, 0.0, 0.0])  # orthogonal to both in-plane perps
    n1_ok = True
    for deg in np.linspace(0.0, 179.0, 50):
        pairs = np.stack(schedule_rows(frames, 1, math.radians(float(deg))), axis=1)
        if not explicit_model_margin(u, -u, pairs) >= -1e-12:
            n1_ok = False
            break
    pairs2 = np.stack(schedule_rows(frames, 2, math.radians(15.0)), axis=1)
    scan = scan_explicit_model(pairs2, resolution_deg=1.0)
    ok = n1_ok and not scan.feasible_found
    report(
        "criterion-7 explicit-model-feasibility",
        ok,
        f"single-setting construction feasible on 50 angles: {n1_ok}; "
        f"two-setting scan over {scan.grid_size}^2 grid pairs found nothing "
        f"(best margin {scan.best_margin:.3e})",
    )


def test_08_statistical_reproduction():
    config = ExperimentConfig(
        state="bell_diagonal:-0.995,-0.990,-0.982",
        pair_rate=1860.0,
        accidental_rate=0.41,
        integration_time=4.0,
        rng_seed=8,
    )
    summary = replicate(config, 4, math.radians(15.0), 200)
    sigmas = [r.sigma for r in summary.reports]
    mean_ok = abs(summary.mean_l - 3.8955) <= 0.01
    sigma_ok = min(sigmas) >= 0.002 and max(sigmas) <= 0.004
    violation_ok = summary.mean_violation > 10.0
    report(
        "criterion-8 statistical-reproduction",
        mean_ok and sigma_ok and violation_ok,
        f"mean L = {summary.mean_l:.4f} (target 3.8955 +- 0.01), "
        f"sigma range [{min(sigmas):.4f}, {max(sigmas):.4f}] in [0.002, 0.004], "
        f"mean violation {summary.mean_violation:.2f} sigma > 10",
    )


def test_09_error_propagation_validity():
    summary = replicate(ExperimentConfig(rng_seed=9), 2, math.radians(15.0), 1000)
    ratio = summary.std_over_sigma
    report(
        "criterion-9 error-propagation",
        abs(ratio - 1.0) <= 0.10,
        f"empirical std / mean propagated sigma = {ratio:.3f} over 1000 runs",
    )


def test_10_cli_determinism(tmp_path):
    outputs = []
    for name in ("first.csv", "second.csv"):
        path = tmp_path / name
        code = cli_main([
            "simulate", "--n", "3", "--phi", "15", "--runs", "3",
            "--seed", "1234", "--output", str(path),
        ])
        assert code == 0
        lines = path.read_text().splitlines()
        outputs.append("\n".join(l for l in lines if not l.startswith("#")))
    report(
        "criterion-10 cli-determinism",
        outputs[0] == outputs[1] and len(outputs[0]) > 0,
        "byte-identical data sections across repeated seeded invocations",
    )
