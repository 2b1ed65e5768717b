"""Randomized verification suites and their structured reports.

Every suite runs `trials` independent trials, each seeded through
splitmix64 from the master seed, and records a nonnegative violation per
trial (inequality slack, or absolute residual for equalities). Trials are
scheduling-independent, so reports are reproducible for a fixed seed no
matter the parallelism degree (MRPOWER_THREADS, 0 = auto).
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .channels import (
    classical_postprocess,
    classify_channel,
    compose,
    mix_channels,
    mix_povm,
    pullback_povm,
    tensor_povm,
    unitary_channel,
)
from .errors import UnsupportedScale
from .measures import (
    decompose_incoherent,
    is_incoherent_measurement,
    measurement_coherence,
    measurement_coherence_bruteforce,
    measurement_relative_entropy,
    relative_entropy_of_coherence,
)
from .operators import basis_projector
from .powers import (
    composite_ent_lower_bound,
    conversion_ent_lower_bound,
    duality_check,
    measurement_as_square_channel,
    measurement_cohering_power,
)
from .sampling import (
    SeededRng,
    haar_unitary,
    random_channel,
    random_dio,
    random_povm,
    random_stochastic_matrix,
)

ORACLE_GRID_STEPS = 1000
DUALITY_IDENTITY_TOL = 1e-10


@dataclass
class VerificationReport:
    """Outcome of one randomized suite run."""

    suite: str
    dim: int
    trials: int
    master_seed: int
    tolerance: float
    max_violation: float
    trial_values: list[float] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    passed: bool = False
    wall_time_ms: int = 0

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "dim": self.dim,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "tolerance": self.tolerance,
            "max_violation": self.max_violation,
            "trial_values": self.trial_values,
            "failures": self.failures,
            "passed": self.passed,
            "wall_time_ms": self.wall_time_ms,
        }


def thread_count() -> int:
    raw = os.environ.get("MRPOWER_THREADS")
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"MRPOWER_THREADS must be an integer, got {raw!r}") from None
    if value == 0:
        return os.cpu_count() or 1
    return max(1, value)


def _map_trials(fn, trials: int) -> list:
    workers = thread_count()
    if workers <= 1:
        return [fn(i) for i in range(trials)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(trials)))


def _worst(*violations: float) -> float:
    """Largest violation, reading NaN as +inf: `max` would let a NaN pass
    whenever it is not the first argument."""
    return max(math.inf if math.isnan(v) else float(v) for v in violations)


def _povm_distance(a, b) -> float:
    return float(np.max(np.abs(a.stack - b.stack)))


def _trial_dm_properties(dim: int, rng: SeededRng, tol: float):
    """Six identities of the averaged relative entropy between measurements:
    nonnegativity/faithfulness, unital data processing, unitary invariance,
    post-processing monotonicity, tensor additivity, joint convexity."""
    n = 2 + int(rng.gen.integers(0, 2))
    m = random_povm(dim, n, False, rng)
    k = random_povm(dim, n, False, rng)
    second_m = random_povm(dim, n, False, rng)
    second_k = random_povm(dim, n, False, rng)

    base = measurement_relative_entropy(m, k)
    second = measurement_relative_entropy(second_m, second_k)
    violation = _worst(0.0, -base)
    violation = _worst(violation, abs(measurement_relative_entropy(m, m)))
    detail = None
    if base <= tol and _povm_distance(m, k) > 1e-4:
        detail = "faithfulness: vanishing divergence between distinct POVMs"

    unital = random_channel(dim, int(rng.gen.integers(1, dim * dim + 1)), "unital", rng)
    processed = measurement_relative_entropy(
        pullback_povm(unital, m), pullback_povm(unital, k)
    )
    violation = _worst(violation, processed - base)

    rotation = unitary_channel(haar_unitary(dim, rng))
    rotated = measurement_relative_entropy(
        pullback_povm(rotation, m), pullback_povm(rotation, k)
    )
    violation = _worst(violation, abs(rotated - base))

    post = random_stochastic_matrix(int(rng.gen.integers(2, n + 2)), n, rng)
    merged = measurement_relative_entropy(
        classical_postprocess(m, post), classical_postprocess(k, post)
    )
    violation = _worst(violation, merged - base)

    product = measurement_relative_entropy(
        tensor_povm(m, second_m), tensor_povm(k, second_k)
    )
    violation = _worst(violation, abs(product - base - second))

    p = float(rng.gen.uniform())
    mixed = measurement_relative_entropy(
        mix_povm(m, second_m, p), mix_povm(k, second_k, p)
    )
    violation = _worst(violation, mixed - (p * base + (1.0 - p) * second))
    return violation, detail


def _trial_cm_faithfulness(dim: int, rng: SeededRng, tol: float):
    """Measurement-coherence vanishes exactly on incoherent measurements."""
    n = 2 + int(rng.gen.integers(0, 3))
    incoherent = random_povm(dim, n, True, rng)
    coherent = random_povm(dim, n, False, rng)
    violation = abs(measurement_coherence(incoherent))
    coherent_value = measurement_coherence(coherent)
    violation = _worst(violation, -coherent_value)
    detail = None
    if not is_incoherent_measurement(incoherent, 1e-8):
        detail = "constructed incoherent POVM failed the diagonal predicate"
    elif coherent_value <= tol and not is_incoherent_measurement(coherent, 1e-8):
        detail = "zero coherence reported for a POVM with off-diagonal entries"
    return violation, detail


def _trial_cm_oracle(dim: int, rng: SeededRng, tol: float):
    """Closed form against the exhaustive stochastic-matrix grid at (2, 2)."""
    povm = random_povm(2, 2, False, rng)
    closed = measurement_coherence(povm)
    gridded = measurement_coherence_bruteforce(povm, ORACLE_GRID_STEPS)
    return abs(closed - gridded), None


def _trial_structure_lemma(dim: int, rng: SeededRng, tol: float):
    """Incoherent POVMs decompose into basis measurement + stochastic matrix
    and reconstruct exactly. The suite dim bounds the sampled dimension."""
    d = int(rng.gen.integers(2, dim + 1)) if dim > 2 else 2
    n = int(rng.gen.integers(2, 7))
    povm = random_povm(d, n, True, rng)
    decomposition = decompose_incoherent(povm)
    column_dev = float(np.max(np.abs(decomposition.post.entries.sum(axis=0) - 1.0)))
    return _worst(decomposition.residual, column_dev), None


def _trial_power_monotone(dim: int, rng: SeededRng, tol: float):
    """Nonnegativity, faithfulness against the class predicate, and
    monotonicity under detection-incoherent sandwiching."""
    channel = random_channel(dim, int(rng.gen.integers(1, dim * dim + 1)), "general", rng)
    power = measurement_cohering_power(channel)
    violation = _worst(0.0, -power)

    k = random_dio(dim, False, rng)
    l = random_dio(dim, True, rng)
    sandwiched = measurement_cohering_power(compose(k, compose(channel, l)))
    violation = _worst(violation, sandwiched - power)

    free = random_dio(dim, bool(rng.gen.integers(0, 2)), rng)
    violation = _worst(violation, abs(measurement_cohering_power(free)))

    detail = None
    flags = classify_channel(channel)
    if flags.dio and power > tol:
        detail = f"detection-incoherent channel with power {power:.3e}"
    elif not flags.dio and power <= tol:
        detail = "vanishing power for a channel outside the free class"
    return violation, detail


def _trial_power_convexity(dim: int, rng: SeededRng, tol: float):
    first = random_channel(dim, int(rng.gen.integers(1, dim * dim + 1)), "general", rng)
    second = random_channel(dim, int(rng.gen.integers(1, dim * dim + 1)), "general", rng)
    p = float(rng.gen.uniform())
    mixed = measurement_cohering_power(mix_channels(first, second, p))
    bound = p * measurement_cohering_power(first) + (1.0 - p) * measurement_cohering_power(second)
    return _worst(0.0, mixed - bound), None


def _trial_conversion_equality(dim: int, rng: SeededRng, tol: float):
    """Certificate gap for one Haar unitary and one non-unitary channel."""
    unitary = unitary_channel(haar_unitary(dim, rng))
    gap = conversion_ent_lower_bound(unitary).gap
    rank = int(rng.gen.integers(2, dim * dim + 1))
    general = random_channel(dim, rank, "general", rng)
    return _worst(gap, conversion_ent_lower_bound(general).gap), None


def _trial_thm3_proxy(dim: int, rng: SeededRng, tol: float):
    """Averaged entanglement lower bound of a sandwiched composite never
    exceeds the cohering power of the core channel."""
    channel = random_channel(dim, int(rng.gen.integers(1, dim * dim + 1)), "general", rng)
    k = random_dio(dim * dim, bool(rng.gen.integers(0, 2)), rng)
    l = random_dio(dim * dim, True, rng)
    proxy = composite_ent_lower_bound(channel, k, l)
    return _worst(0.0, proxy - measurement_cohering_power(channel)), None


def _trial_duality(dim: int, rng: SeededRng, tol: float):
    """Sandwich between state-cohering power and the adjoint's
    measurement-cohering power, plus the exact averaged-coherence identity."""
    channel = random_channel(dim, int(rng.gen.integers(1, dim * dim + 1)), "unital", rng)
    result = duality_check(channel)
    violation = _worst(0.0, result.c_g / dim - result.c_adj, result.c_adj - result.c_g)
    average = sum(
        relative_entropy_of_coherence(channel.apply(basis_projector(i, dim)))
        for i in range(dim)
    ) / dim
    identity_residual = abs(result.c_adj - average)
    violation = _worst(violation, identity_residual)
    detail = None
    if identity_residual > DUALITY_IDENTITY_TOL:
        detail = f"adjoint power deviates from averaged coherence by {identity_residual:.3e}"
    return violation, detail


def _trial_thm7_reduction(dim: int, rng: SeededRng, tol: float):
    """Power of a measurement embedded as a square channel equals the
    measurement-coherence of the underlying POVM."""
    n = int(rng.gen.integers(2, dim + 1)) if dim > 2 else 2
    incoherent = bool(rng.gen.integers(0, 4) == 0)
    povm = random_povm(dim, n, incoherent, rng)
    power = measurement_cohering_power(measurement_as_square_channel(povm))
    return abs(power - measurement_coherence(povm)), None


# name -> (trial function, default tolerance, seed-stream id)
SUITES = {
    "dm_properties": (_trial_dm_properties, 1e-8, 1),
    "cm_faithfulness": (_trial_cm_faithfulness, 1e-8, 2),
    "cm_oracle": (_trial_cm_oracle, 5e-3, 3),
    "structure_lemma": (_trial_structure_lemma, 1e-10, 4),
    "power_monotone": (_trial_power_monotone, 1e-8, 5),
    "power_convexity": (_trial_power_convexity, 1e-8, 6),
    "conversion_equality": (_trial_conversion_equality, 1e-9, 7),
    "thm3_proxy": (_trial_thm3_proxy, 1e-8, 8),
    "duality": (_trial_duality, 1e-8, 9),
    "thm7_reduction": (_trial_thm7_reduction, 1e-9, 10),
}

SUITE_NAMES = tuple(SUITES)


def run_suite(
    name: str,
    dim: int = 2,
    trials: int = 100,
    seed: int = 42,
    tol: float | None = None,
) -> VerificationReport:
    """Run one named suite and assemble its report.

    `tol` of None selects the suite's default tolerance. The oracle suite is
    defined at dimension 2 only.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if name == "cm_oracle" and dim != 2:
        raise UnsupportedScale("cm_oracle is defined at dimension 2 only")
    trial_fn, default_tol, stream = SUITES[name]
    tolerance = default_tol if tol is None else float(tol)

    suite_rng = SeededRng(seed).spawn(stream)

    def one(index: int):
        trial_rng = suite_rng.spawn(index)
        try:
            return trial_fn(dim, trial_rng, tolerance)
        except Exception as exc:  # a crashed trial is a failed trial
            return math.inf, f"{type(exc).__name__}: {exc}"

    start = time.perf_counter()
    outcomes = _map_trials(one, trials)
    elapsed_ms = int(round((time.perf_counter() - start) * 1000.0))

    values = [_worst(v) for v, _ in outcomes]  # NaN read as +inf
    failures = [
        {"trial": i, "detail": detail}
        for i, (_, detail) in enumerate(outcomes)
        if detail is not None
    ]
    max_violation = _worst(*values)
    return VerificationReport(
        suite=name,
        dim=dim,
        trials=trials,
        master_seed=seed,
        tolerance=tolerance,
        max_violation=max_violation,
        trial_values=values,
        failures=failures,
        passed=(max_violation <= tolerance and not failures),
        wall_time_ms=elapsed_ms,
    )
