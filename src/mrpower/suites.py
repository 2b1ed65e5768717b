"""Randomized verification suites and their structured reports.

Every suite runs `trials` independent trials at the dimension it is given,
each seeded through splitmix64 from the master seed. A trial returns named
checks as signed margins, nonnegative when a check holds (an inequality's
slack, or -|residual| for an equality); `run_suite` folds them into one
violation per trial. Trials are order-independent, so reports are
reproducible for a fixed seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .channels import (
    Povm,
    adjoint_channel,
    basis_measurement,
    classical_postprocess,
    images,
    is_dio,
    mix_povm,
    pullback_povm,
    pulled_back_basis,
    tensor_povm,
)
from .measures import (
    coherences_of_states,
    decompose_incoherent,
    is_incoherent_measurement,
    measurement_coherence,
    measurement_relative_entropies,
)
from .powers import (
    CONVERSION_GAP_TOL,
    composite_ent_lower_bound,
    conversion_ent_lower_bound,
    measurement_as_square_channel,
    measurement_cohering_power,
    state_cohering_power,
)
from .sampling import (
    SeededRng,
    _haar_unitary_channel,
    random_channel,
    random_dio,
    random_povm,
    random_stochastic_matrix,
)

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
        return asdict(self)


def _violation(margins: dict[str, float]) -> float:
    """A trial's value, max(0, -smallest margin). A NaN margin counts as
    -inf, so the value is +inf: `min` would pass a NaN that is not first."""
    return max(0.0, -min(-math.inf if math.isnan(m) else float(m) for m in margins.values()))


def _trial_dm_properties(dim: int, rng: SeededRng, tol: float):
    """Six identities of the averaged relative entropy between measurements:
    nonnegativity/faithfulness, unital data processing, unitary invariance,
    post-processing monotonicity, tensor additivity, joint convexity."""
    n = 2 + int(rng.gen.integers(0, 2))
    m = random_povm(dim, n, False, rng)
    k = random_povm(dim, n, False, rng)
    second_m = random_povm(dim, n, False, rng)
    second_k = random_povm(dim, n, False, rng)

    unital = random_channel(dim, int(rng.gen.integers(1, dim * dim + 1)), "unital", rng)
    rotation = _haar_unitary_channel(dim, rng)
    post = random_stochastic_matrix(int(rng.gen.integers(2, n + 2)), n, rng)
    p = float(rng.gen.uniform())
    base, second, self_divergence, processed, rotated, merged, mixed = (
        measurement_relative_entropies([
            (m, k),
            (second_m, second_k),
            (m, m),
            (pullback_povm(unital, m), pullback_povm(unital, k)),
            (pullback_povm(rotation, m), pullback_povm(rotation, k)),
            (classical_postprocess(m, post), classical_postprocess(k, post)),
            (mix_povm(m, second_m, p), mix_povm(k, second_k, p)),
        ])
    )
    [product] = measurement_relative_entropies(
        [(tensor_povm(m, second_m), tensor_povm(k, second_k))]
    )
    detail = None
    if base <= tol and np.abs(m.stack - k.stack).max() > 1e-4:
        detail = "faithfulness: vanishing divergence between distinct POVMs"
    return {
        "nonnegativity": base,
        "self_divergence": -abs(self_divergence),
        "data_processing": base - processed,
        "unitary_invariance": -abs(rotated - base),
        "postprocessing": base - merged,
        "tensor_additivity": -abs(product - base - second),
        "joint_convexity": p * base + (1.0 - p) * second - mixed,
    }, detail


def _trial_cm_faithfulness(dim: int, rng: SeededRng, tol: float):
    """Measurement-coherence vanishes exactly on incoherent measurements."""
    n = 2 + int(rng.gen.integers(0, 3))
    incoherent = random_povm(dim, n, True, rng)
    coherent = random_povm(dim, n, False, rng)
    coherent_value = measurement_coherence(coherent)
    detail = None
    if not is_incoherent_measurement(incoherent):
        detail = "constructed incoherent POVM failed the diagonal predicate"
    elif coherent_value <= tol and not is_incoherent_measurement(coherent):
        detail = "zero coherence reported for a POVM with off-diagonal entries"
    return {
        "incoherent_vanishes": -abs(measurement_coherence(incoherent)),
        "nonnegativity": coherent_value,
    }, detail


def _trial_cm_oracle(dim: int, rng: SeededRng, tol: float):
    """Closed form against the definition C_m(M) = min over incoherent N of
    D(M || N): the dephased measurement Delta(M) attains it, and neither a
    random incoherent N nor the near-minimizer eps N + (1 - eps) Delta(M)
    lies below it."""
    n = int(rng.gen.integers(2, dim + 2))
    m = random_povm(dim, n, False, rng)
    closed = measurement_coherence(m)
    dephased = Povm._from_valid(m.stack * np.eye(dim))  # each element's diagonal
    incoherent = random_povm(dim, n, True, rng)
    near = mix_povm(incoherent, dephased, 1e-6 * float(rng.gen.uniform()))
    attained, random_value, near_value = measurement_relative_entropies(
        [(m, dephased), (m, incoherent), (m, near)]
    )
    return {
        "attainment": -abs(attained - closed),
        "random_incoherent": random_value - closed,
        "near_minimizer": near_value - closed,
    }, None


def _trial_structure_lemma(dim: int, rng: SeededRng, tol: float):
    """Incoherent POVMs decompose into basis measurement + stochastic matrix
    and reconstruct exactly. The suite dim bounds the sampled dimension."""
    d = int(rng.gen.integers(2, dim + 1)) if dim > 2 else 2
    n = int(rng.gen.integers(2, 7))
    povm = random_povm(d, n, True, rng)
    decomposition = decompose_incoherent(povm)
    column_dev = float(np.abs(decomposition.post.entries.sum(axis=0) - 1.0).max())
    return {"reconstruction": -decomposition.residual, "column_sums": -column_dev}, None


def _trial_power_monotone(dim: int, rng: SeededRng, tol: float):
    """Nonnegativity, faithfulness against the class predicate, and
    monotonicity under detection-incoherent sandwiching."""
    channel = random_channel(dim, int(rng.gen.integers(1, dim * dim + 1)), "general", rng)
    power = measurement_cohering_power(channel)
    k = random_dio(dim, False, rng)
    l = random_dio(dim, True, rng)
    # C(K . E . L): the basis measurement pulled back through K, then E, then L
    sandwiched = measurement_coherence(
        pullback_povm(l, pullback_povm(channel, pulled_back_basis(k)))
    )
    free = random_dio(dim, bool(rng.gen.integers(0, 2)), rng)
    detail = None
    dio = is_dio(channel)
    if dio and power > tol:
        detail = f"detection-incoherent channel with power {power:.3e}"
    elif not dio and power <= tol:
        detail = "vanishing power for a channel outside the free class"
    return {
        "nonnegativity": power,
        "sandwich": power - sandwiched,
        "free_vanishes": -abs(measurement_cohering_power(free)),
    }, detail


def _trial_power_convexity(dim: int, rng: SeededRng, tol: float):
    first = random_channel(dim, int(rng.gen.integers(1, dim * dim + 1)), "general", rng)
    second = random_channel(dim, int(rng.gen.integers(1, dim * dim + 1)), "general", rng)
    p = float(rng.gen.uniform())
    # pulling back through the mixture mixes the pulled-back bases
    pa, pb = pulled_back_basis(first), pulled_back_basis(second)
    mixed = measurement_coherence(mix_povm(pa, pb, p))
    bound = p * measurement_coherence(pa) + (1.0 - p) * measurement_coherence(pb)
    return {"convexity": bound - mixed}, None


def _trial_conversion_equality(dim: int, rng: SeededRng, tol: float):
    """Certificate gap for one Haar unitary and one non-unitary channel."""
    unitary = conversion_ent_lower_bound(_haar_unitary_channel(dim, rng)).gap
    rank = int(rng.gen.integers(2, dim * dim + 1))
    general = conversion_ent_lower_bound(random_channel(dim, rank, "general", rng)).gap
    return {"unitary_gap": -unitary, "general_gap": -general}, None


def _trial_thm3_proxy(dim: int, rng: SeededRng, tol: float):
    """Averaged entanglement lower bound of a sandwiched composite never
    exceeds the cohering power of the core channel."""
    channel = random_channel(dim, int(rng.gen.integers(1, dim * dim + 1)), "general", rng)
    k = random_dio(dim * dim, bool(rng.gen.integers(0, 2)), rng)
    l = random_dio(dim * dim, True, rng)
    proxy = composite_ent_lower_bound(channel, k, l)
    return {"proxy_bound": measurement_cohering_power(channel) - proxy}, None


def _trial_duality(dim: int, rng: SeededRng, tol: float):
    """Sandwich between state-cohering power and the adjoint's
    measurement-cohering power, the exact averaged-coherence identity, and
    the state-cohering power as the largest basis-state coherence."""
    channel = random_channel(dim, int(rng.gen.integers(1, dim * dim + 1)), "unital", rng)
    c_adj = measurement_cohering_power(adjoint_channel(channel))
    c_g = state_cohering_power(channel)
    # coherence of E(|i><i|) for each i, summed in index order
    coherences = coherences_of_states(images(channel, basis_measurement(dim).stack))
    identity_residual = abs(c_adj - sum(coherences.tolist()) / dim)
    detail = None
    if identity_residual > DUALITY_IDENTITY_TOL:
        detail = f"adjoint power deviates from averaged coherence by {identity_residual:.3e}"
    return {
        "lower": c_adj - c_g / dim,
        "upper": c_g - c_adj,
        "averaged_identity": -identity_residual,
        "state_power_attained": -abs(c_g - coherences.max()),
    }, detail


def _trial_thm7_reduction(dim: int, rng: SeededRng, tol: float):
    """Power of a measurement embedded as a square channel equals the
    measurement-coherence of the underlying POVM."""
    n = int(rng.gen.integers(2, dim + 1)) if dim > 2 else 2
    incoherent = bool(rng.gen.integers(0, 4) == 0)
    povm = random_povm(dim, n, incoherent, rng)
    power = measurement_cohering_power(measurement_as_square_channel(povm))
    return {"reduction": -abs(power - measurement_coherence(povm))}, None


# name -> (trial function, default tolerance, seed-stream id)
SUITES = {
    "dm_properties": (_trial_dm_properties, 1e-8, 1),
    "cm_faithfulness": (_trial_cm_faithfulness, 1e-8, 2),
    "cm_oracle": (_trial_cm_oracle, 1e-8, 3),
    "structure_lemma": (_trial_structure_lemma, 1e-10, 4),
    "power_monotone": (_trial_power_monotone, 1e-8, 5),
    "power_convexity": (_trial_power_convexity, 1e-8, 6),
    "conversion_equality": (_trial_conversion_equality, CONVERSION_GAP_TOL, 7),
    "thm3_proxy": (_trial_thm3_proxy, 1e-8, 8),
    "duality": (_trial_duality, 1e-8, 9),
    "thm7_reduction": (_trial_thm7_reduction, 1e-9, 10),
}

SUITE_NAMES = tuple(SUITES)

# suites whose trials work on dimension d^2 (conversion channels, composites)
SQUARED_DIMENSION_SUITES = frozenset({"conversion_equality", "thm3_proxy"})


def plan(suite: str, dim: int) -> list[tuple[str, int]]:
    """The (suite, dimension) runs of `verify --suite <suite> --dim <dim>`."""
    return [(name, dim) for name in (SUITE_NAMES if suite == "all" else (suite,))]


def check_run(name: str, dim: int, trials: int, seed: int, tol: float | None) -> float:
    """Check the arguments of one suite run and return its tolerance (`tol`,
    or the suite's default for None); a broken rule raises ValueError."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if not 0 <= seed < 1 << 64:  # SeededRng would alias it to seed mod 2**64
        raise ValueError(f"seed must lie in 0..2**64-1, got {seed}")
    tolerance = SUITES[name][1] if tol is None else float(tol)
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    return tolerance


def run_suite(name: str, dim: int = 2, trials: int = 100, seed: int = 42,
              tol: float | None = None) -> VerificationReport:
    """Run one named suite, with arguments that pass `check_run`, and
    assemble its report."""
    tolerance = check_run(name, dim, trials, seed, tol)
    trial_fn, _, stream = SUITES[name]
    suite_rng = SeededRng(seed).spawn(stream)

    def one(index: int):
        try:
            margins, detail = trial_fn(dim, suite_rng.spawn(index), tolerance)
            return _violation(margins), detail
        except Exception as exc:  # a crashed trial is a failed trial
            return math.inf, f"{type(exc).__name__}: {exc}"

    start = time.perf_counter()
    outcomes = [one(i) for i in range(trials)]
    elapsed_ms = int(round((time.perf_counter() - start) * 1000.0))

    values = [v for v, _ in outcomes]
    failures = [
        {"trial": i, "detail": detail}
        for i, (_, detail) in enumerate(outcomes)
        if detail is not None
    ]
    max_violation = max(values)
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
