"""Randomized verification suites and their structured reports.

Every suite runs `trials` independent trials at the dimension it is given,
each seeded through splitmix64 from the master seed. A suite draws each
trial's operands from the trial's own stream and evaluates the operands of
a block of trials together, one batched call per quantity. A trial's
outcome is named checks as signed margins, nonnegative when a check holds
(an inequality's slack, or -|residual| for an equality); `run_suite` folds
them into one violation per trial. Trials are order-independent and their
values do not depend on the blocks, so reports are reproducible for a fixed
seed.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .channels import (
    Povm,
    QuantumChannel,
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
    measurement_coherences,
    measurement_relative_entropies,
)
from .powers import (
    CONVERSION_GAP_TOL,
    composite_elements,
    composite_ent_lower_bounds,
    conversion_ent_lower_bounds,
    conversion_operands,
    measurement_as_square_channel,
    measurement_cohering_powers,
    state_cohering_powers,
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

# A block of trials closes once its operands hold this many bytes. Each
# measure runs one batched eigen-solve per block, and at d = 2 and 3, where
# a solve's arithmetic costs less than its call, a block takes 20 trials of
# every suite. At d = 6 the operands of one trial reach 0.3-1.5 MB (the
# d^6-entry stacks of the suites on dimension d^2), so blocks of one or two
# trials keep a block's arrays, and the temporaries of its evaluation, from
# raising the peak memory that one trial sets there.
BLOCK_BYTES = 1 << 19


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


def _draw_dm_properties(dim: int, rng: SeededRng):
    n = 2 + int(rng.gen.integers(0, 2))
    m = random_povm(dim, n, False, rng)
    k = random_povm(dim, n, False, rng)
    second_m = random_povm(dim, n, False, rng)
    second_k = random_povm(dim, n, False, rng)

    unital = random_channel(dim, int(rng.gen.integers(1, dim * dim + 1)), "unital", rng)
    rotation = _haar_unitary_channel(dim, rng)
    post = random_stochastic_matrix(int(rng.gen.integers(2, n + 2)), n, rng)
    p = float(rng.gen.uniform())
    pairs = [
        (m, k),
        (second_m, second_k),
        (m, m),
        (pullback_povm(unital, m), pullback_povm(unital, k)),
        (pullback_povm(rotation, m), pullback_povm(rotation, k)),
        (classical_postprocess(m, post), classical_postprocess(k, post)),
        (mix_povm(m, second_m, p), mix_povm(k, second_k, p)),
    ]
    return pairs, (tensor_povm(m, second_m), tensor_povm(k, second_k)), p


def _evaluate_dm_properties(dim: int, trials: list, tol: float):
    """Six identities of the averaged relative entropy between measurements:
    nonnegativity/faithfulness, unital data processing, unitary invariance,
    post-processing monotonicity, tensor additivity, joint convexity."""
    values = iter(measurement_relative_entropies(
        [pair for pairs, _, _ in trials for pair in pairs]
    ))
    products = measurement_relative_entropies([product for _, product, _ in trials])
    outcomes = []
    for (pairs, _, p), product in zip(trials, products):
        base, second, self_divergence, processed, rotated, merged, mixed = (
            next(values) for _ in pairs
        )
        m, k = pairs[0]
        detail = None
        if base <= tol and np.abs(m.stack - k.stack).max() > 1e-4:
            detail = "faithfulness: vanishing divergence between distinct POVMs"
        outcomes.append(({
            "nonnegativity": base,
            "self_divergence": -abs(self_divergence),
            "data_processing": base - processed,
            "unitary_invariance": -abs(rotated - base),
            "postprocessing": base - merged,
            "tensor_additivity": -abs(product - base - second),
            "joint_convexity": p * base + (1.0 - p) * second - mixed,
        }, detail))
    return outcomes


def _draw_cm_faithfulness(dim: int, rng: SeededRng):
    n = 2 + int(rng.gen.integers(0, 3))
    return random_povm(dim, n, True, rng), random_povm(dim, n, False, rng)


def _evaluate_cm_faithfulness(dim: int, trials: list, tol: float):
    """Measurement-coherence vanishes exactly on incoherent measurements."""
    values = measurement_coherences([povm for trial in trials for povm in trial])
    outcomes = []
    for (incoherent, coherent), incoherent_value, coherent_value in zip(
        trials, values[::2], values[1::2]
    ):
        detail = None
        if not is_incoherent_measurement(incoherent):
            detail = "constructed incoherent POVM failed the diagonal predicate"
        elif coherent_value <= tol and not is_incoherent_measurement(coherent):
            detail = "zero coherence reported for a POVM with off-diagonal entries"
        outcomes.append(({
            "incoherent_vanishes": -abs(incoherent_value),
            "nonnegativity": coherent_value,
        }, detail))
    return outcomes


def _draw_cm_oracle(dim: int, rng: SeededRng):
    n = int(rng.gen.integers(2, dim + 2))
    m = random_povm(dim, n, False, rng)
    dephased = Povm._from_valid(m.stack * np.eye(dim))  # each element's diagonal
    incoherent = random_povm(dim, n, True, rng)
    near = mix_povm(incoherent, dephased, 1e-6 * float(rng.gen.uniform()))
    return m, dephased, incoherent, near


def _evaluate_cm_oracle(dim: int, trials: list, tol: float):
    """Closed form against the definition C_m(M) = min over incoherent N of
    D(M || N): the dephased measurement Delta(M) attains it, and neither a
    random incoherent N nor the near-minimizer eps N + (1 - eps) Delta(M)
    lies below it."""
    closed_values = measurement_coherences([m for m, *_ in trials])
    values = iter(measurement_relative_entropies(
        [(m, n) for m, *others in trials for n in others]
    ))
    return [({
        "attainment": -abs(next(values) - closed),
        "random_incoherent": next(values) - closed,
        "near_minimizer": next(values) - closed,
    }, None) for closed in closed_values]


def _draw_structure_lemma(dim: int, rng: SeededRng):
    d = int(rng.gen.integers(2, dim + 1)) if dim > 2 else 2
    n = int(rng.gen.integers(2, 7))
    return random_povm(d, n, True, rng)


def _evaluate_structure_lemma(dim: int, trials: list, tol: float):
    """Incoherent POVMs decompose into basis measurement + stochastic matrix
    and reconstruct exactly. The suite dim bounds the sampled dimension, so
    each trial is decomposed on its own."""
    outcomes = []
    for povm in trials:
        decomposition = decompose_incoherent(povm)
        column_dev = float(np.abs(decomposition.post.entries.sum(axis=0) - 1.0).max())
        outcomes.append(
            ({"reconstruction": -decomposition.residual, "column_sums": -column_dev}, None)
        )
    return outcomes


def _draw_power_monotone(dim: int, rng: SeededRng):
    channel = random_channel(dim, int(rng.gen.integers(1, dim * dim + 1)), "general", rng)
    k = random_dio(dim, False, rng)
    l = random_dio(dim, True, rng)
    # C(K . E . L): the basis measurement pulled back through K, then E, then L
    sandwiched = pullback_povm(l, pullback_povm(channel, pulled_back_basis(k)))
    free = random_dio(dim, bool(rng.gen.integers(0, 2)), rng)
    return channel, sandwiched, free


def _evaluate_power_monotone(dim: int, trials: list, tol: float):
    """Nonnegativity, faithfulness against the class predicate, and
    monotonicity under detection-incoherent sandwiching."""
    powers = measurement_cohering_powers(
        [c for channel, _, free in trials for c in (channel, free)]
    )
    sandwiched_values = measurement_coherences([sandwiched for _, sandwiched, _ in trials])
    outcomes = []
    for (channel, _, _), power, free_power, sandwiched in zip(
        trials, powers[::2], powers[1::2], sandwiched_values
    ):
        detail = None
        dio = is_dio(channel)
        if dio and power > tol:
            detail = f"detection-incoherent channel with power {power:.3e}"
        elif not dio and power <= tol:
            detail = "vanishing power for a channel outside the free class"
        outcomes.append(({
            "nonnegativity": power,
            "sandwich": power - sandwiched,
            "free_vanishes": -abs(free_power),
        }, detail))
    return outcomes


def _draw_power_convexity(dim: int, rng: SeededRng):
    first = random_channel(dim, int(rng.gen.integers(1, dim * dim + 1)), "general", rng)
    second = random_channel(dim, int(rng.gen.integers(1, dim * dim + 1)), "general", rng)
    p = float(rng.gen.uniform())
    # pulling back through the mixture mixes the pulled-back bases
    pa, pb = pulled_back_basis(first), pulled_back_basis(second)
    return mix_povm(pa, pb, p), pa, pb, p


def _evaluate_power_convexity(dim: int, trials: list, tol: float):
    values = iter(measurement_coherences([povm for *povms, _ in trials for povm in povms]))
    outcomes = []
    for *_, p in trials:
        mixed, first, second = next(values), next(values), next(values)
        outcomes.append(({"convexity": p * first + (1.0 - p) * second - mixed}, None))
    return outcomes


def _draw_conversion_equality(dim: int, rng: SeededRng):
    unitary = conversion_operands(_haar_unitary_channel(dim, rng))
    rank = int(rng.gen.integers(2, dim * dim + 1))
    return unitary, conversion_operands(random_channel(dim, rank, "general", rng))


def _evaluate_conversion_equality(dim: int, trials: list, tol: float):
    """Certificate gap for one Haar unitary and one non-unitary channel."""
    gaps = [c.gap for c in conversion_ent_lower_bounds([ops for trial in trials for ops in trial])]
    return [({"unitary_gap": -unitary, "general_gap": -general}, None)
            for unitary, general in zip(gaps[::2], gaps[1::2])]


def _draw_thm3_proxy(dim: int, rng: SeededRng):
    channel = random_channel(dim, int(rng.gen.integers(1, dim * dim + 1)), "general", rng)
    k = random_dio(dim * dim, bool(rng.gen.integers(0, 2)), rng)
    l = random_dio(dim * dim, True, rng)
    return channel, composite_elements(channel, k, l)


def _evaluate_thm3_proxy(dim: int, trials: list, tol: float):
    """Averaged entanglement lower bound of a sandwiched composite never
    exceeds the cohering power of the core channel."""
    powers = measurement_cohering_powers([channel for channel, _ in trials])
    proxies = composite_ent_lower_bounds([elements for _, elements in trials])
    return [({"proxy_bound": power - proxy}, None) for power, proxy in zip(powers, proxies)]


def _draw_duality(dim: int, rng: SeededRng):
    channel = random_channel(dim, int(rng.gen.integers(1, dim * dim + 1)), "unital", rng)
    # E(|i><i|) for each i
    return adjoint_channel(channel), channel, images(channel, basis_measurement(dim).stack)


def _evaluate_duality(dim: int, trials: list, tol: float):
    """Sandwich between state-cohering power and the adjoint's
    measurement-cohering power, the exact averaged-coherence identity, and
    the state-cohering power as the largest basis-state coherence."""
    adjoint_powers = measurement_cohering_powers([adjoint for adjoint, _, _ in trials])
    state_powers = state_cohering_powers([channel for _, channel, _ in trials])
    coherences = coherences_of_states(np.concatenate([outputs for *_, outputs in trials]))
    outcomes = []
    for c_adj, c_g, row in zip(adjoint_powers, state_powers, coherences.reshape(-1, dim)):
        # the coherences of one trial, summed in index order
        identity_residual = abs(c_adj - sum(row.tolist()) / dim)
        detail = None
        if identity_residual > DUALITY_IDENTITY_TOL:
            detail = f"adjoint power deviates from averaged coherence by {identity_residual:.3e}"
        outcomes.append(({
            "lower": c_adj - c_g / dim,
            "upper": c_g - c_adj,
            "averaged_identity": -identity_residual,
            "state_power_attained": -abs(c_g - row.max()),
        }, detail))
    return outcomes


def _draw_thm7_reduction(dim: int, rng: SeededRng):
    n = int(rng.gen.integers(2, dim + 1)) if dim > 2 else 2
    incoherent = bool(rng.gen.integers(0, 4) == 0)
    povm = random_povm(dim, n, incoherent, rng)
    return measurement_as_square_channel(povm), povm


def _evaluate_thm7_reduction(dim: int, trials: list, tol: float):
    """Power of a measurement embedded as a square channel equals the
    measurement-coherence of the underlying POVM."""
    powers = measurement_cohering_powers([channel for channel, _ in trials])
    coherences = measurement_coherences([povm for _, povm in trials])
    return [({"reduction": -abs(power - coherence)}, None)
            for power, coherence in zip(powers, coherences)]


class Suite(NamedTuple):
    """A suite's two steps, its default tolerance and its seed-stream id.

    `draw(dim, rng)` makes one trial's operands from the trial's own stream;
    `evaluate(dim, operands, tol)` takes the operands of a block of trials
    and returns each trial's (margins, detail), where margins names the
    trial's checks and detail is None or a message that fails the trial.
    A trial's outcome does not depend on the block it is evaluated in.
    """

    draw: Callable
    evaluate: Callable
    tolerance: float
    stream: int


SUITES = {
    "dm_properties": Suite(_draw_dm_properties, _evaluate_dm_properties, 1e-8, 1),
    "cm_faithfulness": Suite(_draw_cm_faithfulness, _evaluate_cm_faithfulness, 1e-8, 2),
    "cm_oracle": Suite(_draw_cm_oracle, _evaluate_cm_oracle, 1e-8, 3),
    "structure_lemma": Suite(_draw_structure_lemma, _evaluate_structure_lemma, 1e-10, 4),
    "power_monotone": Suite(_draw_power_monotone, _evaluate_power_monotone, 1e-8, 5),
    "power_convexity": Suite(_draw_power_convexity, _evaluate_power_convexity, 1e-8, 6),
    "conversion_equality": Suite(
        _draw_conversion_equality, _evaluate_conversion_equality, CONVERSION_GAP_TOL, 7
    ),
    "thm3_proxy": Suite(_draw_thm3_proxy, _evaluate_thm3_proxy, 1e-8, 8),
    "duality": Suite(_draw_duality, _evaluate_duality, 1e-8, 9),
    "thm7_reduction": Suite(_draw_thm7_reduction, _evaluate_thm7_reduction, 1e-9, 10),
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
    tolerance = SUITES[name].tolerance if tol is None else float(tol)
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    return tolerance


def run_suite(name: str, dim: int = 2, trials: int = 100, seed: int = 42,
              tol: float | None = None) -> VerificationReport:
    """Run one named suite, with arguments that pass `check_run`, and
    assemble its report.

    Trials are drawn one at a time and evaluated in blocks: a block closes
    once its operands hold BLOCK_BYTES, so it holds at least one trial. A
    block whose evaluation raises is evaluated again one trial at a time,
    and a trial whose draw or evaluation raises fails alone, with the
    exception as its detail.
    """
    tolerance = check_run(name, dim, trials, seed, tol)
    suite = SUITES[name]
    suite_rng = SeededRng(seed).spawn(suite.stream)

    start = time.perf_counter()
    outcomes: list[tuple[float, str | None]] = []
    block: list = []
    block_bytes = 0
    for index in range(trials):
        try:
            # appended at once: a name bound to the operands would keep the
            # last trial's arrays alive through the next trial's draw
            block.append(suite.draw(dim, suite_rng.spawn(index)))
        except Exception as exc:  # a crashed trial is a failed trial
            outcomes += _evaluate_block(suite, dim, block, tolerance)
            outcomes.append(_crashed(exc))
            block, block_bytes = [], 0
            continue
        block_bytes += _nbytes(block[-1])
        if block_bytes >= BLOCK_BYTES:
            outcomes += _evaluate_block(suite, dim, block, tolerance)
            block, block_bytes = [], 0
    outcomes += _evaluate_block(suite, dim, block, tolerance)
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


def _evaluate_block(suite: Suite, dim: int, block: list, tol: float) -> list[tuple]:
    """(violation, detail) of each trial of a block, in order; when the
    block's evaluation raises, each trial is evaluated on its own."""
    if not block:
        return []
    try:
        return [(_violation(margins), detail)
                for margins, detail in suite.evaluate(dim, block, tol)]
    except Exception as exc:  # a crashed trial is a failed trial
        if len(block) == 1:
            return [_crashed(exc)]
        return [outcome for operands in block
                for outcome in _evaluate_block(suite, dim, [operands], tol)]


def _crashed(exc: Exception) -> tuple[float, str]:
    return math.inf, f"{type(exc).__name__}: {exc}"


def _nbytes(operands) -> int:
    """Bytes of the arrays that a trial's operands hold: a POVM its stack,
    a channel its Choi matrix (the form every evaluation reads)."""
    if isinstance(operands, Povm):
        return operands.stack.nbytes
    if isinstance(operands, QuantumChannel):
        return operands.choi.nbytes
    if isinstance(operands, np.ndarray):
        return operands.nbytes
    if isinstance(operands, (tuple, list)):
        return sum(map(_nbytes, operands))
    return 0
