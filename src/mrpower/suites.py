"""Randomized verification suites and their structured reports.

Every suite runs `trials` independent trials at the dimension it is given,
each seeded through splitmix64 from the master seed. A suite draws a block
of trials at once, each trial's operands from its own stream, as requests to
batch kernels, and `run_suite` serves the block's requests together, one
kernel call per request position. A suite's check then reads one trial's
values and returns its named checks as signed margins, nonnegative when a
check holds (an inequality's slack, or -|residual| for an equality);
`run_suite` folds them into one violation per trial. Trials are
order-independent and their values do not depend on the blocks, so reports
are reproducible for a fixed seed.
"""

from __future__ import annotations

import itertools
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
    basis_images,
    classical_postprocess,
    is_dio,
    mix_povm,
    pullback_povm,
    pulled_back_basis,
    tensor_povm,
)
# the batch kernels that the draws name are looked up in this module's
# globals when a block runs, so a patch of suites.<kernel> applies to them
from .measures import (
    coherences_of_states,
    decompose_incoherent,
    is_incoherent_measurement,
    measurement_coherences,
    measurement_relative_entropies,
)
from .powers import (
    CONVERSION_GAP_TOL,
    cnot_matrix,
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
    _grouped,
    random_channels,
    random_dios,
    random_povms,
    random_stochastic_matrix,
)

DUALITY_IDENTITY_TOL = 1e-10

# The request items of a block of trials hold about this many bytes. Each
# kernel runs one batched eigen-solve per block, and at d = 2 and 3, where
# a solve's arithmetic costs less than its call, a block takes at least 20
# trials of every suite. At d = 6 the items of one trial reach 0.2-1.5 MB
# (the d^6-entry stacks of the suites on dimension d^2), so blocks of one or
# two trials keep a block's arrays, and the temporaries of its evaluation,
# from raising the peak memory that one trial sets there.
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


def _integers(rngs, low: int, high: int) -> list[int]:
    """One integer in low..high-1 from each stream."""
    return [int(rng.gen.integers(low, high)) for rng in rngs]


def _draw_dm_properties(dim: int, rngs):
    ns = [2 + n for n in _integers(rngs, 0, 2)]
    m, k, second_m, second_k = (
        random_povms(dim, ns, [False] * len(rngs), rngs) for _ in range(4))
    unitals = random_channels(dim, _integers(rngs, 1, dim * dim + 1), "unital", rngs)
    rotations = random_channels(dim, [1] * len(rngs), "general", rngs)
    return [_dm_properties_trial(*trial) for trial in zip(
        rngs, ns, m, k, second_m, second_k, unitals, rotations)]


def _dm_properties_trial(rng, n, m, k, second_m, second_k, unital, rotation):
    post = random_stochastic_matrix(int(rng.gen.integers(2, n + 2)), n, rng)
    p = float(rng.gen.uniform())
    pairs = (
        (m, k),
        (second_m, second_k),
        (m, m),
        (pullback_povm(unital, m), pullback_povm(unital, k)),
        (pullback_povm(rotation, m), pullback_povm(rotation, k)),
        (classical_postprocess(m, post), classical_postprocess(k, post)),
        (mix_povm(m, second_m, p), mix_povm(k, second_k, p)),
    )
    product = (tensor_povm(m, second_m), tensor_povm(k, second_k))
    return (("measurement_relative_entropies", pairs),
            ("measurement_relative_entropies", (product,))), (m, k, p)


def _check_dm_properties(values, context, tol: float):
    """Six identities of the averaged relative entropy between measurements:
    nonnegativity/faithfulness, unital data processing, unitary invariance,
    post-processing monotonicity, tensor additivity, joint convexity."""
    (base, second, self_divergence, processed, rotated, merged, mixed), (product,) = values
    m, k, p = context
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


def _draw_cm_faithfulness(dim: int, rngs):
    ns = [2 + n for n in _integers(rngs, 0, 3)]
    incoherent = random_povms(dim, ns, [True] * len(rngs), rngs)
    coherent = random_povms(dim, ns, [False] * len(rngs), rngs)
    return [((("measurement_coherences", povms),), povms)
            for povms in zip(incoherent, coherent)]


def _check_cm_faithfulness(values, povms, tol: float):
    """Measurement-coherence vanishes exactly on incoherent measurements."""
    [(incoherent_value, coherent_value)] = values
    incoherent, coherent = povms
    detail = None
    if not is_incoherent_measurement(incoherent):
        detail = "constructed incoherent POVM failed the diagonal predicate"
    elif coherent_value <= tol and not is_incoherent_measurement(coherent):
        detail = "zero coherence reported for a POVM with off-diagonal entries"
    return {"incoherent_vanishes": -abs(incoherent_value), "nonnegativity": coherent_value}, detail


def _draw_cm_oracle(dim: int, rngs):
    ns = _integers(rngs, 2, dim + 2)
    ms = random_povms(dim, ns, [False] * len(rngs), rngs)
    incoherents = random_povms(dim, ns, [True] * len(rngs), rngs)
    return [_cm_oracle_trial(dim, *trial) for trial in zip(rngs, ms, incoherents)]


def _cm_oracle_trial(dim, rng, m, incoherent):
    dephased = Povm._from_valid(m.stack * np.eye(dim))  # each element's diagonal
    near = mix_povm(incoherent, dephased, 1e-6 * float(rng.gen.uniform()))
    return (("measurement_coherences", (m,)),
            ("measurement_relative_entropies", ((m, dephased), (m, incoherent), (m, near)))), None


def _check_cm_oracle(values, context, tol: float):
    """Closed form against the definition C_m(M) = min over incoherent N of
    D(M || N): the dephased measurement Delta(M) attains it, and neither a
    random incoherent N nor the near-minimizer eps N + (1 - eps) Delta(M)
    lies below it."""
    (closed,), (attained, random_incoherent, near_minimizer) = values
    return {
        "attainment": -abs(attained - closed),
        "random_incoherent": random_incoherent - closed,
        "near_minimizer": near_minimizer - closed,
    }, None


def _draw_structure_lemma(dim: int, rngs):
    ds = _integers(rngs, 2, dim + 1) if dim > 2 else [2] * len(rngs)
    ns = _integers(rngs, 2, 7)
    # the dimension varies from trial to trial: one draw per dimension
    povms = _grouped(ds, list(zip(ns, rngs)), lambda d, trials: random_povms(
        d, [n for n, _ in trials], [True] * len(trials), [rng for _, rng in trials]))
    return [((), povm) for povm in povms]


def _check_structure_lemma(values, povm, tol: float):
    """Incoherent POVMs decompose into basis measurement + stochastic matrix
    and reconstruct exactly. The suite dim bounds the sampled dimension, so
    a trial requests no batched quantity."""
    decomposition = decompose_incoherent(povm)
    column_dev = float(np.abs(decomposition.post.entries.sum(axis=0) - 1.0).max())
    return {"reconstruction": -decomposition.residual, "column_sums": -column_dev}, None


def _draw_power_monotone(dim: int, rngs):
    channels = random_channels(dim, _integers(rngs, 1, dim * dim + 1), "general", rngs)
    ks = random_dios(dim, [False] * len(rngs), rngs)
    ls = random_dios(dim, [True] * len(rngs), rngs)
    frees = random_dios(dim, [bool(flag) for flag in _integers(rngs, 0, 2)], rngs)
    return [_power_monotone_trial(*trial) for trial in zip(channels, ks, ls, frees)]


def _power_monotone_trial(channel, k, l, free):
    # C(K . E . L): the basis measurement pulled back through K, then E, then L
    sandwiched = pullback_povm(l, pullback_povm(channel, pulled_back_basis(k)))
    return (("measurement_cohering_powers", (channel, free)),
            ("measurement_coherences", (sandwiched,))), channel


def _check_power_monotone(values, channel, tol: float):
    """Nonnegativity, faithfulness against the class predicate, and
    monotonicity under detection-incoherent sandwiching."""
    (power, free_power), (sandwiched,) = values
    detail = None
    dio = is_dio(channel)
    if dio and power > tol:
        detail = f"detection-incoherent channel with power {power:.3e}"
    elif not dio and power <= tol:
        detail = "vanishing power for a channel outside the free class"
    return {
        "nonnegativity": power,
        "sandwich": power - sandwiched,
        "free_vanishes": -abs(free_power),
    }, detail


def _draw_power_convexity(dim: int, rngs):
    firsts = random_channels(dim, _integers(rngs, 1, dim * dim + 1), "general", rngs)
    seconds = random_channels(dim, _integers(rngs, 1, dim * dim + 1), "general", rngs)
    return [_power_convexity_trial(*trial) for trial in zip(rngs, firsts, seconds)]


def _power_convexity_trial(rng, first, second):
    p = float(rng.gen.uniform())
    # pulling back through the mixture mixes the pulled-back bases
    pa, pb = pulled_back_basis(first), pulled_back_basis(second)
    return (("measurement_coherences", (mix_povm(pa, pb, p), pa, pb)),), p


def _check_power_convexity(values, p, tol: float):
    [(mixed, first, second)] = values
    return {"convexity": p * first + (1.0 - p) * second - mixed}, None


def _draw_conversion_equality(dim: int, rngs):
    unitaries = random_channels(dim, [1] * len(rngs), "general", rngs)
    generals = random_channels(dim, _integers(rngs, 2, dim * dim + 1), "general", rngs)
    return [((("conversion_ent_lower_bounds",
               (conversion_operands(unitary), conversion_operands(general))),), None)
            for unitary, general in zip(unitaries, generals)]


def _check_conversion_equality(values, context, tol: float):
    """Certificate gap for one Haar unitary and one non-unitary channel."""
    [(unitary, general)] = values
    return {"unitary_gap": -unitary.gap, "general_gap": -general.gap}, None


def _draw_thm3_proxy(dim: int, rngs):
    dd = dim * dim
    channels = random_channels(dim, _integers(rngs, 1, dd + 1), "general", rngs)
    # K is the identity or a detection-incoherent draw, half and half; L is
    # CNOT^dag with probability 1/4, which with K = id makes the composite
    # the conversion channel, where the bound is attained, and otherwise a
    # unital detection-incoherent draw
    k_drawn = [flag == 1 for flag in _integers(rngs, 0, 2)]
    l_drawn = [flag > 0 for flag in _integers(rngs, 0, 4)]
    identity = QuantumChannel._from_kraus(np.eye(dd, dtype=complex)[None])
    cnot_dagger = QuantumChannel._from_kraus(cnot_matrix(dim).T[None].copy())
    ks = _grouped(k_drawn, rngs, lambda drawn, streams: (
        random_dios(dd, [False] * len(streams), streams) if drawn else [identity] * len(streams)))
    ls = _grouped(l_drawn, rngs, lambda drawn, streams: (
        random_dios(dd, [True] * len(streams), streams) if drawn else [cnot_dagger] * len(streams)))
    return [((("measurement_cohering_powers", (channel,)),
              ("composite_ent_lower_bounds", (composite_elements(channel, k, l),))), None)
            for channel, k, l in zip(channels, ks, ls)]


def _check_thm3_proxy(values, context, tol: float):
    """Averaged entanglement lower bound of a sandwiched composite never
    exceeds the cohering power of the core channel."""
    (power,), (proxy,) = values
    return {"proxy_bound": power - proxy}, None


def _draw_duality(dim: int, rngs):
    channels = random_channels(dim, _integers(rngs, 1, dim * dim + 1), "unital", rngs)
    return [((("measurement_cohering_powers", (adjoint_channel(channel),)),
              ("state_cohering_powers", (channel,)),
              ("coherences_of_states", basis_images(channel))), None)
            for channel in channels]


def _check_duality(values, context, tol: float):
    """Sandwich between state-cohering power and the adjoint's
    measurement-cohering power, the exact averaged-coherence identity, and
    the state-cohering power as the largest basis-state coherence."""
    (c_adj,), (c_g,), row = values
    # the coherences of one trial, summed in index order
    identity_residual = abs(c_adj - sum(row.tolist()) / len(row))
    detail = None
    if identity_residual > DUALITY_IDENTITY_TOL:
        detail = f"adjoint power deviates from averaged coherence by {identity_residual:.3e}"
    return {
        "lower": c_adj - c_g / len(row),
        "upper": c_g - c_adj,
        "averaged_identity": -identity_residual,
        "state_power_attained": -abs(c_g - row.max()),
    }, detail


def _draw_thm7_reduction(dim: int, rngs):
    ns = _integers(rngs, 2, dim + 1) if dim > 2 else [2] * len(rngs)
    incoherent = [flag == 0 for flag in _integers(rngs, 0, 4)]
    return [((("measurement_cohering_powers", (measurement_as_square_channel(povm),)),
              ("measurement_coherences", (povm,))), None)
            for povm in random_povms(dim, ns, incoherent, rngs)]


def _check_thm7_reduction(values, context, tol: float):
    """Power of a measurement embedded as a square channel equals the
    measurement-coherence of the underlying POVM."""
    (power,), (coherence,) = values
    return {"reduction": -abs(power - coherence)}, None


class Suite(NamedTuple):
    """A suite's two steps, its default tolerance and its seed-stream id.

    `draw(dim, rngs)` makes the operands of a block of trials and returns
    one (requests, context) per stream of rngs. Each trial reads only its
    own stream, and in the same order whatever the block, so its operands
    are those of `draw(dim, [rng])` bit for bit; the samplers' block forms
    share one stacked QR or eigh among the block. `requests` is a tuple of
    (kernel, items) pairs, where kernel names a batch function of this
    module (looked up when the block runs) and items is the sequence it
    takes for this trial; every trial of a suite names the same kernels in
    the same order. `context` is what the check reads beyond the kernels'
    values. `check(values, context, tol)` gets the tuple of each request's values,
    in request order, and returns (margins, detail), where margins names
    the trial's checks and detail is None or a message that fails the trial.
    """

    draw: Callable
    check: Callable
    tolerance: float
    stream: int


SUITES = {
    "dm_properties": Suite(_draw_dm_properties, _check_dm_properties, 1e-8, 1),
    "cm_faithfulness": Suite(_draw_cm_faithfulness, _check_cm_faithfulness, 1e-8, 2),
    "cm_oracle": Suite(_draw_cm_oracle, _check_cm_oracle, 1e-8, 3),
    "structure_lemma": Suite(_draw_structure_lemma, _check_structure_lemma, 1e-10, 4),
    "power_monotone": Suite(_draw_power_monotone, _check_power_monotone, 1e-8, 5),
    "power_convexity": Suite(_draw_power_convexity, _check_power_convexity, 1e-8, 6),
    "conversion_equality": Suite(
        _draw_conversion_equality, _check_conversion_equality, CONVERSION_GAP_TOL, 7
    ),
    "thm3_proxy": Suite(_draw_thm3_proxy, _check_thm3_proxy, 1e-8, 8),
    "duality": Suite(_draw_duality, _check_duality, 1e-8, 9),
    "thm7_reduction": Suite(_draw_thm7_reduction, _check_thm7_reduction, 1e-9, 10),
}

SUITE_NAMES = tuple(SUITES)


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

    Trials are drawn alone until one draws, and the bytes b of its request
    items size the run's blocks to max(1, BLOCK_BYTES // b) trials (one
    block when it requests nothing). Each block is drawn with one `draw`
    call and evaluated together. A block whose draw raises is drawn again
    one trial at a time, and one whose evaluation raises is evaluated again
    one trial at a time, so a trial whose draw or evaluation raises fails
    alone, with the exception as its detail.
    """
    tolerance = check_run(name, dim, trials, seed, tol)
    suite = SUITES[name]
    suite_rng = SeededRng(seed).spawn(suite.stream)

    start = time.perf_counter()
    outcomes: list[tuple[float, str | None]] = []
    block: list = []
    block_size = index = 0
    while index < trials:
        count = min(trials - index, block_size - len(block) if block_size else 1)
        rngs = [suite_rng.spawn(i) for i in range(index, index + count)]
        index += count
        for drawn in _draw_block(suite, dim, rngs):
            if isinstance(drawn, Exception):  # a crashed trial is a failed trial
                outcomes += _evaluate_block(suite, block, tolerance)
                outcomes.append(_crashed(drawn))
                block = []
            else:
                block.append(drawn)
        # a name bound to the operands would keep the last trial's arrays
        # alive through the next block's draw
        del drawn
        if block and not block_size:
            # trial shapes are fixed by dim, so one trial sizes the run's blocks
            trial_bytes = _nbytes(block[0][0])
            block_size = max(1, BLOCK_BYTES // trial_bytes) if trial_bytes else trials
        if len(block) == block_size:
            outcomes += _evaluate_block(suite, block, tolerance)
            block = []
    outcomes += _evaluate_block(suite, block, tolerance)
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


def _draw_block(suite: Suite, dim: int, rngs: list[SeededRng]) -> list:
    """Each trial's draw, or the exception its draw raised: a block whose draw
    raises is drawn again trial by trial, each from a fresh copy of its stream."""
    try:
        return suite.draw(dim, rngs)
    except Exception as exc:  # a crashed trial is a failed trial
        if len(rngs) == 1:
            return [exc]
        return [drawn for rng in rngs
                for drawn in _draw_block(suite, dim, [SeededRng(rng.master_seed)])]


def _evaluate_block(suite: Suite, block: list, tol: float) -> list[tuple]:
    """(violation, detail) of each trial of a block of draws, in order.

    For each request position, the kernel that the block's first trial
    names runs once on that request's items from every trial, in trial
    order, and each trial's check gets back the values of its own items.
    When the block's evaluation raises, each trial is evaluated on its own.
    """
    if not block:
        return []
    try:
        values: list[list] = [[] for _ in block]
        for position, (kernel, _) in enumerate(block[0][0]):
            items = [requests[position][1] for requests, _ in block]
            batch = globals()[kernel]([item for own in items for item in own])
            starts = itertools.accumulate(map(len, items), initial=0)
            for own_values, own, first in zip(values, items, starts):
                own_values.append(batch[first:first + len(own)])
        return [(_violation(margins), detail) for margins, detail in (
            suite.check(own_values, context, tol)
            for own_values, (_, context) in zip(values, block)
        )]
    except Exception as exc:  # a crashed trial is a failed trial
        if len(block) == 1:
            return [_crashed(exc)]
        return [outcome for trial in block
                for outcome in _evaluate_block(suite, [trial], tol)]


def _crashed(exc: Exception) -> tuple[float, str]:
    return math.inf, f"{type(exc).__name__}: {exc}"


def _nbytes(operands) -> int:
    """Bytes of the arrays that a trial's request items hold: a POVM its
    stack, a channel its Kraus operators."""
    if isinstance(operands, Povm):
        return operands.stack.nbytes
    if isinstance(operands, QuantumChannel):
        return operands.kraus.nbytes
    if isinstance(operands, np.ndarray):
        return operands.nbytes
    if isinstance(operands, (tuple, list)):
        return sum(map(_nbytes, operands))
    return 0
