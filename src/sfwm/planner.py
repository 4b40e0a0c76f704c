"""Splice planning: pick and order segments to maximize spectral factorability.

Given a pool of characterized segments, the planner searches ordered subsets
meeting a total-length constraint and ranks them by the predicted g2 of the
resulting assembly (higher g2 = more factorable pairs = purer heralded
photons).  An exhaustive search provides the ground truth on small pools; a
clustering heuristic scales to larger ones and is validated never to beat
the exhaustive optimum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

from .correlation import g2_streamed
from .phasematch import PumpSpec
from .spectra import AssemblySegment, AssemblySpec, FrequencyGrid, Spectrum1D, jsa_grid


class PlanSpaceError(RuntimeError):
    """Too many feasible ordered subsets for exhaustive search."""


@dataclass(frozen=True)
class SegmentPool:
    """Labelled candidate segments plus the splice-length constraint."""

    candidates: tuple[tuple[str, AssemblySegment], ...]
    target_total_length_m: float
    tolerance_m: float | None = None  # default: one shortest-segment length
    max_segments: int | None = None

    def __post_init__(self):
        if not self.candidates:
            raise ValueError("pool must contain at least one candidate")
        if self.target_total_length_m <= 0:
            raise ValueError("target total length must be > 0")
        if self.tolerance_m is not None and self.tolerance_m < 0:
            raise ValueError("tolerance must be >= 0")
        if self.max_segments is not None and self.max_segments < 1:
            raise ValueError("max_segments must be >= 1")

    @property
    def effective_tolerance_m(self) -> float:
        if self.tolerance_m is not None:
            return self.tolerance_m
        return min(seg.length_m for _, seg in self.candidates)

    @property
    def effective_max_segments(self) -> int:
        return self.max_segments if self.max_segments is not None else len(self.candidates)

    def total_length_m(self, order: tuple[int, ...]) -> float:
        """Exactly rounded sum, so a splice and its mirror image agree."""
        return math.fsum(self.candidates[i][1].length_m for i in order)

    def is_feasible(self, order: tuple[int, ...]) -> bool:
        total = self.total_length_m(order)
        return abs(total - self.target_total_length_m) <= self.effective_tolerance_m + 1e-12


@dataclass(frozen=True)
class SplicePlan:
    """An ordered selection with its predicted performance and the grid its JSA
    was filled on.  A planner's result lists in ``scored`` each plan it filled
    a JSA for, in fill order and in the orientation evaluate_plan fills."""

    order: tuple[int, ...]
    labels: tuple[str, ...]
    total_length_m: float
    predicted_g2: float
    predicted_spectrum: Spectrum1D = field(repr=False)
    grid: FrequencyGrid = field(repr=False, compare=False)
    scored: tuple["SplicePlan", ...] = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.order)) != len(self.order):
            raise ValueError("plan indices must be distinct")


def evaluate_plan(order, pool: SegmentPool, pump: PumpSpec,
                  **grid_kwargs) -> tuple[float, Spectrum1D]:
    """Predicted g2 and signal spectrum of the assembly spliced in this order.

    A splice and its mirror image share both.  Reversing a linearized
    assembly turns its amplitude f into exp(i P(w_s)) exp(i Q(w_i)) f*, where
    P + Q is the total mismatch phase; that leaves |f| and the Schmidt
    spectrum unchanged.  Both orders are therefore evaluated in the
    lexicographically smaller orientation, so that mirror images tie exactly
    rather than by rounding noise.  ``grid_kwargs`` go to jsa_grid.
    """
    order = tuple(order)
    if not order:
        raise ValueError("plan order must not be empty")
    if any(not 0 <= i < len(pool.candidates) for i in order):
        raise ValueError(f"plan indices {order} out of range")
    if len(set(order)) != len(order):
        raise ValueError("plan indices must be distinct")
    assembly = _assembly(min(order, order[::-1]), pool)
    return g2_streamed(assembly, pump, jsa_grid(assembly, pump, **grid_kwargs),
                       signal_marginal=True)


def _assembly(order: tuple[int, ...], pool: SegmentPool) -> AssemblySpec:
    return AssemblySpec(tuple(pool.candidates[i][1] for i in order), "linearized")


def _feasible_subsets(pool: SegmentPool) -> list[tuple[int, ...]]:
    idx = range(len(pool.candidates))
    return [combo for size in range(1, pool.effective_max_segments + 1)
            for combo in itertools.combinations(idx, size) if pool.is_feasible(combo)]


def _score(order: tuple[int, ...], pool: SegmentPool, pump: PumpSpec,
           grid_kwargs: dict) -> SplicePlan:
    """The plan of ``order``, the orientation of a mirror pair that
    evaluate_plan fills (order <= order[::-1]), on the grid sized here once."""
    grid = jsa_grid(_assembly(order, pool), pump, **grid_kwargs)
    g2, spectrum = evaluate_plan(order, pool, pump, grid=grid)
    return SplicePlan(order=order, labels=tuple(pool.candidates[i][0] for i in order),
                      total_length_m=pool.total_length_m(order), predicted_g2=g2,
                      predicted_spectrum=spectrum, grid=grid)


def _rank(plan: SplicePlan) -> tuple:
    # Higher g2 wins; ties resolve to the shorter splice, then to the
    # lexicographically smallest index order, for deterministic output.
    return -plan.predicted_g2, plan.total_length_m, plan.order


def plan_exhaustive(pool: SegmentPool, pump: PumpSpec, max_plans: int = 100_000,
                    **grid_kwargs) -> SplicePlan:
    """Global argmax of predicted g2 over all feasible ordered subsets."""
    subsets = _feasible_subsets(pool)
    if not subsets:
        raise ValueError(
            f"no subset of the pool meets total length "
            f"{pool.target_total_length_m} +/- {pool.effective_tolerance_m} m"
        )
    count = sum(math.factorial(len(subset)) for subset in subsets)
    if count > max_plans:
        raise PlanSpaceError(
            f"{count} feasible ordered subsets exceed the cap {max_plans} "
            "(planner.max_plans); lower planner.max_segments or planner.tolerance_m "
            "to shrink the search"
        )
    # A mirror image ties on g2 and length and loses on order, so scoring
    # the smaller orientation of each pair alone gives the same argmax.
    scored = tuple(_score(order, pool, pump, grid_kwargs) for subset in subsets
                   for order in itertools.permutations(subset) if order <= order[::-1])
    return replace(min(scored, key=_rank), scored=scored)


def _greedy_seed(pool: SegmentPool) -> tuple[int, ...] | None:
    """Smallest-spread feasible window in signal-wavelength order."""
    order_by_ls0 = sorted(range(len(pool.candidates)),
                          key=lambda i: (pool.candidates[i][1].point.lambda_s0_nm, i))
    best_window: tuple[int, ...] | None = None
    best_spread = math.inf
    for size in range(1, pool.effective_max_segments + 1):
        for start in range(len(order_by_ls0) - size + 1):
            window = tuple(order_by_ls0[start:start + size])
            if not pool.is_feasible(window):
                continue
            ls0 = [pool.candidates[i][1].point.lambda_s0_nm for i in window]
            spread = max(ls0) - min(ls0)
            if spread < best_spread - 1e-15:
                best_spread = spread
                best_window = window
    return best_window


# Improvement rounds plan_greedy makes before it returns its current plan.
_GREEDY_MAX_ROUNDS = 100


def plan_greedy(pool: SegmentPool, pump: PumpSpec, **grid_kwargs) -> SplicePlan:
    """Cluster-then-improve heuristic.

    Seeds with the feasible set of smallest signal-wavelength spread (grown
    along the lambda_s0-sorted order), then applies best-improvement swaps --
    exchanging a member with a non-member, or two positions in the splice
    order -- until no swap raises the predicted g2.
    """
    seed = _greedy_seed(pool)
    if seed is None:
        raise ValueError(
            f"no subset of the pool meets total length "
            f"{pool.target_total_length_m} +/- {pool.effective_tolerance_m} m"
        )
    scored: dict = {}  # by orientation: rounds revisit orders, and mirror pairs tie

    def plan_for(order: tuple[int, ...]) -> SplicePlan:
        key = min(order, order[::-1])
        if key not in scored:
            scored[key] = _score(key, pool, pump, grid_kwargs)
        return replace(scored[key], order=order,
                       labels=tuple(pool.candidates[i][0] for i in order))

    current = plan_for(seed)
    for _ in range(_GREEDY_MAX_ROUNDS):
        members = set(current.order)
        moves: list[tuple[int, ...]] = []
        for pos in range(len(current.order)):
            for repl in range(len(pool.candidates)):
                if repl in members:
                    continue
                cand = list(current.order)
                cand[pos] = repl
                if pool.is_feasible(tuple(cand)):
                    moves.append(tuple(cand))
        for a in range(len(current.order)):
            for b in range(a + 1, len(current.order)):
                cand = list(current.order)
                cand[a], cand[b] = cand[b], cand[a]
                moves.append(tuple(cand))
        better = [plan for plan in map(plan_for, moves)
                  if plan.predicted_g2 > current.predicted_g2 + 1e-15]
        if not better:
            break
        current = min(better, key=_rank)
    return replace(current, scored=tuple(scored.values()))
