"""The Metropolis–Hastings transition kernel.

One call to :func:`metropolis_hastings_step` is one MCMC iteration:
generate a proposal, price it, accept (commit) or reject (roll back).
The log-acceptance is the reversible-jump Metropolis–Hastings ratio
(eq. (1) of the paper, in log form, with the explicit Jacobian for
dimension-changing moves):

    log α = Δ log posterior
          + log q(reverse) − log q(forward)
          + log |J|

Moves that could not be generated or fail validity checks (death on an
empty state, a local move leaving its partition, a radius outside the
prior's truncation) count as rejected iterations without touching the
state — this keeps the move-class proposal probabilities exactly as
configured, which §V relies on when balancing phase lengths.

Trial-then-commit
-----------------
The kernel prices proposals through the moves' trial protocol
(:meth:`~repro.mcmc.moves.Move.price` → ``commit``/``rollback``): the
proposal's log-posterior delta is computed *without* mutating coverage
counts or the cached posterior, so a rejection — nearly every
iteration: measured acceptance is 1–4 % (1.1 % on the
``scripts/profile_kernel.py`` workload, 792 commits per 20,000
``naive`` iterations on the ledger's ``solo-serial`` scene) — costs at
most one rasterisation per disc instead of the legacy
apply-then-unapply two.  The removed disc of a move is priced from the
per-circle removal caches (:mod:`repro.mcmc.coverage`,
:mod:`repro.mcmc.posterior`): once a circle's removal has been priced,
a rejected death of it rasterises nothing and a rejected translate or
resize only the disc it adds.  The chain law and every produced
float are bit-identical to the legacy protocol, which remains available
(``legacy_kernel()`` / :func:`set_trial_kernel`) as the parity-gate
reference; ``scripts/profile_kernel.py`` profiles this hot path and
counts its disc windows and energy evaluations.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.mcmc.moves import Move, MoveGenerator, NullMove
from repro.mcmc.posterior import PosteriorState
from repro.mcmc.spec import MoveType
from repro.utils.rng import RngStream

__all__ = [
    "StepResult",
    "metropolis_hastings_step",
    "evaluate_move",
    "price_move",
    "trial_kernel_enabled",
    "set_trial_kernel",
    "legacy_kernel",
]

#: The switch is process-local: it honours ``REPRO_LEGACY_KERNEL`` at
#: import time so spawned pool workers (which re-import this module)
#: can be forced onto the legacy kernel via the environment.  Unset,
#: empty, "0", "false" and "no" all mean the default trial kernel.
_TRIAL_KERNEL = (
    os.environ.get("REPRO_LEGACY_KERNEL", "").strip().lower()
    in ("", "0", "false", "no")
)


def trial_kernel_enabled() -> bool:
    """Whether the hot path uses the trial/commit protocol (default) or
    the legacy apply/unapply reference implementation."""
    return _TRIAL_KERNEL


def set_trial_kernel(enabled: bool) -> bool:
    """Switch between the trial and legacy kernels; returns the previous
    setting.  The legacy kernel exists for parity gating and as the
    pre-trial benchmark baseline — both produce bit-identical chains.

    The setting is a process-local global: it is *not* shipped to
    process-pool workers (they re-import with the default), so legacy
    comparisons should run on the serial/thread executors — or export
    ``REPRO_LEGACY_KERNEL=1`` so workers pick the legacy kernel up at
    import.  It is not thread-safe to toggle while chains are running.
    """
    global _TRIAL_KERNEL
    previous = _TRIAL_KERNEL
    _TRIAL_KERNEL = bool(enabled)
    return previous


@contextmanager
def legacy_kernel() -> Iterator[None]:
    """Run the enclosed block on the legacy apply/unapply kernel
    (parity tests, benchmark baselines).  Process-local — see
    :func:`set_trial_kernel` for pool-worker caveats."""
    previous = set_trial_kernel(False)
    try:
        yield
    finally:
        set_trial_kernel(previous)


@dataclass(frozen=True, slots=True)
class StepResult:
    """Outcome of one MCMC iteration."""

    move_type: MoveType
    proposed: bool  #: False when the proposal could not be generated/validated
    accepted: bool
    log_alpha: float  #: log acceptance ratio (−inf for auto-rejections)
    delta: float  #: applied log-posterior change (0 when rejected)


def metropolis_hastings_step(
    post: PosteriorState, gen: MoveGenerator, stream: RngStream
) -> StepResult:
    """Advance the chain by one iteration; returns what happened."""
    move = gen.generate(post, stream)
    if isinstance(move, NullMove) or not move.is_valid(post):
        return StepResult(move.move_type, proposed=False, accepted=False,
                          log_alpha=-math.inf, delta=0.0)

    if _TRIAL_KERNEL:
        log_fwd = move.log_forward_density(post)
        delta = move.price(post)
        log_rev = move.log_reverse_density(post)
        log_alpha = delta + log_rev - log_fwd + move.log_jacobian()

        if log_alpha >= 0.0 or math.log(stream.random() + 1e-300) < log_alpha:
            move.commit(post)
            return StepResult(move.move_type, proposed=True, accepted=True,
                              log_alpha=log_alpha, delta=delta)
        move.rollback(post)
        return StepResult(move.move_type, proposed=True, accepted=False,
                          log_alpha=log_alpha, delta=0.0)

    # Legacy reference protocol: full apply, full unapply on rejection.
    log_fwd = move.log_forward_density(post)
    delta = move.apply(post)
    log_rev = move.log_reverse_density(post)
    log_alpha = delta + log_rev - log_fwd + move.log_jacobian()

    if log_alpha >= 0.0 or math.log(stream.random() + 1e-300) < log_alpha:
        return StepResult(move.move_type, proposed=True, accepted=True,
                          log_alpha=log_alpha, delta=delta)
    move.unapply(post)
    return StepResult(move.move_type, proposed=True, accepted=False,
                      log_alpha=log_alpha, delta=0.0)


def price_move(post: PosteriorState, move: Move) -> Optional[float]:
    """Price *move* through the trial protocol: returns log α, or
    ``None`` if the move is invalid (state untouched).

    On a non-``None`` return the move is left *priced* — the caller must
    finish the protocol with exactly one of ``move.commit(post)`` or
    ``move.rollback(post)``.  The speculative executor uses this to
    evaluate a round of proposals and commit only the winner, without
    the evaluate-rollback-reapply round-trip.
    """
    if isinstance(move, NullMove) or not move.is_valid(post):
        return None
    log_fwd = move.log_forward_density(post)
    delta = move.price(post)
    log_rev = move.log_reverse_density(post)
    return delta + log_rev - log_fwd + move.log_jacobian()


def evaluate_move(
    post: PosteriorState, move: Move
) -> Optional[float]:
    """Price *move* without leaving it applied: returns log α, or ``None``
    if the move is invalid.  On return *post* is unchanged — callers
    that need to keep the pricing (speculative rounds) use
    :func:`price_move` instead.
    """
    if _TRIAL_KERNEL:
        log_alpha = price_move(post, move)
        if log_alpha is None:
            return None
        move.rollback(post)
        return log_alpha
    if isinstance(move, NullMove) or not move.is_valid(post):
        return None
    log_fwd = move.log_forward_density(post)
    delta = move.apply(post)
    log_rev = move.log_reverse_density(post)
    log_alpha = delta + log_rev - log_fwd + move.log_jacobian()
    move.unapply(post)
    return log_alpha
