"""Speculative moves (the paper's ref. [11], used in eqs. (3)–(4)).

The idea: while the kernel considers move A, additional workers
speculatively consider moves B, C, ... *assuming A is rejected* (true
~75 % of the time).  At most one of the simultaneously considered moves
may be accepted, so the chain's distribution is untouched; the win is
wall-clock — a round of ``n`` speculative iterations costs about one
iteration's time but advances the chain by

    E[iterations/round] = (1 − p_r^n) / (1 − p_r)

giving the runtime fraction ``(1 − p_r) / (1 − p_r^n)`` quoted in §VI.

:class:`SpeculativeChain` implements the *semantics* (rounds of
proposals generated from a common state, first acceptance wins) with
sequential evaluation.  True thread-parallel evaluation of Python
bytecode cannot speed up under the GIL, so the wall-clock benefit on
this substrate is modelled, not measured: :func:`speculative_speedup`
is the model, and the round statistics the chain collects
(``iterations_per_round``) validate its expectation empirically —
see ``benchmarks/bench_speculative.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import ChainError, ConfigurationError
from repro.mcmc.diagnostics import AcceptanceStats, Trace
from repro.mcmc.kernel import evaluate_move, price_move, trial_kernel_enabled
from repro.mcmc.moves import MoveGenerator
from repro.mcmc.posterior import PosteriorState
from repro.utils.rng import RngStream, SeedLike, coerce_stream

__all__ = [
    "SpeculativeChain",
    "SpeculativeResult",
    "MultiproposalChain",
    "speculative_speedup",
]


def speculative_speedup(p_r: float, n: int) -> float:
    """Expected runtime fraction under speculative moves: (1−p_r)/(1−p_r^n).

    *p_r* is the per-iteration rejection probability, *n* the number of
    moves considered simultaneously (threads).  Returns 1.0 for n=1 and
    approaches (1−p_r) as n → ∞.
    """
    if not (0.0 <= p_r <= 1.0):
        raise ConfigurationError(f"p_r must be in [0, 1], got {p_r}")
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if p_r == 1.0:
        return 1.0 / n  # every round consumes n iterations in one slot
    if p_r == 0.0:
        return 1.0
    return (1.0 - p_r) / (1.0 - p_r**n)


@dataclass
class SpeculativeResult:
    """Summary of a speculative run."""

    iterations: int
    rounds: int
    stats: AcceptanceStats
    posterior_trace: Trace

    @property
    def iterations_per_round(self) -> float:
        """Empirical speedup factor (compare with 1/speculative_speedup)."""
        return self.iterations / self.rounds if self.rounds else 0.0


class SpeculativeChain:
    """A Markov chain advanced in speculative rounds of *width* proposals.

    Each round:

    1. generate up to ``width`` proposals from the *current* state (each
       later proposal is only reached if all earlier ones are rejected,
       so generating them from the unchanged state is exactly the
       speculative-execution assumption);
    2. evaluate them in order; the first acceptance is applied and the
       rest of the round is discarded.

    The resulting chain law is identical to the sequential sampler's.
    """

    def __init__(
        self,
        post: PosteriorState,
        gen: MoveGenerator,
        width: int,
        seed: SeedLike = None,
        record_every: int = 100,
    ) -> None:
        if width < 1:
            raise ConfigurationError(f"speculative width must be >= 1, got {width}")
        self.post = post
        self.gen = gen
        self.width = width
        self.stream: RngStream = coerce_stream(seed)
        self.record_every = max(1, record_every)
        self.iteration = 0
        self.rounds = 0
        self.stats = AcceptanceStats()
        self.posterior_trace = Trace()

    def run_round(self, max_width: Optional[int] = None) -> int:
        """Execute one speculative round; returns iterations consumed."""
        width = self.width if max_width is None else min(self.width, max_width)
        if width < 1:
            raise ChainError(f"round width must be >= 1, got {width}")
        consumed = 0
        if trial_kernel_enabled():
            # Trial protocol: each losing proposal is priced and rolled
            # back without ever touching coverage counts; the winner is
            # committed straight from its cached rasterisation masks —
            # no evaluate-rollback-reapply round-trip.
            for _ in range(width):
                move = self.gen.generate(self.post, self.stream)
                consumed += 1
                log_alpha = price_move(self.post, move)
                if log_alpha is None:  # ungenerable or invalid proposal
                    self.stats.record(move.move_type, proposed=False, accepted=False)
                    continue
                accept = (
                    log_alpha >= 0.0
                    or math.log(self.stream.random() + 1e-300) < log_alpha
                )
                self.stats.record(move.move_type, proposed=True, accepted=accept)
                if accept:
                    move.commit(self.post)
                    break
                move.rollback(self.post)
        else:
            # Legacy reference protocol (parity gating / benchmarking).
            winner = None
            for _ in range(width):
                move = self.gen.generate(self.post, self.stream)
                consumed += 1
                log_alpha = evaluate_move(self.post, move)
                if log_alpha is None:
                    self.stats.record(move.move_type, proposed=False, accepted=False)
                    continue
                accept = (
                    log_alpha >= 0.0
                    or math.log(self.stream.random() + 1e-300) < log_alpha
                )
                self.stats.record(move.move_type, proposed=True, accepted=accept)
                if accept:
                    winner = move
                    break
            if winner is not None:
                winner.apply(self.post)
        self.rounds += 1
        self.iteration += consumed
        if self.iteration // self.record_every > (self.iteration - consumed) // self.record_every:
            self.posterior_trace.record(self.iteration, self.post.log_posterior)
        return consumed

    def run(self, iterations: int) -> SpeculativeResult:
        """Advance the chain by at least *iterations* iterations (the last
        round is truncated so the total is exact)."""
        if iterations < 0:
            raise ChainError(f"iterations must be >= 0, got {iterations}")
        target = self.iteration + iterations
        while self.iteration < target:
            self.run_round(max_width=target - self.iteration)
        return SpeculativeResult(
            iterations=self.iteration,
            rounds=self.rounds,
            stats=self.stats,
            posterior_trace=self.posterior_trace,
        )


#: The benchmark harness (``ledger/layers.py``) imports this name for its
#: ``mcmc.iters_per_s_k8`` reading, with ``SpeculativeChain``'s signature.
#: A later benchmark change retires the name together with that metric.
MultiproposalChain = SpeculativeChain
