"""Metropolis-coupled MCMC — (MC)³ (§IV, the paper's refs. [9], [10]).

The conventional parallel-MCMC technique the paper positions itself
against: run several chains at different temperatures; only the cold
chain is sampled; periodically propose swapping the states of two
chains.  Heated chains flatten the posterior (target ∝ π^(1/T)) and so
traverse the state space freely, letting the cold chain escape local
optima through swaps.

Implemented here as a *baseline / related-work comparator*: it improves
convergence rate, not iteration throughput — the quantity the paper's
own methods target — and the benchmark suite uses it to demonstrate
that distinction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import ConfigurationError
from repro.mcmc.diagnostics import AcceptanceStats, Trace
from repro.mcmc.kernel import trial_kernel_enabled
from repro.mcmc.moves import MoveGenerator, NullMove
from repro.mcmc.posterior import PosteriorState
from repro.utils.rng import SeedLike, coerce_stream

__all__ = ["MetropolisCoupledChains", "MC3Result"]


@dataclass
class MC3Result:
    """Summary of an (MC)³ run."""

    iterations: int
    swap_attempts: int
    swap_accepts: int
    cold_posterior_trace: Trace
    cold_stats: AcceptanceStats

    @property
    def swap_rate(self) -> float:
        return self.swap_accepts / self.swap_attempts if self.swap_attempts else 0.0


class MetropolisCoupledChains:
    """k coupled chains over independent copies of the posterior state.

    Parameters
    ----------
    posts:
        One posterior state per chain; index 0 is the cold chain.  All
        must share the same model (they exchange *states*, so their
        targets must agree up to temperature).
    gens:
        One move generator per chain (usually identical configs).
    temperatures:
        Ladder with ``temperatures[0] == 1.0``, strictly increasing.
        The conventional choice is ``1 + Δ·i`` ("heated" chains).
    swap_every:
        Number of per-chain iterations between swap proposals.
    """

    def __init__(
        self,
        posts: Sequence[PosteriorState],
        gens: Sequence[MoveGenerator],
        temperatures: Sequence[float],
        swap_every: int = 50,
        seed: SeedLike = None,
        record_every: int = 100,
    ) -> None:
        if not (len(posts) == len(gens) == len(temperatures)):
            raise ConfigurationError(
                f"need equal numbers of states/generators/temperatures, got "
                f"{len(posts)}/{len(gens)}/{len(temperatures)}"
            )
        if len(posts) < 2:
            raise ConfigurationError("(MC)^3 needs at least two chains")
        if abs(temperatures[0] - 1.0) > 1e-12:
            raise ConfigurationError("the first (cold) chain must have T = 1")
        for a, b in zip(temperatures, temperatures[1:]):
            if b <= a:
                raise ConfigurationError("temperatures must be strictly increasing")
        if swap_every <= 0:
            raise ConfigurationError(f"swap_every must be positive, got {swap_every}")
        self.posts: List[PosteriorState] = list(posts)
        self.gens = list(gens)
        self.temperatures = [float(t) for t in temperatures]
        self.swap_every = swap_every
        root = coerce_stream(seed)
        self._chain_streams = root.spawn(len(posts))
        self._swap_stream = root.spawn_one()
        self.record_every = max(1, record_every)
        self.iteration = 0
        self.swap_attempts = 0
        self.swap_accepts = 0
        self.cold_stats = AcceptanceStats()
        self.cold_posterior_trace = Trace()

    # -- tempered kernel -----------------------------------------------------
    def _tempered_step(self, k: int) -> None:
        """One Metropolis–Hastings iteration of chain *k* at temperature
        T_k: the posterior delta is divided by T_k, proposal terms are
        not (they are densities, not targets)."""
        post, gen, stream = self.posts[k], self.gens[k], self._chain_streams[k]
        move = gen.generate(post, stream)
        if isinstance(move, NullMove) or not move.is_valid(post):
            if k == 0:
                self.cold_stats.record(move.move_type, proposed=False, accepted=False)
            return
        log_fwd = move.log_forward_density(post)
        # Trial protocol: heated chains reject most proposals too, so
        # pricing without mutation saves the same unapply rasterisations
        # the cold kernel avoids.  Only the mutation protocol branches;
        # the tempered acceptance arithmetic is shared.
        use_trial = trial_kernel_enabled()
        delta = move.price(post) if use_trial else move.apply(post)
        log_rev = move.log_reverse_density(post)
        log_alpha = (
            delta / self.temperatures[k] + log_rev - log_fwd + move.log_jacobian()
        )
        accept = log_alpha >= 0.0 or math.log(stream.random() + 1e-300) < log_alpha
        if use_trial:
            if accept:
                move.commit(post)
            else:
                move.rollback(post)
        elif not accept:
            move.unapply(post)
        if k == 0:
            self.cold_stats.record(move.move_type, proposed=True, accepted=accept)

    def _attempt_swap(self) -> None:
        """Propose exchanging the states of two randomly chosen chains,
        accepted with the modified Metropolis–Hastings ratio

            log α = (1/T_i − 1/T_j) · (log π(x_j) − log π(x_i))
        """
        k = len(self.posts)
        i = self._swap_stream.integers(0, k - 1)
        j = i + 1  # adjacent-chain swaps mix the ladder best
        self.swap_attempts += 1
        lp_i = self.posts[i].log_posterior
        lp_j = self.posts[j].log_posterior
        log_alpha = (1.0 / self.temperatures[i] - 1.0 / self.temperatures[j]) * (
            lp_j - lp_i
        )
        if log_alpha >= 0.0 or math.log(self._swap_stream.random() + 1e-300) < log_alpha:
            self.posts[i], self.posts[j] = self.posts[j], self.posts[i]
            self.swap_accepts += 1

    # -- driver ------------------------------------------------------------------
    def run(self, iterations: int) -> MC3Result:
        """Advance every chain by *iterations* steps with periodic swaps."""
        if iterations < 0:
            raise ConfigurationError(f"iterations must be >= 0, got {iterations}")
        for _ in range(iterations):
            for k in range(len(self.posts)):
                self._tempered_step(k)
            self.iteration += 1
            if self.iteration % self.swap_every == 0:
                self._attempt_swap()
            if self.iteration % self.record_every == 0:
                self.cold_posterior_trace.record(
                    self.iteration, self.posts[0].log_posterior
                )
        return MC3Result(
            iterations=self.iteration,
            swap_attempts=self.swap_attempts,
            swap_accepts=self.swap_accepts,
            cold_posterior_trace=self.cold_posterior_trace,
            cold_stats=self.cold_stats,
        )

    @property
    def cold_chain(self) -> PosteriorState:
        """The T = 1 chain — the only one whose samples are used."""
        return self.posts[0]
