"""The reversible-jump MCMC engine (the paper's case-study algorithm).

The model is a marked point process of circles fitted to a filtered
image by reversible-jump Metropolis–Hastings (Green 1995, the paper's
ref. [8]).  The move set matches §III of the paper:

========  =========================  ==========================
move      effect                      class (§V)
========  =========================  ==========================
birth     add a circle               global (changes count)
death     delete a circle            global (changes count)
split     one circle → two           global (changes count)
merge     two circles → one          global (changes count)
replace   delete + add elsewhere     global (whole-image range)
translate perturb a centre           local
resize    perturb a radius           local
========  =========================  ==========================

Posterior = count prior (Poisson) × per-circle position/radius priors ×
pairwise overlap penalty × Gaussian pixel likelihood against the
filtered image.  All posterior evaluation is *incremental*: a move's
log-posterior delta is computed from the pixels and neighbours the move
actually touches, which is exactly the locality property periodic
partitioning exploits.
"""

from repro.mcmc.spec import ModelSpec, MoveConfig, MoveType, LOCAL_MOVES, GLOBAL_MOVES
from repro.mcmc.state import CircleConfiguration
from repro.mcmc.coverage import CoverageRaster
from repro.mcmc.likelihood import PixelLikelihood
from repro.mcmc.prior import CountPrior, RadiusPrior, OverlapPrior, PositionPrior
from repro.mcmc.posterior import PosteriorState
from repro.mcmc.moves import (
    Move,
    BirthMove,
    DeathMove,
    SplitMove,
    MergeMove,
    ReplaceMove,
    TranslateMove,
    ResizeMove,
    NullMove,
    MoveGenerator,
)
from repro.mcmc.kernel import (
    StepResult,
    evaluate_move,
    legacy_kernel,
    metropolis_hastings_step,
    price_move,
    set_trial_kernel,
    trial_kernel_enabled,
)
from repro.mcmc.chain import MarkovChain, ChainResult
from repro.mcmc.diagnostics import (
    AcceptanceStats,
    Trace,
    convergence_iteration,
    effective_sample_size,
)
from repro.mcmc.speculative import (
    MultiproposalChain,
    SpeculativeChain,
    speculative_speedup,
)
from repro.mcmc.mc3 import MetropolisCoupledChains
from repro.mcmc.samples import SampleCollector, PosteriorSummary

__all__ = [
    "ModelSpec",
    "MoveConfig",
    "MoveType",
    "LOCAL_MOVES",
    "GLOBAL_MOVES",
    "CircleConfiguration",
    "CoverageRaster",
    "PixelLikelihood",
    "CountPrior",
    "RadiusPrior",
    "OverlapPrior",
    "PositionPrior",
    "PosteriorState",
    "Move",
    "BirthMove",
    "DeathMove",
    "SplitMove",
    "MergeMove",
    "ReplaceMove",
    "TranslateMove",
    "ResizeMove",
    "NullMove",
    "MoveGenerator",
    "metropolis_hastings_step",
    "evaluate_move",
    "price_move",
    "legacy_kernel",
    "set_trial_kernel",
    "trial_kernel_enabled",
    "StepResult",
    "MarkovChain",
    "ChainResult",
    "AcceptanceStats",
    "Trace",
    "convergence_iteration",
    "effective_sample_size",
    "SpeculativeChain",
    "speculative_speedup",
    "MultiproposalChain",
    "MetropolisCoupledChains",
    "SampleCollector",
    "PosteriorSummary",
]
