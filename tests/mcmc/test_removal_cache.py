"""The trial kernel's removal caches.

``CoverageRaster`` caches the rasterisation, vacated-weight sum and
post-removal counts of each removed disc geometry; ``PosteriorState``
caches the removed disc's overlap energy.  Both are derived state: every
value they serve must be bit-identical to what an empty cache would
compute at that moment, and the raster's cache may never hold more
entries than there are live disc geometries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ChainError
from repro.geometry.circle import Circle
from repro.imaging.synthetic import SceneSpec, render_scene
from repro.mcmc import (
    DeathMove,
    MarkovChain,
    ModelSpec,
    MoveConfig,
    MoveGenerator,
    PosteriorState,
    TranslateMove,
    legacy_kernel,
)
from repro.mcmc.coverage import CoverageRaster
from repro.mcmc.prior import OverlapPrior

H, W = 30, 34
ROW_OFFSET, COL_OFFSET = 2, 3

_rng = np.random.default_rng(11)
WEIGHTS = (_rng.random((H, W)) * 2.0 - 1.0, _rng.random((H, W)) * 2.0 - 1.0)

# A small coordinate pool, so geometries recur and the cache is hit.
coord = st.sampled_from((4.0, 9.5, 13.25, 20.0, 26.75, 33.0, 38.5))
radius = st.sampled_from((1.5, 3.0, 4.5, 6.0, 8.25))
geometry = st.tuples(coord, coord, radius)
pick = st.integers(0, 63)
commit = st.booleans()

step = st.one_of(
    st.tuples(st.just("birth"), geometry, commit),
    st.tuples(st.just("death"), pick, commit),
    st.tuples(st.just("translate"), pick,
              st.sampled_from((-3.0, -1.25, 0.0, 0.5, 2.75, 3.0)),
              st.sampled_from((-3.0, -0.75, 0.0, 1.5, 3.0)), commit),
    st.tuples(st.just("resize"), pick, st.sampled_from((-1.5, -0.5, 0.0, 0.75, 1.5)), commit),
    st.tuples(st.just("replace"), pick, geometry, commit),
    st.tuples(st.just("merge"), pick, pick, geometry, commit),
    st.tuples(st.just("add"), geometry),
    st.tuples(st.just("remove"), pick),
    st.tuples(st.just("counts_only"), geometry),
    st.tuples(st.just("reset")),
    st.tuples(st.just("reweight")),
)


def _trial_ops(kind, args, live):
    """The (sign, x, y, r) trial ops of one move over the live discs, or
    ``None`` when the move cannot be formed."""
    if kind == "birth":
        return [(1, *args[0])]
    if not live:
        return None
    g = live[args[0] % len(live)]
    if kind == "death":
        return [(-1, *g)]
    if kind == "translate":
        return [(-1, *g), (1, g[0] + args[1], g[1] + args[2], g[2])]
    if kind == "resize":
        return [(-1, *g), (1, g[0], g[1], g[2] + args[1])]
    if kind == "replace":
        return [(-1, *g), (1, *args[1])]
    # merge: two distinct live discs out, one in
    if len(live) < 2:
        return None
    i = args[0] % len(live)
    j = (i + 1 + args[1] % (len(live) - 1)) % len(live)
    return [(-1, *live[i]), (-1, *live[j]), (1, *args[2])]


def _price(raster, ops, weights):
    deltas = []
    for sign, x, y, r in ops:
        if sign > 0:
            deltas.append(raster.trial_add_disc(x, y, r, weights))
        else:
            deltas.append(raster.trial_remove_disc(x, y, r, weights))
    return deltas


def _pending(raster):
    return [(op.row0, op.row1, op.col0, op.col1, op.sign, op.mask.copy())
            for op in raster._pending]


def _same_pending(a, b):
    return len(a) == len(b) and all(
        x[:5] == y[:5] and np.array_equal(x[5], y[5]) for x, y in zip(a, b)
    )


class TestCoverageRemovalCache:
    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(step, max_size=40))
    def test_cache_is_invisible(self, steps):
        """Random interleavings of trial moves (committed or discarded)
        and every non-trial mutator: each priced delta and mask equals
        that of a fresh raster holding the same counts, and the cache
        never outgrows the live geometries."""
        cov = CoverageRaster(H, W, row_offset=ROW_OFFSET, col_offset=COL_OFFSET)
        live = []  # committed disc geometries (a multiset)
        w = 0
        for kind, *args in steps:
            weights = WEIGHTS[w]
            ops = _trial_ops(kind, args, live) if kind in (
                "birth", "death", "translate", "resize", "replace", "merge") else None
            if ops is not None:
                if any(r <= 0.0 for _, _, _, r in ops):
                    continue
                fresh = CoverageRaster(H, W, row_offset=ROW_OFFSET, col_offset=COL_OFFSET)
                fresh.counts[:] = cov.counts
                got = _price(cov, ops, weights)
                want = _price(fresh, ops, weights)
                assert got == want  # bitwise
                assert _same_pending(_pending(cov), _pending(fresh))
                fresh.discard_pending()
                if args[-1]:
                    cov.commit_pending()
                    for sign, x, y, r in ops:
                        if sign > 0:
                            live.append((x, y, r))
                        else:
                            live.remove((x, y, r))
                else:
                    cov.discard_pending()
            elif kind == "add":
                cov.add_disc(*args[0], weights)
                live.append(args[0])
            elif kind == "remove" and live:
                g = live.pop(args[0] % len(live))
                cov.remove_disc(*g, weights)
            elif kind == "counts_only":
                cov.add_disc_counts_only(*args[0])
                live.append(args[0])
            elif kind == "reset":
                cov.reset(H, W, row_offset=ROW_OFFSET, col_offset=COL_OFFSET)
                live.clear()
            elif kind == "reweight":
                w = 1 - w
            assert len(cov._removals) <= len(set(live))
            rebuilt = CoverageRaster(H, W, row_offset=ROW_OFFSET, col_offset=COL_OFFSET)
            for g in live:
                rebuilt.add_disc_counts_only(*g)
            assert np.array_equal(cov.counts, rebuilt.counts)

    def test_repeat_removal_rasterises_nothing(self, monkeypatch):
        cov = CoverageRaster(H, W)
        weights = WEIGHTS[0]
        cov.add_disc(15.0, 14.0, 5.0, weights)
        cov.add_disc(19.0, 12.0, 4.0, weights)
        first = cov.trial_remove_disc(15.0, 14.0, 5.0, weights)
        cov.discard_pending()

        def forbidden(*args, **kwargs):
            raise AssertionError("rasterised a cached removal")

        monkeypatch.setattr(CoverageRaster, "_removal_entry", forbidden)
        monkeypatch.setattr(CoverageRaster, "_disc_mask", forbidden)
        for _ in range(3):
            assert cov.trial_remove_disc(15.0, 14.0, 5.0, weights) == first
            # Concentric add: cut from the cached grid, not a new window.
            cov.trial_add_disc(15.0, 14.0, 5.75, weights)
            cov.discard_pending()

    def test_commit_invalidates_touched_entries_only(self):
        cov = CoverageRaster(60, 60)
        weights = np.ones((60, 60))
        cov.add_disc(10.0, 10.0, 4.0, weights)
        cov.add_disc(14.0, 10.0, 4.0, weights)
        cov.add_disc(50.0, 50.0, 4.0, weights)
        for g in ((10.0, 10.0, 4.0), (50.0, 50.0, 4.0)):
            cov.trial_remove_disc(*g, weights)
            cov.discard_pending()
        near = cov._removals[(10.0, 10.0, 4.0)]
        far = cov._removals[(50.0, 50.0, 4.0)]
        assert near.vacated is not None and far.vacated is not None
        # Accept a translate of the disc at (14, 10): it touches the
        # grown window around (10, 10) but not the one around (50, 50).
        cov.trial_remove_disc(14.0, 10.0, 4.0, weights)
        cov.trial_add_disc(16.0, 11.0, 4.0, weights)
        cov.commit_pending()
        assert near.vacated is None and not near.post_valid
        assert far.vacated is not None
        assert (14.0, 10.0, 4.0) not in cov._removals  # removed geometry evicted
        assert len(cov._removals) == 2

    @pytest.mark.parametrize("mutate", [
        "commit_pending", "add_disc", "remove_disc",
        "add_disc_counts_only", "rebuild_from", "reset",
    ])
    def test_every_counts_mutator_invalidates(self, mutate):
        """Fill the cache for disc A, change the counts under it through
        one mutator, and price A again: the answer is the fresh one."""
        weights = WEIGHTS[0]
        a, b, c = (15.0, 14.0, 5.0), (18.0, 15.0, 4.0), (12.0, 11.0, 3.0)
        far = (30.0, 3.0, 2.0)
        cov = CoverageRaster(H, W)
        for g in (a, b):
            cov.add_disc(*g, weights)
        before = cov.trial_remove_disc(*a, weights)
        cov.discard_pending()
        if mutate == "commit_pending":
            cov.trial_add_disc(*c, weights)
            cov.commit_pending()
        elif mutate == "add_disc":
            cov.add_disc(*c, weights)
        elif mutate == "remove_disc":
            cov.remove_disc(*b, weights)
        elif mutate == "add_disc_counts_only":
            cov.add_disc_counts_only(*c)
        elif mutate == "rebuild_from":
            cov.rebuild_from(*zip(far))  # nothing near A: only a full clear sees it
        else:
            cov.reset(H, W)
            cov.add_disc(*far, weights)
        fresh = CoverageRaster(H, W)
        fresh.counts[:] = cov.counts
        after = cov.trial_remove_disc(*a, weights)
        assert after == fresh.trial_remove_disc(*a, weights)
        assert after != before  # the mutation did move A's price

    def test_underflow_guard_runs_on_a_cache_hit(self):
        cov = CoverageRaster(H, W, debug_checks=True)
        weights = WEIGHTS[0]
        cov.add_disc(15.0, 14.0, 5.0, weights)
        cov.trial_remove_disc(15.0, 14.0, 5.0, weights)
        cov.discard_pending()
        assert cov._removals[(15.0, 14.0, 5.0)].vacated is not None
        cov.counts[14, 15] = 0  # corrupt the state behind the cache's back
        with pytest.raises(ChainError, match="underflow"):
            cov.trial_remove_disc(15.0, 14.0, 5.0, weights)

    def test_cache_is_not_pickled(self):
        import pickle

        cov = CoverageRaster(H, W)
        cov.add_disc(15.0, 14.0, 5.0, WEIGHTS[0])
        cov.trial_remove_disc(15.0, 14.0, 5.0, WEIGHTS[0])
        cov.discard_pending()
        clone = pickle.loads(pickle.dumps(cov))
        assert len(cov._removals) == 1 and len(clone._removals) == 0
        assert clone.trial_remove_disc(15.0, 14.0, 5.0, WEIGHTS[0]) == \
            cov.trial_remove_disc(15.0, 14.0, 5.0, WEIGHTS[0])


# -- posterior: overlap-energy cache and crowded-scene parity -----------------

CROWDED = SceneSpec(width=48, height=48, n_circles=12, mean_radius=9.0, radius_std=0.5)


def _crowded_circles():
    """Twelve r≈9 discs 12 px apart on a 4×3 grid: most have three or
    more overlapping partners (the set-order hazard's regime)."""
    rng = np.random.default_rng(3)
    return [
        Circle(6.0 + 12.0 * i + rng.uniform(-1, 1), 8.0 + 14.0 * j + rng.uniform(-1, 1),
               9.0 + rng.uniform(-0.5, 0.5))
        for j in range(3) for i in range(4)
    ]


@pytest.fixture(scope="module")
def crowded():
    image = render_scene(CROWDED, _crowded_circles(), seed=5)
    spec = ModelSpec(width=48, height=48, expected_count=12.0, radius_mean=9.0,
                     radius_std=1.0, radius_min=4.0, radius_max=12.0,
                     overlap_gamma=0.01)
    return image, spec


def _crowded_chain(crowded, seed):
    image, spec = crowded
    post = PosteriorState(image, spec)
    post.load_circles(_crowded_circles())
    return MarkovChain(post, MoveGenerator(spec, MoveConfig()), seed=seed, record_every=25)


def _check_served_energies(monkeypatch):
    """Make every removal energy the posterior serves assert that it
    equals a fresh ``circle_energy`` at that moment; returns the lists
    the checks fill: one cache-hit flag per call, and the partner count
    of every energy actually evaluated."""
    hits, partners = [], []
    original = PosteriorState._overlap_energy
    original_count = OverlapPrior.energy_and_partners

    def checked(self, x, y, r, exclude, first):
        hits.append(first and (x, y, r) in self._removal_energy)
        value = original(self, x, y, r, exclude, first)
        fresh = self.overlap_prior.circle_energy(self.config, x, y, r, exclude=exclude)
        assert value == fresh, (x, y, r, exclude, first)
        return value

    def counted(self, *args, **kwargs):
        out = original_count(self, *args, **kwargs)
        partners.append(out[1])
        return out

    monkeypatch.setattr(PosteriorState, "_overlap_energy", checked)
    monkeypatch.setattr(OverlapPrior, "energy_and_partners", counted)
    return hits, partners


def test_served_energies_are_exact_in_a_crowded_scene(crowded, monkeypatch):
    """Three or more overlapping partners: the regime where spatial-hash
    set order after a rollback can move a sum's last ulp."""
    hits, partners = _check_served_energies(monkeypatch)
    _crowded_chain(crowded, seed=41).run(3_000)
    assert sum(hits) > 100  # the cache was actually used
    assert max(partners) >= 3


@pytest.mark.parametrize("mutate", [
    "insert_circle", "delete_circle", "move_circle", "resize_circle",
    "load_circles", "commit_trial",
])
def test_every_configuration_mutator_clears_energies(small_filtered, small_spec, mutate):
    """Cache A's removal energy, change its neighbourhood through one
    mutator, and price it again: the answer is the fresh one."""
    post = PosteriorState(small_filtered, small_spec)
    ctx = MoveGenerator(small_spec, MoveConfig()).ctx
    a, _ = post.insert_circle(30.0, 30.0, 6.0)
    b, _ = post.insert_circle(36.0, 33.0, 5.0)
    death = DeathMove(a, ctx)
    death.price(post)
    death.rollback(post)
    before = post._removal_energy[(30.0, 30.0, 6.0)]
    if mutate == "insert_circle":
        post.insert_circle(33.0, 26.0, 4.0)
    elif mutate == "delete_circle":
        post.delete_circle(b)
    elif mutate == "move_circle":
        post.move_circle(b, 38.0, 34.0)
    elif mutate == "resize_circle":
        post.resize_circle(b, 6.5)
    elif mutate == "load_circles":
        post.load_circles([Circle(33.0, 26.0, 4.0)])
    else:
        move_b = TranslateMove(b, 38.0, 34.0)
        move_b.price(post)
        move_b.commit(post)
    fresh = post.overlap_prior.circle_energy(post.config, 30.0, 30.0, 6.0, exclude=(a,))
    assert post._overlap_energy(30.0, 30.0, 6.0, (a,), True) == fresh
    assert fresh != before  # the mutation did change A's energy


@pytest.mark.parametrize("seed", [5, 29])
def test_crowded_chain_matches_legacy_kernel(crowded, seed):
    trial = _crowded_chain(crowded, seed)
    result_t = trial.run(4_000)
    with legacy_kernel():
        ref = _crowded_chain(crowded, seed)
        result_r = ref.run(4_000)
    assert result_t.final_circles == result_r.final_circles
    assert result_t.posterior_trace.values == result_r.posterior_trace.values
    assert result_t.count_trace.values == result_r.count_trace.values
    assert result_t.stats.accepted == result_r.stats.accepted
    assert trial.post.log_posterior == ref.post.log_posterior
    trial.post.verify_consistency()
