import numpy as np
import pytest

from latentkrig import (
    EnsembleFit,
    Partition,
    SimConfig,
    aggregate_fit,
    aggregate_over_partitions,
    assign_blocks,
    divide_and_conquer_fit,
    enumerate_partitions,
    fit_factors,
    fit_members,
    load_ensemble,
    resolve_tau,
    save_ensemble,
    simulate,
)
from latentkrig._util import member_seeds
from latentkrig.errors import BlockTooLarge

from conftest import rank_k_frame


# ---- seed derivation ----

def test_member_seeds_deterministic_and_distinct():
    a = member_seeds(7, 16)
    b = member_seeds(7, 16)
    assert a == b
    assert len(set(a)) == 16
    assert member_seeds(8, 16) != a
    assert member_seeds(7, 0) == []
    with pytest.raises(ValueError):
        member_seeds(7, -1)


# ---- enumeration ----

def test_enumerate_partitions_counts():
    parts = enumerate_partitions(4)
    assert len(parts) == 6  # C(4, 2), labeled
    seen = {(p.set1, p.set2) for p in parts}
    assert len(seen) == 6
    for part in parts:
        assert len(part.set1) == 2
        assert sorted(part.set1 + part.set2) == [0, 1, 2, 3]
    assert len(enumerate_partitions(6)) == 20
    with pytest.raises(ValueError):
        enumerate_partitions(3)
    with pytest.raises(ValueError):
        enumerate_partitions(18)


def test_aggregation_never_worse_per_cell():
    # convexity: against any reference panel, the aggregated field's
    # squared deviation is at most the member average, cell by cell
    draw = simulate(SimConfig(n=10, p=4, seed=77))
    frame = draw.frame
    parts = enumerate_partitions(4)
    fits = fit_members(frame, parts, tau=0.0, p_star=2)
    ens = aggregate_over_partitions(frame, parts, tau=0.0, p_star=2)
    member_stack = np.stack([f.xi_hat for f in fits])
    np.testing.assert_allclose(ens.xi_tilde, member_stack.mean(axis=0),
                               atol=1e-14)
    for reference in (frame.obs, draw.xi):
        agg_sq = (ens.xi_tilde - reference) ** 2
        mean_sq = np.mean((member_stack - reference) ** 2, axis=0)
        assert np.all(agg_sq <= mean_sq + 1e-12)


def test_fit_members_read_keeps_only_what_it_returns():
    frame, *_ = rank_k_frame(40, 8, k=1, seed=12, noise=0.3)
    parts = enumerate_partitions(8)[:5]
    fits = fit_members(frame, parts, tau=0.0, p_star=3)
    for workers in (1, 3):
        read = fit_members(frame, parts, tau=0.0, p_star=3, workers=workers,
                           read=lambda fit: (fit.d_hat, fit.xi_hat[-1]))
        assert [d for d, _ in read] == [f.d_hat for f in fits]
        for (_, last), fit in zip(read, fits):
            assert last.tobytes() == fit.xi_hat[-1].tobytes()


# ---- aggregate_fit ----

def test_aggregate_fit_j1_is_single_fit():
    frame, *_ = rank_k_frame(40, 10, k=2, seed=21, noise=0.4)
    ens = aggregate_fit(frame, J=1, tau_policy=0.0, p_star=4, rng_seed=5)
    from latentkrig import random_partition
    part = random_partition(10, member_seeds(5, 1)[0])
    fit = fit_factors(frame, part, 0.0, p_star=4)
    np.testing.assert_array_equal(ens.xi_tilde, fit.xi_hat)
    assert ens.d_hats == (fit.d_hat,)
    assert np.all(ens.per_location_counts == 1)


def test_aggregate_fit_worker_invariance():
    frame, *_ = rank_k_frame(40, 12, k=2, seed=22, noise=0.4)
    one = aggregate_fit(frame, J=6, tau_policy=0.0, p_star=4, rng_seed=9,
                        workers=1)
    four = aggregate_fit(frame, J=6, tau_policy=0.0, p_star=4, rng_seed=9,
                         workers=4)
    np.testing.assert_array_equal(one.xi_tilde, four.xi_tilde)
    assert one.d_hats == four.d_hats
    assert one.member_seeds == four.member_seeds
    assert np.all(one.per_location_counts == 6)


def test_aggregate_fit_guards():
    frame, *_ = rank_k_frame(30, 8, k=1, seed=23, noise=0.2)
    with pytest.raises(ValueError):
        aggregate_fit(frame, J=0)
    with pytest.raises(ValueError):
        aggregate_over_partitions(frame, [], tau=0.0)


# ---- tau policy ----

def test_resolve_tau_passthrough_and_guards():
    frame, *_ = rank_k_frame(30, 8, k=1, seed=24, noise=0.2)
    assert resolve_tau(frame, 0.75, rng_seed=0) == 0.75
    with pytest.raises(ValueError):
        resolve_tau(frame, -1.0, rng_seed=0)
    with pytest.raises(ValueError):
        resolve_tau(frame, "cv-twice", rng_seed=0)


def test_resolve_tau_cv_once_returns_grid_member():
    frame, *_ = rank_k_frame(40, 20, k=2, seed=25, noise=0.5)
    tau = resolve_tau(frame, "cv-once", rng_seed=3)
    from latentkrig.simbench import default_tau_grid
    assert tau in default_tau_grid()
    assert resolve_tau(frame, "cv-once", rng_seed=3) == tau


# ---- divide and conquer ----

def test_assign_blocks():
    blocks = assign_blocks(10, 3, rng_seed=1)
    assert len(blocks) == 4  # ceil(10/3)
    flat = sorted(i for b in blocks for i in b)
    assert flat == list(range(10))
    assert all(len(b) <= 3 for b in blocks)
    assert assign_blocks(10, 3, rng_seed=1) == blocks
    with pytest.raises(BlockTooLarge):
        assign_blocks(10, 6, rng_seed=1)  # 2q > p
    with pytest.raises(BlockTooLarge):
        assign_blocks(10, 1, rng_seed=1)


def test_divide_and_conquer_counts_and_determinism():
    frame, *_ = rank_k_frame(50, 12, k=2, seed=26, noise=0.4)
    dc1 = divide_and_conquer_fit(frame, q=4, J=3, tau_policy=0.0,
                                 rng_seed=11, p_star=3, workers=1)
    dc3 = divide_and_conquer_fit(frame, q=4, J=3, tau_policy=0.0,
                                 rng_seed=11, p_star=3, workers=3)
    assert np.all(dc1.per_location_counts == 3)
    assert len(dc1.d_hats) == 9  # 3 blocks x 3 rounds
    np.testing.assert_array_equal(dc1.xi_tilde, dc3.xi_tilde)


def test_divide_and_conquer_two_block_identity():
    # p = 2q leaves exactly two blocks and no sampling freedom: every
    # companion draw returns the full complement, so the block scheme
    # collapses to the single split (block 0 | block 1)
    draw = simulate(SimConfig(n=120, p=16, seed=5))
    frame = draw.frame
    q = 8
    dc = divide_and_conquer_fit(frame, q=q, J=3, tau_policy=0.0, rng_seed=21)
    assert np.all(dc.per_location_counts == 3)
    blocks = assign_blocks(16, q, rng_seed=21)
    # the same two sets as one labeled partition of the full frame
    order = list(blocks[0]) + list(blocks[1])
    sub = frame.subframe(order)
    part = Partition(set1=tuple(range(q)), set2=tuple(range(q, 16)))
    fit = fit_factors(sub, part, tau=0.0)
    xi = np.empty_like(fit.xi_hat)
    xi[:, order] = fit.xi_hat
    np.testing.assert_allclose(dc.xi_tilde, xi, atol=1e-12)


# ---- EnsembleFit contract ----

def test_ensemble_fit_validation():
    xi = np.zeros((4, 3))
    counts = np.array([2, 2, 2])
    EnsembleFit(J=2, member_seeds=(1, 2), xi_tilde=xi,
                per_location_counts=counts, d_hats=(1, 1), tau=0.0)
    with pytest.raises(ValueError):
        EnsembleFit(J=0, member_seeds=(), xi_tilde=xi,
                    per_location_counts=counts, d_hats=(), tau=0.0)
    with pytest.raises(ValueError):
        EnsembleFit(J=2, member_seeds=(1, 2), xi_tilde=xi,
                    per_location_counts=np.array([2, 2]), d_hats=(1, 1),
                    tau=0.0)
    with pytest.raises(ValueError):
        EnsembleFit(J=2, member_seeds=(1, 2), xi_tilde=xi,
                    per_location_counts=np.array([2, 0, 2]), d_hats=(1, 1),
                    tau=0.0)


def test_ensemble_save_load_round_trip(tmp_path):
    frame, *_ = rank_k_frame(30, 8, k=1, seed=27, noise=0.3)
    ens = aggregate_fit(frame, J=4, tau_policy=0.5, p_star=3, rng_seed=2)
    path = tmp_path / "ens.json"
    save_ensemble(ens, path, locations=frame.locations)
    back, locs = load_ensemble(path)
    assert locs is not None and locs.ids == frame.locations.ids
    assert back.J == 4 and back.tau == 0.5
    assert back.member_seeds == ens.member_seeds
    assert back.d_hats == ens.d_hats
    np.testing.assert_array_equal(back.xi_tilde, ens.xi_tilde)
    np.testing.assert_array_equal(back.per_location_counts,
                                  ens.per_location_counts)
