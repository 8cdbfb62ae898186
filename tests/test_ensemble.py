import json

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
    fit_factors,
    forecast,
    forecast_ensemble,
    load_ensemble,
    load_fit,
    random_partition,
    save_ensemble,
    save_fit,
    simulate,
)
from latentkrig import ensemble
from latentkrig._util import member_seeds
from latentkrig.ensemble import (_fit_members, _mean_in_order,
                                 ensemble_to_document)
from latentkrig.factors import fit_to_document
from latentkrig.errors import BlockTooLarge, ParseError

from conftest import rank_k_frame
from oracles import enumerate_partitions


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
    fits = _fit_members(frame, parts, tau=0.0, p_star=2)
    ens = aggregate_over_partitions(frame, parts, tau=0.0, p_star=2)
    member_stack = np.stack([f.xi_hat for f in fits])
    np.testing.assert_allclose(ens.xi_tilde, member_stack.mean(axis=0),
                               atol=1e-14)
    for reference in (frame.obs, draw.xi):
        agg_sq = (ens.xi_tilde - reference) ** 2
        mean_sq = np.mean((member_stack - reference) ** 2, axis=0)
        assert np.all(agg_sq <= mean_sq + 1e-12)


def test_fit_members_form_no_readouts(monkeypatch):
    frame, *_ = rank_k_frame(40, 8, k=1, seed=12, noise=0.3)
    parts = enumerate_partitions(8)[:5]
    want = [fit_factors(frame, part, 0.0, p_star=3) for part in parts]
    for workers in ("1", "3"):
        monkeypatch.setenv("LATENT_KRIG_THREADS", workers)
        fits = list(_fit_members(frame, parts, tau=0.0, p_star=3))
        for fit, w in zip(fits, want):
            assert not {"x_hat", "x_star_hat", "xi_hat"} & set(vars(fit))
            assert fit.d_hat == w.d_hat
            assert fit.xi_hat.tobytes() == w.xi_hat.tobytes()


def test_members_are_fitted_as_they_are_read(monkeypatch):
    import latentkrig.ensemble as ensemble
    frame, *_ = rank_k_frame(40, 8, k=1, seed=12, noise=0.3)
    parts = enumerate_partitions(8)[:4]
    fits = list(_fit_members(frame, parts, tau=0.0, p_star=3))
    calls = []
    real = ensemble.fit_factors
    monkeypatch.setattr(ensemble, "fit_factors",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    monkeypatch.setenv("LATENT_KRIG_THREADS", "1")
    members = _fit_members(frame, parts, tau=0.0, p_star=3)
    assert calls == []
    assert next(members).xi_hat.tobytes() == fits[0].xi_hat.tobytes()
    assert len(calls) == 1
    total = np.zeros_like(fits[0].xi_hat)
    for fit in fits:
        total += fit.xi_hat
    for workers in ("1", "3"):
        monkeypatch.setenv("LATENT_KRIG_THREADS", workers)
        ens = aggregate_over_partitions(frame, parts, tau=0.0, p_star=3)
        assert ens.xi_tilde.tobytes() == (total / 4).tobytes()
        assert ens.d_hats == tuple(f.d_hat for f in fits)


def test_fit_members_site_pairs_fit_the_subframe(monkeypatch):
    frame = simulate(SimConfig(n=50, p=20, seed=8)).frame
    sites = [13, 2, 7, 19, 0, 5, 11, 16, 3, 9]
    members = [(sites, random_partition(10, s)) for s in (1, 2, 3)]
    want = [fit_factors(frame.subframe(sites), part, 0.4, k0=1)
            for _, part in members]
    for workers in ("1", "3"):
        monkeypatch.setenv("LATENT_KRIG_THREADS", workers)
        got = list(_fit_members(frame, members, 0.4, k0=1))
        for g, w in zip(got, want):
            assert g.partition == w.partition and g.d_hat == w.d_hat
            for name in ("A1_hat", "A2_hat", "x_hat", "x_star_hat",
                         "eigenvalues", "xi_hat"):
                assert getattr(g, name).tobytes() == getattr(w, name).tobytes()


def test_mean_in_order_is_the_stacked_mean():
    rng = np.random.default_rng(3)
    for J in (1, 2, 7, 50):
        fields = [rng.standard_normal((6, 5)) for _ in range(J)]
        kept = [f.copy() for f in fields]
        mean = _mean_in_order(iter(fields))
        assert mean.tobytes() == np.mean(np.stack(fields), axis=0).tobytes()
        # the inputs are read, never written
        assert all(np.array_equal(f, k) for f, k in zip(fields, kept))


# ---- aggregate_fit ----

def test_aggregate_fit_j1_is_single_fit():
    frame, *_ = rank_k_frame(40, 10, k=2, seed=21, noise=0.4)
    ens = aggregate_fit(frame, J=1, tau=0.0, p_star=4, rng_seed=5)
    from latentkrig import random_partition
    part = random_partition(10, member_seeds(5, 1)[0])
    fit = fit_factors(frame, part, 0.0, p_star=4)
    np.testing.assert_array_equal(ens.xi_tilde, fit.xi_hat)
    assert ens.d_hats == (fit.d_hat,)
    assert np.all(ens.per_location_counts == 1)


def test_ensemble_members_keep_no_field():
    import tracemalloc
    frame = simulate(SimConfig(n=320, p=200, seed=1)).frame
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ens = aggregate_fit(frame, J=50, tau=0.0, rng_seed=1)
        xi_tilde = ens.xi_tilde
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    memo = sum(v.nbytes for v in frame._memo._values.values())
    # 50 members keep partitions, loadings and spectra, about 0.4 MiB; a
    # member that cached its n x p field would hold 0.5 MiB more each
    assert len(ens.members) == 50
    assert held - xi_tilde.nbytes - memo <= 4 * 2 ** 20
    assert all("xi_hat" not in vars(m) for m in ens.members)


def test_aggregate_fit_worker_invariance(monkeypatch):
    frame, *_ = rank_k_frame(40, 12, k=2, seed=22, noise=0.4)
    monkeypatch.setenv("LATENT_KRIG_THREADS", "1")
    one = aggregate_fit(frame, J=6, tau=0.0, p_star=4, rng_seed=9)
    monkeypatch.setenv("LATENT_KRIG_THREADS", "4")
    four = aggregate_fit(frame, J=6, tau=0.0, p_star=4, rng_seed=9)
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


@pytest.mark.parametrize("call", [
    lambda frame: aggregate_fit(frame, J=0),
    lambda frame: aggregate_fit(frame, J=2, tau=float("nan")),
    lambda frame: forecast_ensemble(frame, 0, 1, 0),
    lambda frame: forecast_ensemble(frame, 2, 1, 0, tau=float("nan")),
    lambda frame: forecast_ensemble(frame, 2, 1, 0, tau=-1.0),
], ids=["aggregate-J", "aggregate-tau", "forecast-J", "forecast-tau-nan",
        "forecast-tau-negative"])
def test_seeded_ensembles_check_before_fitting(monkeypatch, call):
    frame, *_ = rank_k_frame(30, 8, k=1, seed=25, noise=0.2)
    calls = []
    monkeypatch.setattr(ensemble, "fit_factors", lambda *a, **k:
                        calls.append(1) or fit_factors(*a, **k))
    with pytest.raises(ValueError):
        call(frame)
    assert calls == []


# ---- tau ----

def test_ensemble_tau_passthrough_and_guards():
    frame, *_ = rank_k_frame(30, 8, k=1, seed=24, noise=0.2)
    ens = aggregate_fit(frame, J=2, tau=1, p_star=4)
    assert type(ens.tau) is float and ens.tau == 1.0
    assert divide_and_conquer_fit(frame, q=4, J=2, tau=0.75,
                                  p_star=4).tau == 0.75
    for tau in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tau must be finite and >= 0"):
            aggregate_fit(frame, J=2, tau=tau)
        with pytest.raises(ValueError, match="tau must be finite and >= 0"):
            divide_and_conquer_fit(frame, q=4, J=2, tau=tau)


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


def test_divide_and_conquer_counts_and_determinism(monkeypatch):
    frame, *_ = rank_k_frame(50, 12, k=2, seed=26, noise=0.4)
    monkeypatch.setenv("LATENT_KRIG_THREADS", "1")
    dc1 = divide_and_conquer_fit(frame, q=4, J=3, tau=0.0,
                                 rng_seed=11, p_star=3)
    monkeypatch.setenv("LATENT_KRIG_THREADS", "3")
    dc3 = divide_and_conquer_fit(frame, q=4, J=3, tau=0.0,
                                 rng_seed=11, p_star=3)
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
    dc = divide_and_conquer_fit(frame, q=q, J=3, tau=0.0, rng_seed=21)
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


def _old_divide_and_conquer(frame, q, J, tau, rng_seed, k0):
    """divide_and_conquer_fit as a per-task loop summing from zero, the
    way it ran before it went through _fit_members."""
    blocks = assign_blocks(frame.p, q, rng_seed)
    seeds = member_seeds(rng_seed, 1 + len(blocks) * J)
    total = np.zeros((frame.n, frame.p))
    counts = np.zeros(frame.p, dtype=np.int64)
    d_hats = []
    for b, block in enumerate(blocks):
        complement = np.setdiff1d(np.arange(frame.p),
                                  np.asarray(block, dtype=np.int64))
        for r in range(J):
            rng = np.random.default_rng(seeds[1 + b * J + r])
            companions = np.sort(rng.choice(complement, size=q, replace=False))
            sub_idx = list(block) + [int(i) for i in companions]
            part = Partition(set1=tuple(range(len(block))),
                             set2=tuple(range(len(block), len(sub_idx))))
            fit = fit_factors(frame.subframe(sub_idx), part, tau, k0=k0)
            total[:, list(block)] += fit.xi_hat[:, :len(block)]
            counts[list(block)] += 1
            d_hats.append(fit.d_hat)
    return total / J, counts, tuple(d_hats), tuple(seeds)


def _old_forecast_average(frame, J, j, j0, tau, k0, rng_seed):
    """forecast_ensemble as the mean of the stacked member predictions."""
    parts = [random_partition(frame.p, s) for s in member_seeds(rng_seed, J)]
    preds = [forecast(frame, fit_factors(frame, part, tau, k0=k0), j, j0)
             for part in parts]
    return np.mean(np.stack(preds, axis=0), axis=0)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("q, J, tau, k0", [(6, 4, 0.0, 0), (5, 3, 0.7, 1)],
                         ids=["blocks-of-5-below-q", "k0-1-tau-0.7"])
def test_member_engine_matches_the_old_loops(monkeypatch, workers, q, J, tau, k0):
    monkeypatch.setenv("LATENT_KRIG_THREADS", str(workers))
    frame = simulate(SimConfig(n=60, p=20, seed=4)).frame
    dc = divide_and_conquer_fit(frame, q=q, J=J, tau=tau, rng_seed=5, k0=k0)
    xi, counts, d_hats, seeds = _old_divide_and_conquer(frame, q, J, tau, 5, k0)
    assert {len(b) for b in assign_blocks(20, q, 5)} == {5}
    assert dc.xi_tilde.tobytes() == xi.tobytes()
    assert dc.per_location_counts.tobytes() == counts.tobytes()
    assert (dc.d_hats, dc.member_seeds) == (d_hats, seeds)
    for members, j in ((J, [1, 2, 3]), (J, 2), (1, [1, 2])):
        got = forecast_ensemble(frame, members, j, 4, tau=tau, k0=k0,
                                rng_seed=7)
        want = _old_forecast_average(frame, members, j, 4, tau, k0, 7)
        assert got.tobytes() == want.tobytes()


def test_divide_and_conquer_fails_on_a_missed_site(monkeypatch):
    import latentkrig.ensemble as ensemble
    frame = simulate(SimConfig(n=60, p=20, seed=4)).frame
    real = ensemble.assign_blocks
    monkeypatch.setattr(ensemble, "assign_blocks",
                        lambda *a: [b[1:] if k == 0 else b
                                    for k, b in enumerate(real(*a))])
    with pytest.raises(AssertionError, match="every location J times"):
        divide_and_conquer_fit(frame, q=5, J=2, rng_seed=5)


# ---- EnsembleFit contract ----

def test_ensemble_fit_validation():
    # an ensemble averages J members at every site, so the counts are
    # derived from J and cannot be passed in; it keeps all J members, or
    # none and a stored field
    frame, *_ = rank_k_frame(30, 8, k=1, seed=23, noise=0.2)
    fits = tuple(fit_factors(frame, random_partition(8, s), 0.0, p_star=3)
                 for s in (1, 2))
    ens = EnsembleFit(J=2, member_seeds=(1, 2), d_hats=(1, 1), tau=0.0,
                      members=fits)
    assert ens.per_location_counts.tolist() == [2] * 8
    with pytest.raises(AttributeError):
        ens.per_location_counts = np.array([2, 0, 2])
    with pytest.raises(TypeError, match="per_location_counts"):
        EnsembleFit(J=2, member_seeds=(1, 2), d_hats=(1, 1), tau=0.0,
                    per_location_counts=np.array([2, 2, 2]))
    with pytest.raises(TypeError, match="xi_tilde"):
        EnsembleFit(J=2, member_seeds=(1, 2), d_hats=(1, 1), tau=0.0,
                    xi_tilde=np.zeros((4, 3)))
    with pytest.raises(ValueError, match="J must be >= 1"):
        EnsembleFit(J=0, member_seeds=(), d_hats=(), tau=0.0)
    with pytest.raises(ValueError, match="all J members or none"):
        EnsembleFit(J=3, member_seeds=(), d_hats=(1, 1), tau=0.0, members=fits)
    stored = EnsembleFit(J=2, member_seeds=(1, 2), d_hats=(1, 1), tau=0.0)
    with pytest.raises(ValueError, match="stored xi_tilde"):
        stored.xi_tilde
    stored.xi_tilde = np.zeros((4, 3))
    assert stored.per_location_counts.tolist() == [2, 2, 2]
    for got in (aggregate_fit(frame, J=3, p_star=3),
                divide_and_conquer_fit(frame, q=4, J=3, p_star=2)):
        assert got.per_location_counts.dtype == np.int64
        assert got.per_location_counts.tolist() == [3] * 8


def test_ensemble_save_load_round_trip(tmp_path):
    frame, *_ = rank_k_frame(30, 8, k=1, seed=27, noise=0.3)
    ens = aggregate_fit(frame, J=4, tau=0.5, p_star=3, rng_seed=2)
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


def test_ensemble_document_counts_must_be_j_everywhere(tmp_path):
    frame, *_ = rank_k_frame(30, 8, k=1, seed=27, noise=0.3)
    doc = ensemble_to_document(aggregate_fit(frame, J=2, tau=0.0))
    path = tmp_path / "ens.json"
    for counts in ([2] * 7 + [1], [2] * 7, [3] * 8, "2"):
        path.write_text(json.dumps({**doc, "per_location_counts": counts}))
        with pytest.raises(ParseError) as info:
            load_ensemble(path)
        assert str(info.value) == (f"{path}: per_location_counts must be "
                                   f"J=2 at every site")


def test_model_loaders_check_the_document_kind(tmp_path):
    frame, *_ = rank_k_frame(30, 8, k=1, seed=27, noise=0.3)
    ens_path, other = tmp_path / "ens.json", tmp_path / "other.json"
    doc = ensemble_to_document(aggregate_fit(frame, J=2, tau=0.0))
    ens_path.write_text(json.dumps(doc))
    other.write_text(json.dumps({**doc, "format": "latentkrig-frame"}))
    for loader, path, want in (
            (load_fit, ens_path, "latentkrig-fit"),
            (load_ensemble, other, "latentkrig-fit or latentkrig-ensemble")):
        with pytest.raises(ParseError) as info:
            loader(path)
        assert str(info.value) == f"{path}: expected a {want} document"


def test_load_ensemble_reads_a_fit_document_as_an_ensemble_of_one(tmp_path):
    frame, *_ = rank_k_frame(80, 10, k=2, seed=56, noise=0.5)
    path = tmp_path / "fit.json"
    save_fit(fit_factors(frame, random_partition(10, 4), 0.5, p_star=4), path,
             frame.locations)
    fit, fit_locs = load_fit(path)
    ens, locs = load_ensemble(path)
    assert (ens.J, ens.member_seeds, ens.d_hats, ens.tau) == (
        1, (), (fit.d_hat,), 0.5)
    assert locs.ids == fit_locs.ids and len(ens.members) == 1
    assert locs.coords.tobytes() == fit_locs.coords.tobytes()
    member = ens.members[0]
    assert member.partition == fit.partition
    assert (member.d_hat, member.tau, member.k0) == (fit.d_hat, fit.tau, fit.k0)
    for name in ("A1_hat", "A2_hat", "eigenvalues", "x_hat", "x_star_hat",
                 "xi_hat"):
        assert np.array_equal(getattr(member, name), getattr(fit, name)), name
    stored = json.loads(path.read_text())["xi_hat"]
    assert ens.xi_tilde.tobytes() == np.array(stored["data"]).tobytes()
    assert forecast(frame, ens, [1, 2], j0=3).tobytes() == \
        forecast(frame, fit, [1, 2], j0=3).tobytes()


@pytest.mark.parametrize("with_locations", [False, True])
def test_model_document_key_order(tmp_path, with_locations):
    frame, *_ = rank_k_frame(30, 8, k=1, seed=27, noise=0.3)
    locs = frame.locations if with_locations else None
    tail = ["locations"] if with_locations else []
    fit_path, ens_path = tmp_path / "fit.json", tmp_path / "ens.json"
    save_fit(fit_factors(frame, random_partition(8, 3), 0.0), fit_path, locs)
    save_ensemble(aggregate_fit(frame, J=2, tau=0.0), ens_path, locs)
    assert list(json.loads(fit_path.read_text())) == [
        "format", "version", "partition", "d_hat", "tau", "k0", "eigenvalues",
        "A1_hat", "A2_hat", "x_hat", "x_star_hat", "xi_hat", *tail]
    assert list(json.loads(ens_path.read_text())) == [
        "format", "version", "J", "tau", "member_seeds", "d_hats",
        "per_location_counts", "xi_tilde", *tail]
    assert '"per_location_counts": [2, 2, 2, 2, 2, 2, 2, 2], ' in \
        ens_path.read_text()


@pytest.mark.parametrize("loader", [load_fit, load_ensemble])
@pytest.mark.parametrize("case", ["array", "string", "number",
                                  "missing key", "mistyped field"])
def test_model_loaders_raise_parse_error_naming_path(tmp_path, loader, case):
    frame, *_ = rank_k_frame(30, 8, k=1, seed=27, noise=0.3)
    if loader is load_fit:
        doc = fit_to_document(fit_factors(frame, random_partition(8, 3), 0.0))
    else:
        doc = ensemble_to_document(aggregate_fit(frame, J=2, tau=0.0))
    if case == "missing key":
        del doc["tau"]
    elif case == "mistyped field":
        doc["tau"] = [0.5]
    docs = {"array": [1, 2], "string": "x", "number": 3}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(docs.get(case, doc)))
    with pytest.raises(ParseError) as info:
        loader(path)
    assert str(info.value).startswith(f"{path}: ")
    if case == "missing key":
        assert "lacks key 'tau'" in str(info.value)
