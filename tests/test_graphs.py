import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qconsim.exchange import layer_count, private_layers
from qconsim.graphs import (delta_core, is_compact, is_edge_dense,
                            is_expanding, sample_gnp)
from qconsim.rng import substream


def _complete(n):
    return ~np.eye(n, dtype=bool)


def _path(n):
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = True
    return adj


def _star(n):
    adj = np.zeros((n, n), dtype=bool)
    adj[0, 1:] = adj[1:, 0] = True
    return adj


def _random_adj(n, p, seed):
    rng = substream(seed, "test-graphs")
    adj = np.zeros((n, n), dtype=bool)
    iu = np.triu_indices(n, k=1)
    adj[iu] = rng.random(iu[0].size) < p
    return adj | adj.T


# -- sampling ---------------------------------------------------------------

def test_gnp_extremes():
    assert sample_gnp(6, 0.0, 1).sum() == 0
    assert (sample_gnp(6, 1.0, 1) == _complete(6)).all()


def test_gnp_edge_count_within_4_sigma():
    adj = sample_gnp(1000, 0.01, seed=5)
    edges = adj.sum() // 2
    mean = math.comb(1000, 2) * 0.01
    sigma = math.sqrt(mean * 0.99)
    assert abs(edges - mean) < 4 * sigma


def test_gnp_deterministic_and_symmetric():
    a = sample_gnp(50, 0.3, seed=2)
    b = sample_gnp(50, 0.3, seed=2)
    assert (a == b).all()
    assert (a == a.T).all() and not a.diagonal().any()


def test_layers_single_when_d_equals_n():
    layers, k_caps = private_layers(8, 8, 2, seed=0, tag="t")
    assert layers.shape[0] == 1 and (k_caps == 0).all()
    full = layers[0]
    assert (full.sum(axis=1) == 7).all()  # probability 1, no self


def test_layers_k_formula_n16_d2_alpha2():
    layers, k_caps = private_layers(16, 2, 2, seed=0, tag="t")
    assert layers.shape[0] == 4 and (k_caps == 3).all()  # 1/8, 1/4, 1/2, 1
    assert (layers[3].sum(axis=1) == 15).all()


def test_layer_degree_within_4_sigma():
    n, d, alpha = 2000, 16, 4
    layers, k_caps = private_layers(n, d, alpha, seed=3, tag="t")
    for i in range(int(k_caps[0])):
        p_edge = d * alpha ** i / n
        mean = p_edge * (n - 1)
        sigma = math.sqrt(mean * (1 - p_edge))
        avg = layers[i].sum(axis=1).mean()
        assert abs(avg - mean) < 4 * sigma / math.sqrt(n)


def test_layer_count_matches_ceil_formula():
    for n in range(1, 200):
        for d in (1, 2, 5, 8):
            for alpha in (2, 3, 7):
                k = layer_count(n, d, alpha)
                expect = max(0, math.ceil(math.log2(n / d) / math.log2(alpha))) \
                    if n > d else 0
                assert d * alpha ** k >= n
                assert k == 0 or d * alpha ** (k - 1) < n
                assert k == expect


# -- delta core -------------------------------------------------------------

def _brute_force_max_core(adj, delta):
    """Largest subset inducing min degree >= delta, by exhaustive search."""
    n = adj.shape[0]
    best = np.zeros(n, dtype=bool)
    for size in range(n, 0, -1):
        if size <= best.sum():
            break
        for sub in combinations(range(n), size):
            nodes = np.array(sub)
            deg = adj[np.ix_(nodes, nodes)].sum(axis=1)
            if (deg >= delta).all():
                best = np.zeros(n, dtype=bool)
                best[nodes] = True
                return best
    return best


@pytest.mark.parametrize("seed", range(12))
def test_delta_core_matches_brute_force(seed):
    rng = substream(seed, "core-test")
    n = int(rng.integers(4, 9))
    adj = _random_adj(n, 0.4, seed + 100)
    delta = int(rng.integers(1, 4))
    core = delta_core(adj, delta)
    brute = _brute_force_max_core(adj, delta)
    assert core.sum() == brute.sum()
    if core.any():
        deg = adj[np.ix_(np.nonzero(core)[0], np.nonzero(core)[0])].sum(axis=1)
        assert (deg >= delta).all()


def test_delta_core_is_superset_of_any_qualifying_set():
    adj = _random_adj(10, 0.5, 7)
    core = delta_core(adj, 3)
    # every subset with min degree >= 3 must sit inside the core
    for sub in combinations(range(10), 5):
        nodes = np.array(sub)
        deg = adj[np.ix_(nodes, nodes)].sum(axis=1)
        if (deg >= 3).all():
            assert core[nodes].all()


# -- expanding --------------------------------------------------------------

def test_expanding_complete_graph():
    rep = is_expanding(_complete(4), 1)
    assert rep.verdict and rep.method == "exhaustive"


def test_expanding_path_fails_with_witness():
    rep = is_expanding(_path(4), 1)
    assert not rep.verdict
    a, b = rep.witness["A"], rep.witness["B"]
    assert not _path(4)[np.ix_(a, b)].any()


def test_expanding_empty_graph_fails():
    rep = is_expanding(np.zeros((4, 4), dtype=bool), 2)
    assert not rep.verdict


def test_expanding_randomized_mode_on_large_graph():
    adj = _complete(40)
    rep = is_expanding(adj, 8, budget=10, trials=200)
    assert rep.verdict and rep.method == "randomized(200)"


# -- edge density -----------------------------------------------------------

def test_edge_dense_k4_lower_clause():
    rep = is_edge_dense(_complete(4), ell=4, a=1, b=10)
    assert rep.verdict


def test_edge_dense_k4_upper_clause_fails():
    rep = is_edge_dense(_complete(4), ell=2, a=0, b=0)
    assert not rep.verdict


def test_edge_dense_empty_graph_fails_lower():
    rep = is_edge_dense(np.zeros((5, 5), dtype=bool), ell=2, a=1, b=5)
    assert not rep.verdict


# -- compactness ------------------------------------------------------------

def test_compact_k4():
    rep = is_compact(_complete(4), ell=2, eps=0.75, delta=1)
    assert rep.verdict and rep.method == "exhaustive"


def test_compact_star_leaves_fail():
    rep = is_compact(_star(5), ell=4, eps=0.25, delta=1)
    assert not rep.verdict
    b = rep.witness["B"]
    assert rep.witness["core_size"] < 0.25 * 4
    assert 0 not in b or not rep.verdict


def test_compact_delta_zero_trivially_true():
    rep = is_compact(_star(5), ell=4, eps=1.0, delta=0)
    assert rep.verdict


def test_compact_randomized_finds_no_false_counterexample():
    adj = _complete(30)
    rep = is_compact(adj, ell=5, eps=1.0, delta=4, budget=10, trials=100)
    assert rep.verdict and "randomized" in rep.method


# -- property-based ---------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(3, 8), st.integers(1, 3))
def test_core_min_degree_invariant(seed, n, delta):
    adj = _random_adj(n, 0.5, seed)
    core = delta_core(adj, delta)
    if core.any():
        idx = np.nonzero(core)[0]
        deg = adj[np.ix_(idx, idx)].sum(axis=1)
        assert (deg >= delta).all()
