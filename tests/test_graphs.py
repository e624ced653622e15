import math
from functools import partial
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_compact, brute_edge_dense, brute_expanding
from qconsim import graphs
from qconsim.consensus import ConsensusParams
from qconsim.counting import level_graph
from qconsim.exchange import layer_count, private_layers, shared_group_layers
from qconsim.graphs import (delta_core, is_compact, is_edge_dense,
                            is_expanding)
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


def test_shared_layer_edge_counts_within_4_sigma():
    """Above the base layer, whose certificate resamples it, each group's
    layer i has an edge count within 4 sigma of C(m, 2) pairs at edge
    probability min(1, d*alpha^i/m); layers with probability 1 are
    complete."""
    d, alpha, bounds = 32, 2, [0, 400, 1000]
    layers, k_caps = shared_group_layers(1000, bounds, d, alpha, seed=4,
                                         tag="t", max_steps=8)
    for lo, hi in zip(bounds, bounds[1:]):
        m, k = hi - lo, int(k_caps[lo])
        assert k == layer_count(m, d, alpha)
        for i in range(1, k + 1):
            p_edge = min(1.0, d * alpha ** i / m)
            mean = math.comb(m, 2) * p_edge
            sigma = math.sqrt(mean * (1 - p_edge))
            edges = layers[i, lo:hi, lo:hi].sum() // 2
            assert abs(edges - mean) <= 4 * sigma, (m, i, edges, mean)


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


@pytest.mark.parametrize("seed", range(4))
def test_batched_delta_core_matches_row_by_row(seed):
    rng = substream(seed, "core-batch-test")
    n = int(rng.integers(4, 12))
    adj = _random_adj(n, 0.4, seed + 200)
    members = rng.random((20, n)) < 0.6
    delta = int(rng.integers(1, 4))
    rows = np.array([delta_core(adj, delta, row) for row in members])
    assert (delta_core(adj, delta, members) == rows).all()


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


def test_randomized_expansion_finds_the_readme_base_layer_failure():
    """The README's check-graphs example (n = 64, polylog, seed 1, 500
    trials): its base layer has 8-subsets A with 8 nodes outside A and its
    neighbourhood, and 500 draws of A find one."""
    base = level_graph(64, [0, 64], ConsensusParams.polylog(64), 1,
                       (("count", 1), 0))[1][0]
    rep = is_expanding(base, 8, trials=500, seed=1)
    assert not rep.verdict and rep.method == "randomized(500)"
    a, b = rep.witness["A"], rep.witness["B"]
    assert len(a) == len(b) == 8 and not set(a) & set(b)
    assert not base[np.ix_(a, b)].any()


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


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 9), st.floats(0.05, 0.95),
       st.sampled_from(["expanding", "edge_dense", "compact"]), st.data())
def test_exhaustive_certifiers_match_brute_force(seed, n, p, prop, data):
    """Each exhaustive verdict is brute force's, and each witness is brute
    force's first counterexample in combinations order."""
    adj = _random_adj(n, p, seed)
    # expansion is vacuous for 2 * ell > n, so draw it mostly below that
    ell = data.draw(st.integers(1, n // 2 + 1 if prop == "expanding"
                                else n + 1))
    if prop == "expanding":
        rep, first = is_expanding(adj, ell), brute_expanding(adj, ell)
    elif prop == "edge_dense":
        a, b = data.draw(st.floats(0, 1)), data.draw(st.floats(0, 4))
        rep = is_edge_dense(adj, ell, a, b)
        first = brute_edge_dense(adj, ell, a, b)
    else:
        eps = data.draw(st.floats(0, 1))
        delta = data.draw(st.integers(1, 3))
        rep = is_compact(adj, ell, eps, delta)
        first = brute_compact(adj, ell, eps, delta)
    assert rep.method == "exhaustive"
    assert rep.verdict == (first is None)
    if first is not None:
        assert {key: rep.witness[key] for key in first} == first


@pytest.mark.parametrize("chunk", [1, 3])
def test_exhaustive_reports_do_not_depend_on_the_chunk(chunk, monkeypatch):
    """Batches split anywhere leave every exhaustive report, witness order
    included, as it is."""
    checks = []
    for seed, p in ((1, 0.3), (2, 0.6), (3, 0.9)):
        adj = _random_adj(8, p, seed)
        checks += [partial(is_expanding, adj, 2),
                   partial(is_edge_dense, adj, 3, 0.5, 2.0),
                   partial(is_edge_dense, adj, 5, 1.5, 3.0),
                   partial(is_compact, adj, 4, 0.5, 2),
                   partial(is_compact, adj, 3, 1.0, 1)]
    expected = [check().to_dict() for check in checks]
    assert {r["method"] for r in expected} == {"exhaustive"}
    assert {r["verdict"] for r in expected} == {True, False}
    monkeypatch.setattr(graphs, "_CHUNK", chunk)
    assert [check().to_dict() for check in checks] == expected
