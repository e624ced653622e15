import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (HiddenRegister, adapt_degree, bfs_diameter,
                     merge_registers, private_layers_oracle, run_relay_oracle,
                     shared_group_layers_oracle, unpack_layers)
from qconsim import exchange
from qconsim.adversaries import Adversary
from qconsim.consensus import ConsensusParams
from qconsim.counting import level_graph, partition, partition_levels
from qconsim.engine import EMPTY_DECISION, CrashDecision, SimContext
from qconsim.exchange import (KeyCarrier, RumorCarrier, Window, _adapt_vec,
                              _diameter_within, clog2, end_epoch_update,
                              layer_count, run_relay, shared_group_layers,
                              private_layers)
from qconsim.rng import Restream, substream


def test_clog2_values():
    assert [clog2(x) for x in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]


def test_gamma_of_is_ceil_log():
    """The window's iteration exponent, layer_count(m, 1, alpha), is
    ceil(log m / log alpha)."""
    import math
    for m in range(1, 300):
        for alpha in (2, 3, 5):
            g = layer_count(m, 1, alpha)
            assert alpha ** g >= m and (g == 0 or alpha ** (g - 1) < m)
            if m > 1:
                assert g == math.ceil(math.log2(m) / math.log2(alpha) - 1e-12)


# -- degree adaptation: loop-exact reference --------------------------------

def test_adapt_unchanged_when_enough_responders():
    # 5 responders at my level or above, threshold 3: no change
    assert adapt_degree([2, 2, 3, 2, 2], current=2, delta=3) == 2


def test_adapt_zero_responses_underflows_one_step():
    # from level 2 (d*alpha^2): three divisions, ending one step below d
    assert adapt_degree([], current=2, delta=3) == -1


def test_adapt_drops_to_supported_level():
    # 2 responders at level 2, four at level 1, threshold 3: settle at level 1
    assert adapt_degree([2, 2, 1, 1, 1, 1], current=2, delta=3) == 1


def test_adapt_stays_at_underflow():
    assert adapt_degree([], current=-1, delta=3) == -1


def test_end_epoch_update():
    degree = np.array([1, 1, 0, 3, 1])
    adaptive = np.array([1, 0, -1, -1, 0])
    caps = np.array([3, 3, 3, 3, 1])
    # unchanged, grow, grow from underflow, capped at 3, capped at own cap 1
    assert end_epoch_update(degree, adaptive, caps).tolist() == [1, 2, 1, 3, 1]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                          st.integers(-1, 5)), min_size=1, max_size=12))
def test_end_epoch_update_stays_within_caps(rows):
    """From levels within their caps, an epoch end never lowers a level
    and never passes a cap: what lets ``run_relay`` gather inquiry rows at
    the levels themselves, with no clamp.  It grows a level by one, capped,
    iff the adaptive level fell below it, and returns its input array
    exactly when no level changed: ``run_relay``'s identity test."""
    caps, below, adaptive = (np.array(c, dtype=np.int64) for c in zip(*rows))
    degree = np.minimum(below, caps)
    grown = end_epoch_update(degree, adaptive, caps)
    assert (grown >= degree).all() and (grown <= caps).all()
    assert grown.tolist() == np.where(adaptive < degree,
                                      np.minimum(degree + 1, caps),
                                      degree).tolist()
    assert (grown is degree) == np.array_equal(grown, degree)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-1, 4), max_size=12), st.integers(0, 4),
       st.integers(1, 5))
def test_vectorized_adapt_matches_reference(levels, current, delta):
    n = len(levels) + 1
    ad = np.array(levels + [current], dtype=np.int64)
    delivered = np.zeros((n, n), dtype=bool)
    delivered[:-1, -1] = True  # everyone else responded to the last process
    out = _adapt_vec(ad, delivered, delta, np.arange(5)[:, None])
    assert out[-1] == adapt_degree(levels, current, delta)


@st.composite
def delivered_matrix(draw, n):
    """An (n, n) delivered matrix: empty, full (no self-loops) or random."""
    kind = draw(st.sampled_from(["empty", "full", "random"]))
    if kind == "empty":
        return np.zeros((n, n), dtype=bool)
    if kind == "full":
        return ~np.eye(n, dtype=bool)
    cells = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    return np.array(cells, dtype=bool).reshape(n, n)


@st.composite
def adapt_case(draw):
    n = draw(st.integers(1, 12))
    k_max = draw(st.integers(0, 4))
    ad = np.array(draw(st.lists(st.integers(-1, k_max), min_size=n,
                                max_size=n)), dtype=np.int64)
    # delta > n - 1 leaves no level with enough responders
    return ad, draw(delivered_matrix(n)), draw(st.integers(1, n + 2)), k_max


def _check_adapt(ad, delivered, delta, k_max):
    """The per-recipient loop's levels; ``ad`` itself exactly when no level
    fell, a new read-only array otherwise."""
    out = _adapt_vec(ad, delivered, delta, np.arange(k_max + 1)[:, None])
    assert out.dtype == ad.dtype
    assert (out is ad) == np.array_equal(out, ad)
    assert out is ad or not out.flags.writeable
    for q in range(ad.size):
        levels = ad[delivered[:, q]].tolist()  # q's own responders
        assert out[q] == adapt_degree(levels, int(ad[q]), delta)


@settings(max_examples=300, deadline=None)
@given(adapt_case())
def test_vectorized_adapt_matches_reference_on_every_recipient(case):
    _check_adapt(*case)


@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("delta", [1, 2, 9])
def test_vectorized_adapt_edge_cases(n, delta):
    """Everyone already at the underflow level -1, and windows whose only
    layer is level 0 (k_max = 0), on empty, full and mixed deliveries."""
    mixed = np.add.outer(np.arange(n), np.arange(n)) % 3 == 1
    for delivered in (np.zeros((n, n), dtype=bool), ~np.eye(n, dtype=bool),
                      mixed):
        _check_adapt(np.full(n, -1, dtype=np.int64), delivered, delta, 3)
        _check_adapt(np.full(n, -1, dtype=np.int64), delivered, delta, 0)
        _check_adapt(np.zeros(n, dtype=np.int64), delivered, delta, 0)
        _check_adapt(np.arange(n, dtype=np.int64) % 2 - 1, delivered, delta,
                     0)


# -- diameter certificate: BFS reference (oracles.bfs_diameter) -------------

@st.composite
def undirected_graph(draw):
    m = draw(st.integers(1, 24))
    kind = draw(st.sampled_from(["random", "complete", "path", "split"]))
    adj = np.zeros((m, m), dtype=bool)
    if kind == "random":
        iu = np.triu_indices(m, k=1)
        adj[iu] = draw(st.lists(st.booleans(), min_size=iu[0].size,
                                max_size=iu[0].size))
    elif kind == "complete":
        adj[:] = True
    elif kind == "path":
        adj[np.arange(m - 1), np.arange(1, m)] = True
    else:  # two cliques with no edge between them
        cut = draw(st.integers(0, m))
        adj[:cut, :cut] = adj[cut:, cut:] = True
    adj |= adj.T
    np.fill_diagonal(adj, False)
    return adj


def _graph(m, edges):
    """The symmetric adjacency of m nodes with the given edges."""
    adj = np.zeros((m, m), dtype=bool)
    for a, b in edges:
        adj[a, b] = adj[b, a] = True
    return adj


# node 0 ends a path of six nodes: its eccentricity e is 5
_PATH6 = _graph(6, zip(range(5), range(1, 6)))
# node 0 in the middle of a path of seven: e = 3, diameter 6
_MIDDLE0 = _graph(7, [(3, 1), (1, 2), (2, 0), (0, 4), (4, 5), (5, 6)])


@settings(max_examples=300, deadline=None)
@given(undirected_graph(), st.integers(1, 8))
@example(_PATH6, 8)  # 2e = 10 > 8 >= e: the exact loop, which certifies
@example(_MIDDLE0, 5)  # 2e = 6 > 5 >= e: the exact loop, which refutes
@example(_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]), 2)  # a star: 2e <= 2
@example(_MIDDLE0, 6)  # 2e <= limit: certified by the search alone
@example(_PATH6, 4)  # e > limit
@example(_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]), 8)  # disconnected
def test_diameter_within_matches_bfs(adj, limit):
    diameter = bfs_diameter(adj)
    assert _diameter_within(adj, limit) == (diameter is not None
                                            and diameter <= limit)


def _large_graphs():
    """Explicit graphs of up to 400 nodes: (name, adjacency)."""
    def sym(adj):
        adj |= adj.T
        np.fill_diagonal(adj, False)
        return adj
    path = np.zeros((400, 400), dtype=bool)
    path[np.arange(399), np.arange(1, 400)] = True
    cycle = path.copy()
    cycle[0, 399] = True
    star = np.zeros((300, 300), dtype=bool)
    star[0] = True
    rng = np.random.default_rng(3)
    sparse = rng.random((400, 400)) < 9 / 400  # the n = 384 base density
    split = sym(rng.random((400, 400)) < 0.05)
    split[:200, 200:] = split[200:, :200] = False
    return [("path", sym(path)), ("cycle", sym(cycle)), ("star", sym(star)),
            ("sparse", sym(sparse)), ("split", split)]


@pytest.mark.parametrize("name,adj", _large_graphs(),
                         ids=[g[0] for g in _large_graphs()])
def test_diameter_within_matches_bfs_large(name, adj):
    diameter = bfs_diameter(adj)
    limits = [1, 2, 3, 5, 8, 129, 257]
    if diameter is not None:
        limits += [diameter - 1, diameter, diameter + 1]
    for limit in limits:
        assert _diameter_within(adj, limit) == (diameter is not None
                                                and diameter <= limit), limit


# -- key merge: per-edge register fold ---------------------------------------

@st.composite
def key_merge_case(draw):
    n = draw(st.integers(1, 12))
    # few leader values, so ties that only the origin breaks are common
    leaders = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    coins = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    regs = [HiddenRegister(v, c, p) for p, (v, c) in
            enumerate(zip(leaders, coins))]
    return regs, draw(delivery_sequence(n))


@st.composite
def delivery_sequence(draw, n):
    """Read-only delivered matrices in merge order; a matrix may come back
    as the same object, as a relay hands over a reused delivery, so the
    carriers' rank and label caches meet repeated deliveries."""
    pool = draw(st.lists(delivered_matrix(n), min_size=1, max_size=2))
    for delivered in pool:
        delivered.flags.writeable = False
    order = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                          max_size=4))
    return [pool[i] for i in order]


def _edges(n, *edges):
    """A read-only delivered matrix holding the sender -> recipient edges."""
    delivered = np.zeros((n, n), dtype=bool)
    for p, q in edges:
        delivered[p, q] = True
    delivered.flags.writeable = False
    return delivered


@settings(max_examples=400, deadline=None)
@given(key_merge_case())
# 0 -> 1 lifts key 1 above key 2, so 1 -> 2 then needs the new order
@example(([HiddenRegister(3, 0, 0), HiddenRegister(0, 1, 1),
           HiddenRegister(2, 0, 2)], [_edges(3, (0, 1)), _edges(3, (1, 2))]))
def test_key_merge_matches_register_fold(case):
    regs, deliveries = case
    n = len(regs)
    carrier = KeyCarrier(np.array([r.leader_value * n + r.origin
                                   for r in regs]), bits=1, qubits=1)
    for delivered in deliveries:
        folded = []
        for q in range(n):
            held = regs[q]
            for p in np.flatnonzero(delivered[:, q]).tolist():
                held = merge_registers(held, regs[p])  # before the round
            folded.append(held)
        regs = folded
        before = carrier.keys.copy()
        changed = carrier.merge(delivered)
        assert carrier.keys.tolist() == [r.leader_value * n + r.origin
                                         for r in regs]
        assert changed == (carrier.keys != before).any()


# -- rumor merge: per-edge reference ---------------------------------------

def reference_rumor_merge(matrices, delivered):
    """Per-edge max-merge: every delivered sender row, as it was before the
    round, is max-merged into its recipient's row."""
    before = [m.copy() for m in matrices]
    out = [m.copy() for m in matrices]
    n = delivered.shape[0]
    for p in range(n):
        for q in range(n):
            if delivered[p, q]:
                for b, o in zip(before, out):
                    o[q] = np.maximum(o[q], b[p])
    return out


@st.composite
def rumor_matrix(draw, n):
    """An (n, width) rumor matrix whose rows come from a small pool, so many
    rows are byte-equal and the equal-row skip has edges to drop."""
    width = draw(st.integers(1, 6))
    pool = draw(st.lists(st.lists(st.integers(-1, 3), min_size=width,
                                  max_size=width), min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n,
                          max_size=n))
    return np.array([pool[i] for i in picks], dtype=np.int64).reshape(n, width)


@st.composite
def merge_case(draw):
    n = draw(st.integers(1, 12))
    matrices = draw(st.lists(rumor_matrix(n), min_size=1, max_size=3))
    return matrices, draw(delivery_sequence(n))


@settings(max_examples=400, deadline=None)
@given(merge_case())
# rows 0 and 1 are equal in the first matrix only, so the edge 0 -> 1 may be
# skipped for that matrix but must still carry the second one's 5
@example(([np.array([[1, 2], [1, 2], [0, 0]], dtype=np.int64),
           np.array([[5], [-1], [5]], dtype=np.int64)],
          [np.array([[0, 1, 0], [0, 0, 0], [0, 1, 0]], dtype=bool)]))
def test_rumor_merge_matches_per_edge_reference(case):
    _check_rumor_merge(case)


@pytest.mark.parametrize("edges", [1, 2, 3])
@settings(max_examples=150, deadline=None)
@given(merge_case())
def test_blocked_rumor_merge_matches_per_edge_reference(edges, case):
    """Blocks of 1, 2 and 3 edges, so that a recipient's edges straddle
    blocks, give the per-edge merge."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exchange, "block_rows", lambda _: edges)
        _check_rumor_merge(case)


@pytest.mark.parametrize("edges", [1, 2])
def test_blocked_rumor_merge_reads_rows_from_before_the_round(edges,
                                                              monkeypatch):
    """The chain 0 -> 1 -> 2 in one round: with one edge per block, 1 is a
    recipient in the first block and a sender in the second, which must
    gather 1's row as it was before the round, so 2 never holds 0's
    rumor."""
    monkeypatch.setattr(exchange, "block_rows", lambda _: edges)
    m = np.full((3, 3), -1, dtype=np.int64)
    m[[0, 1, 2], [0, 1, 2]] = 7, 8, 9
    carrier = RumorCarrier([m], bits=1)
    assert carrier.merge(_edges(3, (0, 1), (1, 2)))
    assert m.tolist() == [[7, -1, -1], [7, 8, -1], [-1, 8, 9]]


def _check_rumor_merge(case):
    matrices, deliveries = case
    expected = matrices
    carrier = RumorCarrier([m.copy() for m in matrices], bits=1)
    kept = list(carrier.matrices)
    for delivered in deliveries:
        before = expected
        expected = reference_rumor_merge(expected, delivered)
        changed = carrier.merge(delivered)
        for got, ref, alias in zip(carrier.matrices, expected, kept):
            assert got is alias  # merged in place
            assert (got == ref).all()
        assert changed == any((b != e).any() for b, e in zip(before, expected))



@pytest.mark.parametrize("n", [7, 10, 64])
@pytest.mark.parametrize("rows", [lambda n: 1, lambda n: 3, lambda n: n - 1],
                         ids=["1", "3", "n-1"])
def test_blocked_adapt_matches_reference(n, rows, monkeypatch):
    """Responder counts summed over row blocks of 1, 3 and n - 1 rows, each
    but the first leaving a short last block, match the per-recipient
    loop."""
    block = rows(n)
    monkeypatch.setattr(exchange, "block_rows", lambda _: block)
    rng = np.random.default_rng(n * 10 + block)
    for k_max in (0, 3):
        ad = rng.integers(-1, k_max + 1, n)
        for delivered in (rng.random((n, n)) < 0.4, ~np.eye(n, dtype=bool)):
            for delta in (1, 2, 5):
                _check_adapt(ad, delivered, delta, k_max)


def test_default_blocks_match_reference():
    """At n = 600 the default blocks (109 rows, so the last block is short)
    give the counts of the per-recipient loop."""
    n = 600
    assert 1 < exchange.block_rows(n) < n and n % exchange.block_rows(n)
    rng = np.random.default_rng(3)
    ad = rng.integers(-1, 3, n)
    _check_adapt(ad, rng.random((n, n)) < 0.02, 4, 2)


# -- layers -------------------------------------------------------------

def test_private_layers_marginals():
    n, d, alpha = 400, 8, 4
    layers, _, k_caps = private_layers(n, d, alpha, seed=1, tag="t")
    layers = unpack_layers(layers, n)
    assert (k_caps == k_caps[0]).all()
    deg0 = layers[0].sum(axis=1).mean()
    assert abs(deg0 - d) < 1.5
    assert not layers[0].diagonal().any()


def test_shared_layers_nested_and_symmetric():
    n = 24
    layers, k_caps = shared_group_layers(n, [0, 12, 24], 3, 2, seed=4,
                                         tag="t", max_steps=8)
    for i in range(layers.shape[0]):
        assert (layers[i] == layers[i].T).all()
        if i > 0:
            assert (layers[i] | layers[i - 1] == layers[i]).all()  # nested
    # no edges across groups
    assert not layers[:, :12, 12:].any()


def test_shared_layers_base_connected_within_budget():
    n = 40
    layers, _ = shared_group_layers(n, [0, n], 3, 2, seed=9, tag="t",
                                    max_steps=64)
    reach = layers[0] | np.eye(n, dtype=bool)
    for _ in range(7):
        reach = reach @ reach
    assert reach.all()


def test_shared_layers_deterministic():
    a, _ = shared_group_layers(10, [0, 10], 2, 2, seed=5, tag=("x", 1),
                               max_steps=8)
    b, _ = shared_group_layers(10, [0, 10], 2, 2, seed=5, tag=("x", 1),
                               max_steps=8)
    assert (a == b).all()


@st.composite
def _layer_shapes(draw):
    """(n, d, alpha) with 2 <= n <= 64.  Half of them put n = d * alpha**j,
    so that layer j's probability d * alpha**j / n is exactly 1.0; in the
    others the top layer's probability is capped at 1.  Either way the top
    layer saturates."""
    alpha = draw(st.integers(2, 4))
    if draw(st.booleans()):
        step = alpha ** draw(st.integers(0, 3))
        d = draw(st.integers(-(-2 // step), 64 // step))
        return d * step, d, alpha
    return draw(st.integers(2, 64)), draw(st.integers(1, 9)), alpha


@given(shape=_layer_shapes(), seed=st.integers(0, 2 ** 32),
       tag=st.sampled_from(["t", ("coin", 3)]))
@example(shape=(27, 3, 3), seed=1, tag="t")  # layer 2: 3 * 3**2 / 27 == 1.0
def test_private_layers_match_per_process_oracle(shape, seed, tag):
    n, d, alpha = shape
    got = private_layers(n, d, alpha, seed, tag)
    layers, k_caps = private_layers_oracle(n, d, alpha, seed, tag)
    want = (np.packbits(layers, axis=-1),
            np.packbits(layers.transpose(0, 2, 1), axis=-1), k_caps)
    assert len(got) == 3
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("n", [1, 7, 13, 64, 256, 257, 520, 1025])
def test_private_layers_are_packed_oracle_layers(n):
    """The stack is the oracle's bool stack packed along its last axis: pad
    bits zero and the diagonal cleared, in every chunk of processes (n =
    256 is one full chunk, 257 and 1025 end in a chunk of one process and
    520 in one of eight).  The flipped stack built beside
    it is the packed transpose, C-ordered, pad bits zero too."""
    d = alpha = max(2, clog2(n))
    got, flipped, _ = private_layers(n, d, alpha, 5, "pin")
    want, _ = private_layers_oracle(n, d, alpha, 5, "pin")
    assert got.dtype == np.uint8 and got.shape == want.shape[:2] + (
        -(-n // 8),)
    assert np.array_equal(got, np.packbits(want, axis=-1))
    assert not np.unpackbits(got, axis=-1)[..., n:].any()  # pad bits
    assert not want[:, np.arange(n), np.arange(n)].any()
    assert flipped.flags.c_contiguous
    assert np.array_equal(flipped,
                          np.packbits(want.transpose(0, 2, 1), axis=-1))


def _outcome(build, *args, **kwargs):
    """What ``build`` returns, or the message of its RuntimeError."""
    try:
        return build(*args, **kwargs)
    except RuntimeError as exc:
        return str(exc)


@st.composite
def _group_bounds(draw, n):
    """The bounds of [0, n) cut into contiguous groups, singletons among
    them."""
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=min(5, n - 1))))
    return [0, *cuts, n]


# a singleton and a group of 16 = 4 * 2**2, whose layer 2 has probability
# exactly 1.0; its base layer needs 12 resamples to reach diameter <= 3, and
# its first draw has diameter 4, which a certificate of the first power of
# two >= max_steps would have passed
_RESAMPLED = dict(shape=(17, 4, 2), seed=9, max_steps=3)


@settings(deadline=None)
@given(data=st.data(), shape=_layer_shapes(), seed=st.integers(0, 2 ** 32),
       max_steps=st.sampled_from([3, 4, 8, 64]))
@example(data=[0, 1, 17], **_RESAMPLED)
# every group has m <= d, so none draws: one layer, complete blocks
@example(data=[0, 1, 3, 7, 11, 12], shape=(12, 4, 2), seed=5, max_steps=3)
# groups of m <= d next to drawn groups of 16 (three layers) and singletons
@example(data=[0, 1, 4, 8, 9, 25, 41], shape=(41, 4, 2), seed=2, max_steps=8)
def test_shared_layers_match_per_attempt_oracle(data, shape, seed, max_steps):
    """Several contiguous groups, singletons and complete groups (m <= d)
    among them; a small max_steps forces resampling attempts, and a group
    that never certifies raises the same RuntimeError in both.  Every layer
    is symmetric, which is what lets counting pass the stack to
    ``run_relay`` as its own transpose.  An example gives its bounds as
    ``data``."""
    n, d, alpha = shape
    bounds = data if isinstance(data, list) else data.draw(_group_bounds(n))
    groups = [np.arange(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    rest = (d, alpha, seed, ("count", 2))
    got = _outcome(shared_group_layers, n, bounds, *rest, max_steps=max_steps)
    want = _outcome(shared_group_layers_oracle, n, groups, *rest,
                    max_steps=max_steps)
    if isinstance(want, str):
        assert got == want
    else:
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert np.array_equal(got[0], got[0].transpose(0, 2, 1))


def test_complete_groups_draw_nothing(monkeypatch):
    """The deepest counting levels at n = 64 under the polylog preset (d =
    6) hold groups of 4, 2 and 1: their stacks are complete blocks, built
    without addressing a stream or certifying a diameter."""
    n, params = 64, ConsensusParams.polylog(64)

    def refuse(*args, **kwargs):
        raise AssertionError("a complete group drew or certified")

    monkeypatch.setattr(Restream, "at", refuse)
    monkeypatch.setattr(exchange, "_diameter_within", refuse)
    complete = [b for b in partition_levels(n, params.x)
                if np.diff(b).max() <= params.d]
    assert [int(np.diff(b).max()) for b in complete] == [4, 2, 1]
    for bounds in complete:
        _, layers, k_caps = level_graph(n, bounds, params, 1, ("count", 5))
        blocks = np.zeros((n, n), dtype=bool)
        for lo, hi in zip(bounds, bounds[1:]):
            blocks[lo:hi, lo:hi] = ~np.eye(hi - lo, dtype=bool)
        assert not k_caps.any() and np.array_equal(layers, blocks[None])


def test_upper_mask_is_cached_and_read_only():
    """The upper-triangle mask is built once per group size and cannot be
    written, so no group's sampling can corrupt the next one's."""
    upper = exchange._upper(9)
    assert exchange._upper(9) is upper and upper.base is None
    assert np.array_equal(upper, np.triu(np.ones((9, 9), dtype=bool), k=1))
    assert not upper.flags.writeable
    with pytest.raises(ValueError):
        upper[0, 1] = False


def test_shared_layers_oracle_example_resamples():
    """The explicit example of the oracle test really resamples."""
    (n, d, alpha), seed = _RESAMPLED["shape"], _RESAMPLED["seed"]
    attempts = []
    shared_group_layers_oracle(n, [np.arange(0, 1), np.arange(1, n)], d,
                               alpha, seed, ("count", 2),
                               max_steps=_RESAMPLED["max_steps"],
                               attempts=attempts)
    assert attempts == [12]


# -- relay schedule ---------------------------------------------------------

def test_window_round_count():
    w = Window.for_size(16, 2, 2)
    assert (w.k, w.gamma, w.delta) == (3, 4, 2)
    assert (w.epochs, w.iterations) == (25, 5)
    assert w.rounds == 250


def test_relay_consumes_exact_rounds_and_propagates_max():
    n = 12
    ctx = SimContext(n, 4, Adversary(), seed=3)
    stacks = private_layers(n, 4, 2, ctx.seed, "t")
    window = Window.for_size(n, 4, 2)
    keys = np.arange(n, dtype=np.int64) * 10
    carrier = KeyCarrier(keys, bits=4, qubits=8)
    run_relay(ctx, *stacks, window, carrier)
    assert ctx.round == window.rounds
    assert (carrier.keys == 110).all()  # everyone holds the max


@pytest.mark.parametrize("make,response_keys", [
    (lambda n: KeyCarrier(np.zeros(n, dtype=np.int64), bits=7, qubits=13),
     ["adaptive_degree"]),
    (lambda n: RumorCarrier([np.zeros((n, 2), dtype=np.int64)], bits=7),
     ["adaptive_degree", "rumors0"])], ids=["key", "rumor"])
def test_relay_charges_inquiry_and_response_costs(make, response_keys):
    """A response costs the carrier's bits plus the relay's
    clog2(k_max + 1)-bit adaptive degree, and its payload is the degree
    next to the carrier's classical part."""
    n = 6
    adversary = DrawnCrasher([], seed=0)  # records payloads, crashes nobody
    ctx = SimContext(n, 2, adversary, seed=1)
    layers, flipped, k_caps = private_layers(n, 2, 2, ctx.seed, "t")
    carrier = make(n)
    one_iteration = Window(k=-1, gamma=0, delta=2)  # 1 epoch of 1 iteration
    run_relay(ctx, layers, flipped, k_caps, one_iteration, carrier)
    inquiries = int(np.unpackbits(layers[0]).sum())  # pad bits are zero
    k_max = int(k_caps.max())
    assert ctx.ledger.total_bits == inquiries * (1 + 7 + clog2(k_max + 1))
    assert ctx.ledger.total_qubits == inquiries * carrier.qubits
    assert ctx.ledger.process_rounds == 2 * n  # two rounds, nobody halts
    assert [[k for k, _ in p] for p in adversary.payloads] == [
        [], response_keys]


# -- relay reuse: per-round oracle ------------------------------------------

class DrawnCrasher(Adversary):
    """Crashes one or two alive senders at each of the given rounds, most of
    them delivering a drawn part of their multicast.  Records the classical
    payload of every round (rumors and adaptive degrees)."""

    name = "drawn"

    def __init__(self, rounds, seed):
        self.rounds = set(rounds)
        self.seed = seed
        self.payloads = []

    def decide(self, view):
        self.payloads.append([(k, v.tolist()) for k, v in
                              sorted((view.payload or {}).items())])
        budget = view.crash_budget_left
        if view.round not in self.rounds or budget <= 0:
            return EMPTY_DECISION
        rng = np.random.default_rng([self.seed, view.round])
        alive = np.flatnonzero(view.alive)
        hit = np.sort(rng.choice(alive, size=min(budget, int(rng.integers(
            1, 3)), alive.size), replace=False))
        partial = {int(s): rng.random(view.n) < 0.5 for s in hit.tolist()
                   if rng.random() < 0.7}
        return CrashDecision(hit, partial)


def _relay_setup(kind, n, seed, x):
    """(layers, flipped, k_caps, window, carrier) as the coin ("key") or one
    counting level ("rumor") builds them and hands them to ``run_relay``:
    both stacks packed."""
    rng = np.random.default_rng(seed)
    d = alpha = max(2, clog2(n))
    if kind == "key":
        window = Window.for_size(n, d, alpha)
        keys = rng.integers(0, 4, n) * n + np.arange(n)
        return (*private_layers(n, d, alpha, seed, "oracle"), window,
                KeyCarrier(keys, bits=3, qubits=5))
    bounds = partition([0, n], x)
    window = Window.for_size(np.diff(bounds).max(), d, alpha)
    layers, k_caps = shared_group_layers(
        n, bounds, d, alpha, seed, "oracle",
        max_steps=window.epochs * window.iterations)
    rumors = np.full((n, 2 * x), -1, dtype=np.int64)
    for lo, hi in zip(bounds, bounds[1:]):
        kids = partition([lo, hi], x)
        for ci, (a, b) in enumerate(zip(kids, kids[1:])):
            rumors[a:b, ci] = rng.integers(0, 2, b - a)
            rumors[a:b, x + ci] = 1 - rumors[a:b, ci]
    layers = np.packbits(layers, axis=-1)
    return layers, layers, k_caps, window, RumorCarrier([rumors], bits=7)


@st.composite
def relay_case(draw):
    n = draw(st.integers(2, 48))
    kind = draw(st.sampled_from(["key", "rumor"]))
    seed = draw(st.integers(0, 2**16))
    x = draw(st.integers(2, 4))
    rounds = _relay_setup(kind, n, seed, x)[3].rounds
    # crashes anywhere, including response rounds (odd) and rounds after
    # long steady stretches near the end of the window; or, as
    # degree_targeter does, in every inquiry round until the budget is spent
    crash_rounds = draw(st.lists(st.integers(0, rounds - 1), max_size=4)
                        | st.lists(st.integers(rounds // 2, rounds - 1),
                                   max_size=2)
                        | st.just(list(range(0, rounds, 2))))
    halted = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return kind, n, seed, x, crash_rounds, np.array(halted)


@settings(max_examples=120, deadline=None)
@given(relay_case())
@example(("key", 24, 5, 2, [1, 40, 121], np.zeros(24, dtype=bool)))
@example(("rumor", 40, 9, 3, [3, 60, 275], np.arange(40) == 7))
@example(("key", 24, 5, 2, list(range(0, 54, 2)), np.arange(24) == 3))
@example(("rumor", 40, 9, 3, list(range(0, 54, 2)), np.arange(40) == 7))
def test_relay_reuse_matches_per_round_oracle(case):
    """Reusing prepared rounds, deliveries, digest bytes, idle carrier merges
    and settled degree adaptations, and building response rounds from the
    transposed layers, changes nothing: same digest, ledger, crashes,
    payload in every round, carrier state and final degree levels as the
    loop that rebuilds every round and answers ``got_inq.T``."""
    kind, n, seed, x, crash_rounds, halted = case
    runs = []
    for oracle in (False, True):
        adversary = DrawnCrasher(crash_rounds, seed)
        ctx = SimContext(n, n, adversary, seed)
        ctx.halt(halted)
        layers, flipped, k_caps, window, carrier = _relay_setup(kind, n,
                                                                seed, x)
        lvl = (run_relay_oracle(ctx, unpack_layers(layers, n), k_caps, window,
                                carrier)
               if oracle else
               run_relay(ctx, layers, flipped, k_caps, window, carrier))
        state = (carrier.keys.copy() if kind == "key"
                 else carrier.matrices[0].copy())
        runs.append((ctx, lvl, state, ctx.finish({}, "drawn").digest,
                     adversary.payloads))
    ((ctx, lvl, state, digest, seen),
     (ctx_o, lvl_o, state_o, digest_o, seen_o)) = runs
    assert ctx.round == ctx_o.round == window.rounds
    assert digest == digest_o
    assert seen == seen_o  # the carrier state of every round
    assert ctx.ledger.summary() == ctx_o.ledger.summary()
    assert (ctx.alive == ctx_o.alive).all()
    assert (state == state_o).all()
    assert (lvl == lvl_o).all()


@pytest.mark.parametrize("make", [
    lambda: KeyCarrier(np.array([5, 0, 0]), bits=1, qubits=0),
    lambda: RumorCarrier([np.array([[5], [0], [0]])], bits=1)])
def test_relay_skips_a_delivery_only_after_a_merge_left_it_unchanged(make):
    """Four iterations get the same response matrix, the path 0 -> 1 -> 2:
    the relay merges it again after each useful merge, so 5 moves one hop
    per merge, and skips it only after the third merge changed nothing."""
    carrier = make()
    merges = []
    merge = carrier.merge

    def counted(delivered):
        merges.append(merge(delivered))
        return merges[-1]

    carrier.merge = counted
    layers = np.zeros((1, 3, 3), dtype=bool)
    layers[0, 1, 0] = layers[0, 2, 1] = True  # 1 asks 0, 2 asks 1
    flipped = np.packbits(layers.transpose(0, 2, 1), axis=-1)
    layers = np.packbits(layers, axis=-1)
    ctx = SimContext(3, 1, Adversary(), seed=0)
    run_relay(ctx, layers, flipped, np.zeros(3, dtype=np.int64),
              Window(k=-1, gamma=3, delta=1), carrier)
    held = (carrier.keys if isinstance(carrier, KeyCarrier)
            else carrier.matrices[0].ravel())
    assert held.tolist() == [5, 5, 5]
    assert merges == [True, True, False]
