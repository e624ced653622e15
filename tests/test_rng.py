import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import philox_stream

from qconsim.rng import Restream, adversary_rng, substream


def test_same_coords_same_stream():
    a = substream(7, "x", 1).random(16)
    b = substream(7, "x", 1).random(16)
    assert (a == b).all()


def test_distinct_coords_distinct_streams():
    seen = set()
    for coords in [(0, "a"), (0, "b"), (1, "a"), (0, "a", 0), ("0", "a0")]:
        draw = tuple(substream(3, *coords).integers(0, 2 ** 32, size=4).tolist())
        assert draw not in seen
        seen.add(draw)


def test_process_streams_disjoint_from_adversary():
    proc = substream(5, "proc", 0, 0, "register").integers(0, 2 ** 32, size=8)
    adv = adversary_rng(5, "random_crasher").integers(0, 2 ** 32, size=8)
    assert not (proc == adv).all()


def test_seed_changes_stream():
    a = substream(1, "x").random(8)
    b = substream(2, "x").random(8)
    assert not (a == b).all()


def test_streams_look_uniform():
    vals = substream(11, "u").random(20_000)
    assert abs(vals.mean() - 0.5) < 0.02
    assert abs(np.quantile(vals, 0.25) - 0.25) < 0.02


def _draws(gen) -> list:
    """Doubles, then integers(0, 2**b) for b = 1..32, then coin bits: the
    integers take one 32-bit draw each (36 in all, an even number) and use
    Philox's buffered half-word, the doubles do not."""
    out = gen.random(3).tolist()
    out += [int(gen.integers(0, 2 ** b)) for b in range(1, 33)]
    out += gen.integers(0, 2, size=4).tolist()
    return out


_COORD = st.one_of(st.integers(-5, 10 ** 6), st.text(max_size=4),
                   st.tuples(st.text(max_size=2), st.integers(0, 9)))


@given(addresses=st.lists(
    st.tuples(st.integers(0, 2 ** 40), st.lists(_COORD, max_size=4),
              st.integers(0, 5), st.integers(0, 5), st.integers(0, 4),
              st.lists(_COORD, max_size=3)),
    min_size=1, max_size=4))
@example(addresses=[(1, ["proc", 0, ("coin", 1), "register"], 1, 3, 1,
                     [0, 5, 1023]),  # the id in the middle
                    (1, ["private-layers", "coin", 7], 0, 1, 2,
                     [7, 8]),  # last
                    (2, ["x"], 2, 0, 0, [0, -1, "y"])])  # first
def test_restream_readdresses_to_fresh_substream(addresses):
    """Re-addressing the shared generator, ``each`` id of a template, and
    ``substream`` yield exactly the stream of a Philox generator built from
    the address's key, whatever was drawn from the shared one before: part
    of Philox's output block (a buffered position) or an odd number of
    32-bit draws (a buffered half-word).  Each template puts ``...`` at
    position ``slot`` of the coordinates (clipped to their end)."""
    streams = Restream()

    def leave_mid_block(gen):
        # leave the shared generator mid-block and, by an odd number of
        # 32-bit draws, with a half-word buffered
        gen.random(doubles)
        gen.integers(0, 2 ** 32, size=2 * halves + 1, dtype=np.uint32)

    for seed, coords, doubles, halves, slot, ids in addresses:
        want = _draws(philox_stream(seed, *coords))
        assert _draws(substream(seed, *coords)) == want
        gen = streams.at(seed, *coords)
        assert _draws(gen) == want
        leave_mid_block(gen)
        head, tail = coords[:slot], coords[slot:]
        for id_, gen in zip(ids, streams.each(seed, (*head, ..., *tail),
                                              ids), strict=True):
            assert _draws(gen) == _draws(philox_stream(seed, *head, id_,
                                                       *tail))
            leave_mid_block(gen)


def test_live_substreams_at_one_address_do_not_share_state():
    a, b = substream(9, "proc", 3), substream(9, "proc", 3)
    first = a.random(5)
    assert a.random(5).tolist() != first.tolist()
    assert b.random(5).tolist() == first.tolist()  # a's draws left b alone
