import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from munorm import (
    FiniteMeasureSpace,
    Partition,
    finest_partition,
    join,
)


def test_make_space_valid():
    assert FiniteMeasureSpace([0.5, 0.5]).size == 2
    assert FiniteMeasureSpace([0.2, 0.3, 0.5]).size == 3


def test_make_space_rejects_nonpositive():
    with pytest.raises(ValueError, match=r"^nonpositive weight -0\.5 at atom 1;"):
        FiniteMeasureSpace([0.5, -0.5, 1.0])
    with pytest.raises(ValueError, match="nonpositive"):
        FiniteMeasureSpace([1.0, 0.0])


def test_make_space_rejects_bad_sum_and_reports_deviation():
    with pytest.raises(ValueError, match="deviation"):
        FiniteMeasureSpace([0.5, 0.6])
    # within the 1e-9 input tolerance: accepted, never renormalized
    sp = FiniteMeasureSpace([0.5, 0.5 + 5e-10])
    assert sp.weights[1] == 0.5 + 5e-10


@pytest.mark.parametrize("excess, accepted", [(0.9e-9, True), (1.1e-9, False)])
def test_one_weight_sum_tolerance_for_every_probability_vector(excess, accepted):
    # a space's weights, a distribution file and a chain's nu read munorm.WEIGHT_SUM_TOL
    from munorm import WEIGHT_SUM_TOL, io, markov_entropy_rate

    assert WEIGHT_SUM_TOL == 1e-9
    weights = [0.5, 0.5 + excess]
    for read in (lambda: FiniteMeasureSpace(weights),
                 lambda: io.distribution_from_obj({"weights": weights}),
                 lambda: markov_entropy_rate(np.eye(2), weights)):
        if accepted:
            read()
        else:
            with pytest.raises(ValueError, match="sum to 1|probability distribution"):
                read()


def test_measure_of():
    u4 = FiniteMeasureSpace([0.25] * 4)
    assert u4.measure([0, 1]) == pytest.approx(0.5, abs=1e-15)
    assert u4.measure([]) == 0.0
    assert FiniteMeasureSpace([0.2, 0.3, 0.5]).measure([2]) == pytest.approx(0.5, abs=1e-15)


def test_measure_of_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        FiniteMeasureSpace([0.5, 0.5]).measure([2])


def test_join_crossing_pairs():
    chi = Partition(4, [[0, 1], [2, 3]])
    kappa = Partition(4, [[0, 2], [1, 3]])
    assert join(chi, kappa) == Partition(4, [[0], [1], [2], [3]])


def test_join_finest_absorbing_and_idempotent():
    sp = FiniteMeasureSpace([0.25] * 4)
    chi = Partition(4, [[0, 1], [2, 3]])
    assert join(chi, finest_partition(sp)) == finest_partition(sp)
    assert join(chi, chi) == chi


def test_join_rejects_mismatched_sizes():
    with pytest.raises(ValueError, match="mismatched"):
        join(Partition(2, [[0], [1]]), Partition(3, [[0], [1], [2]]))


def test_finest_partition():
    assert finest_partition(FiniteMeasureSpace([1 / 3] * 3)).blocks == ((0,), (1,), (2,))
    assert finest_partition(FiniteMeasureSpace([1.0])).blocks == ((0,),)
    assert len(finest_partition(FiniteMeasureSpace([0.5, 0.5]))) == 2


def test_partition_validation():
    with pytest.raises(ValueError, match="empty block"):
        Partition(2, [[0, 1], []])
    with pytest.raises(ValueError, match="not disjoint"):
        Partition(2, [[0, 1], [1]])
    with pytest.raises(ValueError, match="do not cover"):
        Partition(3, [[0], [2]])


def test_partition_refusals_name_the_least_atom():
    with pytest.raises(ValueError, match="atom 1 appears more than once"):
        Partition(4, [[3, 1], [3, 0], [3, 2], [1]])
    with pytest.raises(ValueError, match="atom 1 appears more than once"):
        Partition(3, [[0, 1], [1]])  # as many atoms as the space has
    with pytest.raises(ValueError, match="atom 2 is missing"):
        Partition(5, [[4, 0], [3, 1]])
    # a shared atom is reported before a missing one
    with pytest.raises(ValueError, match="atom 3 appears more than once"):
        Partition(5, [[3], [3, 1], [4]])
    with pytest.raises(ValueError, match="atom 0 is missing"):
        Partition(2, [])


def test_partition_entries_go_through_int():
    # repeats inside a block collapse; numpy integer entries become ints
    p = Partition(3, [[2, 2, 0], np.array([1, 1])])
    assert p.blocks == ((0, 2), (1,))
    q = Partition(3, [(2, np.int32(0)), (j for j in [1])])
    assert q.blocks == p.blocks
    assert {type(j) for b in q.blocks for j in b} == {int}
    with pytest.raises(TypeError):  # a float entry is refused, not truncated
        Partition(3, [(2.0, np.int32(0)), (j for j in [1])])


def test_blocks_are_canonically_ordered():
    p = Partition(4, [[3, 2], [1, 0]])
    assert p.blocks == ((0, 1), (2, 3))


@st.composite
def partitions(draw, size):
    labels = draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size))
    blocks: dict[int, list[int]] = {}
    for atom, lab in enumerate(labels):
        blocks.setdefault(lab, []).append(atom)
    return Partition(size, blocks.values())


@st.composite
def sized_partition_pairs(draw):
    size = draw(st.integers(1, 8))
    return draw(partitions(size)), draw(partitions(size))


@settings(max_examples=200, deadline=None)
@given(sized_partition_pairs())
def test_join_commutative_and_refining(pair):
    chi, kappa = pair
    assert join(chi, kappa) == join(kappa, chi)
    # every block of the join lies inside one block of chi and one of kappa
    for block in join(chi, kappa):
        assert any(set(block) <= set(y) for y in chi)
        assert any(set(block) <= set(x) for x in kappa)
    assert join(chi, chi) == chi


@st.composite
def sized_partition_triples(draw):
    size = draw(st.integers(1, 6))
    return (draw(partitions(size)), draw(partitions(size)), draw(partitions(size)))


@settings(max_examples=100, deadline=None)
@given(sized_partition_triples())
def test_join_associative(triple):
    a, b, c = triple
    assert join(join(a, b), c) == join(a, join(b, c))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=8),
       st.integers(0, 10**6))
def test_measure_additive_over_disjoint_subsets(raw, pick):
    weights = np.asarray(raw) / np.sum(raw)
    sp = FiniteMeasureSpace(weights)
    mask = [(pick >> j) & 1 for j in range(sp.size)]
    a = [j for j in range(sp.size) if mask[j]]
    b = [j for j in range(sp.size) if not mask[j]]
    assert sp.measure(a) + sp.measure(b) == pytest.approx(sp.measure(range(sp.size)), abs=1e-12)
