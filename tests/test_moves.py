"""Abstract open book descriptors and the sound move calculus."""

import dataclasses
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactlab import moves as mv


def sample_desc():
    page = mv.AbstractPage(
        half_dim=3,
        handles=(mv.Handle("h0", 1, "std+D2"), mv.Handle("h1", 2, "std+D2")),
        spheres=(mv.LagrangianSphere("A", ("h0",)), mv.LagrangianSphere("B", ("h1",))),
        disks=(mv.DiskBoundary("d1", "t1"), mv.DiskBoundary("d2", "t2")))
    return mv.OpenBookDesc(page, (("A", 1), ("B", 1)))


def test_label_uniqueness_enforced():
    with pytest.raises(ValueError, match="duplicate"):
        mv.AbstractPage(2, (mv.Handle("h", 1, "a"), mv.Handle("h", 1, "b")))
    with pytest.raises(ValueError, match="unknown handles"):
        mv.AbstractPage(2, (), (mv.LagrangianSphere("S", ("nope",)),))
    with pytest.raises(ValueError, match="no sphere"):
        mv.OpenBookDesc(mv.AbstractPage(2), (("ghost", 1),))


def test_cyclic_rotate_examples():
    d = sample_desc()
    assert mv.cyclic_rotate(d).word == (("B", 1), ("A", 1))
    empty = mv.OpenBookDesc(d.page, ())
    assert mv.cyclic_rotate(empty).word == ()
    single = mv.OpenBookDesc(d.page, (("A", 1),))
    assert mv.cyclic_rotate(single).word == (("A", 1),)


def test_conjugate_examples():
    d = sample_desc()
    single = mv.OpenBookDesc(d.page, (("A", 1),))
    assert mv.conjugate(single, "B").word == (("B", -1), ("A", 1), ("B", 1))
    # conjugating [A] by A reduces back to [A]
    assert mv.conjugate(single, "A").word == (("A", 1),)
    twice = mv.conjugate(mv.conjugate(d, "B", 1), "B", -1)
    assert twice == d
    with pytest.raises(KeyError):
        mv.conjugate(d, "nope")


def test_subcritical_attach():
    d = sample_desc()
    out = mv.subcritical_attach(d, "hx", 1, "eps")
    assert out.word == d.word
    labels = [h.label for h in out.page.handles]
    assert "hx" in labels
    new = out.page.handles[labels.index("hx")]
    assert new.framing == "eps+D2"
    again = mv.subcritical_attach(out, "hy", 2)
    assert len(again.page.handles) == 4
    with pytest.raises(ValueError, match="index"):
        mv.subcritical_attach(d, "hz", 3)


def test_stabilize_registers_sphere_and_letter():
    d = sample_desc()
    out = mv.stabilize(d, "d1")
    assert out.word == d.word + (("S(d1)", 1),)
    sph = out.page.sphere("S(d1)")
    assert sph.supports == ("h(d1)",)
    assert sph.from_disk == mv.DiskBoundary("d1", "t1")
    assert all(x.label != "d1" for x in out.page.disks)
    with pytest.raises(KeyError):
        mv.stabilize(d, "missing")


def test_destabilize_inverts_stabilize():
    d = sample_desc()
    assert mv.destabilize(mv.stabilize(d, "d1")) == d
    two = mv.stabilize(mv.stabilize(d, "d1"), "d2")
    assert mv.destabilize(mv.destabilize(two)) == d


def test_destabilize_not_applicable_cases():
    d = sample_desc()
    assert mv.destabilize(d) is None  # last letter is not a stabilization sphere
    assert mv.destabilize(mv.OpenBookDesc(d.page, ())) is None
    # the stabilization letter must be last and unique
    stab = mv.stabilize(d, "d1")
    moved = mv.cyclic_rotate(stab)
    assert mv.destabilize(moved) is None
    doubled = mv.OpenBookDesc(stab.page, stab.word + stab.word[-1:])
    assert mv.destabilize(doubled) is None  # appears twice


def test_destabilize_after_rotation_composite():
    # word [A, S, A]: rotating once exposes the stabilization letter at the end
    d = sample_desc()
    stab = mv.stabilize(d, "d1")
    word = (("A", 1), ("S(d1)", 1), ("A", 1))
    desc = mv.OpenBookDesc(stab.page, word)
    assert mv.destabilize(desc) is None
    rotated = mv.cyclic_rotate(desc)
    out = mv.destabilize(rotated)
    assert out is not None
    assert out.word == (("A", 1), ("A", 1))


def test_serialization_roundtrip_and_golden():
    d = mv.stabilize(sample_desc(), "d1")
    text = mv.to_text(d)
    assert mv.from_text(text) == d
    expected = (
        "page 3\n"
        "handle h(d1) index 3 framing t1+core\n"
        "handle h0 index 1 framing std+D2\n"
        "handle h1 index 2 framing std+D2\n"
        "sphere A supports h0\n"
        "sphere B supports h1\n"
        "sphere S(d1) supports h(d1) disk d1 tag t1\n"
        "disk d2 tag t2\n"
        "word A^+1 B^+1 S(d1)^+1\n")
    assert text == expected


@pytest.mark.parametrize("text, named", [
    ("page 3\npage 4", "repeated page line: page 4"),
    ("page 3\nhandle h0 index 1 framing std\nsphere A supports h0\nword A^+1\nword A^-1",
     "repeated word line: word A^-1"),
    ("page 0", "got 0"),
    ("page -2", "got -2"),
    ("page 3\nhandle h0 index 9 framing std", "index 9"),
    ("page 3\nhandle h0 index -1 framing std", "index -1"),
    # stabilizing along d1 would add a second h(d1) and S(d1)
    ("page 3\nhandle h(d1) index 3 framing t1+core\n"
     "sphere S(d1) supports h(d1) disk d1 tag t1\ndisk d1 tag t1\nword S(d1)^+1",
     "records disk d1, which is a page disk"),
    ("page 3\nhandle h(d1) index 1 framing std\ndisk d1 tag t1",
     "labels h(d1) and S(d1) are reserved for stabilizing along disk d1"),
    ("page 3\nhandle h0 index 1 framing std\nsphere S(d0) supports h0\ndisk d0 tag t0",
     "labels h(d0) and S(d0) are reserved for stabilizing along disk d0"),
    # destabilizing would put a second disk d1 on the page
    ("page 3\nhandle h(d1) index 3 framing t1+core\nhandle h(e) index 3 framing t1+core\n"
     "sphere S(d1) supports h(d1) disk d1 tag t1\nsphere S(e) supports h(e) disk d1 tag t1",
     "records disk d1, which is a page disk or another sphere's disk"),
    # destabilizing S(d1) would put d1 back beside a handle h(d1) it does not ride
    ("page 3\nhandle h(d1) index 1 framing std\nhandle k index 3 framing t1+core\n"
     "sphere S(d1) supports k disk d1 tag t1\nword S(d1)^+1",
     "labels h(d1) and S(d1) are reserved for stabilizing along disk d1"),
])
def test_from_text_rejects_descriptors_that_cannot_work(text, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        mv.from_text(text)


@pytest.mark.parametrize("half_dim, index, named", [
    (0, 0, "got 0"), (-1, 0, "got -1"), (3, 4, "index 4"), (2, -1, "index -1")])
def test_page_rejects_bad_dimension_or_handle_index(half_dim, index, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        mv.AbstractPage(half_dim, (mv.Handle("h", index, "std"),))


def test_subcritical_attach_rejects_a_negative_index():
    with pytest.raises(ValueError, match="index -1"):
        mv.subcritical_attach(sample_desc(), "h", -1)


def test_from_text_rejects_malformed_lines():
    with pytest.raises(ValueError, match="malformed handle"):
        mv.from_text("page 2\nhandle h0 idx 1 framing f\nword \n")
    with pytest.raises(ValueError, match="unknown descriptor"):
        mv.from_text("page 2\nbogus entry\nword \n")


@st.composite
def descriptors(draw):
    n_h = draw(st.integers(1, 3))
    handles = tuple(mv.Handle(f"h{i}", draw(st.integers(1, 2)), "std+D2")
                    for i in range(n_h))
    n_s = draw(st.integers(1, 3))
    spheres = tuple(mv.LagrangianSphere(
        f"B{i}", (handles[draw(st.integers(0, n_h - 1))].label,))
        for i in range(n_s))
    disks = tuple(mv.DiskBoundary(f"d{i}", f"t{i}")
                  for i in range(draw(st.integers(0, 2))))
    page = mv.AbstractPage(3, handles, spheres, disks)
    word = tuple((spheres[draw(st.integers(0, n_s - 1))].label,
                  draw(st.sampled_from([-1, 1])))
                 for _ in range(draw(st.integers(0, 4))))
    return mv.OpenBookDesc(page, mv.reduce_word(word))


@given(descriptors())
@settings(max_examples=60, deadline=None)
def test_serialization_roundtrips_randomized(desc):
    assert mv.from_text(mv.to_text(desc)) == desc


@given(descriptors())
@settings(max_examples=60, deadline=None)
def test_moves_preserve_descriptor_invariants(desc):
    # applying any available move yields a valid descriptor (constructors
    # re-check label consistency on every build)
    for nb in mv.neighbors(desc):
        assert isinstance(nb, mv.OpenBookDesc)
        if desc.page.disks:
            stab = mv.stabilize(desc, desc.page.disks[0].label)
            assert mv.destabilize(stab) == desc


def test_word_reduction():
    assert mv.reduce_word([("A", 1), ("A", -1)]) == ()
    assert mv.reduce_word([("A", 1), ("B", 1), ("B", -1), ("A", -1)]) == ()
    assert mv.reduce_word([("A", 1), ("A", 1)]) == (("A", 1), ("A", 1))
    assert mv.is_positive_word((("A", 1), ("B", 1)))
    assert not mv.is_positive_word((("A", -1),))


def test_equivalence_basic():
    d = sample_desc()
    assert mv.equivalent_up_to_moves(d, d, depth=0) is True
    assert mv.equivalent_up_to_moves(d, mv.cyclic_rotate(d), depth=1) is True
    assert mv.equivalent_up_to_moves(d, mv.stabilize(d, "d1"), depth=1) is True
    assert mv.equivalent_up_to_moves(d, mv.conjugate(d, "A", 1), depth=2) is True


def test_equivalence_symmetric_on_true_answers():
    d = sample_desc()
    for other in (mv.stabilize(d, "d2"), mv.conjugate(d, "B", -1)):
        assert mv.equivalent_up_to_moves(d, other, depth=3) is True
        assert mv.equivalent_up_to_moves(other, d, depth=3) is True


def test_equivalence_never_false_positive_on_distinct_pages():
    d = sample_desc()
    page2 = mv.AbstractPage(3, d.page.handles + (mv.Handle("extra", 1, "f+D2"),),
                            d.page.spheres, d.page.disks)
    other = mv.OpenBookDesc(page2, d.word)
    assert mv.equivalent_up_to_moves(d, other, depth=4) == "unknown"


def test_equivalence_respects_node_budget():
    d = sample_desc()
    far = d
    for letter in ("A", "B", "A"):
        far = mv.conjugate(far, letter, -1)  # grows the word by two letters each
    assert len(far.word) == len(d.word) + 6
    # three conjugations away: out of reach at depth two, and the node budget
    # forces the three-valued answer even at a workable depth
    assert mv.equivalent_up_to_moves(d, far, depth=2) == "unknown"
    assert mv.equivalent_up_to_moves(d, far, depth=8, max_nodes=5) == "unknown"


def test_equivalence_chain_recognition():
    rng = np.random.default_rng(7)
    d = sample_desc()
    from contactlab.suites import _random_chain
    for _ in range(50):
        target = _random_chain(rng, d, int(rng.integers(1, 7)))
        assert mv.equivalent_up_to_moves(d, target, depth=6) is True


@pytest.mark.parametrize("build, label", [
    (lambda: mv.Handle("", 1, "std"), ""),
    (lambda: mv.Handle("h 0", 1, "std"), "h 0"),
    (lambda: mv.Handle("h0,h1", 1, "std"), "h0,h1"),
    (lambda: mv.Handle("h0", 1, "std x"), "std x"),
    (lambda: mv.Handle("h0", 1, ""), ""),
    (lambda: mv.DiskBoundary("d\t1", "t1"), "d\t1"),
    (lambda: mv.DiskBoundary("d1,d2", "t1"), "d1,d2"),
    (lambda: mv.DiskBoundary("d1", "t 1"), "t 1"),
    (lambda: mv.LagrangianSphere("S\n", ("h0",)), "S\n"),
    (lambda: mv.LagrangianSphere("S", ("h0,h1",)), "h0,h1"),
    (lambda: mv.LagrangianSphere("S", ("",)), ""),
    (lambda: mv.subcritical_attach(sample_desc(), "hx", 1, "std x"), "std x+D2"),
])
def test_labels_that_text_cannot_write_back_are_refused(build, label):
    with pytest.raises(ValueError) as exc:
        build()
    assert repr(label) in str(exc.value)


def test_a_sphere_without_supports_is_refused():
    with pytest.raises(ValueError, match="sphere S must ride at least one handle"):
        mv.LagrangianSphere("S", ())


def _unchecked(cls, *values):
    """An instance built around its own label checks, as at a parent that had none."""
    obj = object.__new__(cls)
    for f, value in zip(dataclasses.fields(cls), values):
        object.__setattr__(obj, f.name, value)
    return obj


def test_descriptors_with_equal_text_but_unequal_values_are_not_identified():
    # with a handle labeled "h0,h1", a sphere on ("h0,h1",) and a sphere on
    # ("h0", "h1") write the same text; the label is refused now, and the
    # search compares values, so the pair is no longer declared equivalent
    with pytest.raises(ValueError, match=re.escape("'h0,h1'")):
        mv.Handle("h0,h1", 1, "std")
    handles = (mv.Handle("h0", 1, "std"), mv.Handle("h1", 1, "std"),
               _unchecked(mv.Handle, "h0,h1", 1, "std"))
    one, two = (mv.OpenBookDesc(mv.AbstractPage(3, handles, (
        _unchecked(mv.LagrangianSphere, "S", supports, None),), (mv.DiskBoundary("d1", "t1"),)),
        (("S", 1),)) for supports in (("h0,h1",), ("h0", "h1")))
    assert one != two and mv.to_text(one) == mv.to_text(two)
    assert mv.equivalent_up_to_moves(one, two, depth=4) == "unknown"


def _text_keyed_search(d1, d2, depth, max_nodes=50000):
    """The bidirectional search keyed by descriptor text, as first written."""
    k1, k2 = mv.to_text(d1), mv.to_text(d2)
    if k1 == k2:
        return True
    front, back = {k1: d1}, {k2: d2}
    seen_front, seen_back = {k1}, {k2}
    steps_front, steps_back = (depth + 1) // 2, depth // 2
    nodes = 0
    for level in range(max(steps_front, steps_back)):
        for side in ("front", "back"):
            if level >= (steps_front if side == "front" else steps_back):
                continue
            frontier = front if side == "front" else back
            seen = seen_front if side == "front" else seen_back
            other_seen = seen_back if side == "front" else seen_front
            new = {}
            for desc in frontier.values():
                for nb in mv.neighbors(desc):
                    key = mv.to_text(nb)
                    if key in other_seen:
                        return True
                    if key not in seen:
                        seen.add(key)
                        new[key] = nb
                        nodes += 1
                        if nodes > max_nodes:
                            return "unknown"
            if side == "front":
                front = new
            else:
                back = new
    return "unknown"


def _chain_and_nonconnected_pairs(seed=0, n_chains=200, n_pages=100):
    """The pairs of move-chain-recognition and no-false-equivalence, with depths."""
    from contactlab.suites import _random_chain, _sample_page
    rng = np.random.default_rng([seed, 202])
    _sample_page(rng)
    pairs = []
    for _ in range(n_chains):
        desc = _sample_page(rng)
        pairs.append((desc, _random_chain(rng, desc, int(rng.integers(1, 7))), 6))
    rng = np.random.default_rng([seed, 303])
    for i in range(n_pages):
        desc = _sample_page(rng)
        page2 = mv.AbstractPage(desc.page.half_dim,
                                desc.page.handles + (mv.Handle(f"hx{i}", 1, "std+D2"),),
                                desc.page.spheres, desc.page.disks)
        pairs.append((desc, mv.OpenBookDesc(page2, desc.word), 4))
    return pairs


def test_value_keyed_search_repeats_the_text_keyed_verdicts():
    pairs = _chain_and_nonconnected_pairs()
    verdicts = [mv.equivalent_up_to_moves(a, b, depth=depth) for a, b, depth in pairs]
    assert verdicts == [_text_keyed_search(a, b, depth) for a, b, depth in pairs]
    assert verdicts.count(True) == 200 and verdicts.count("unknown") == 100
    # a small node budget stops both searches at the same node
    budget = [mv.equivalent_up_to_moves(a, b, depth=depth, max_nodes=40) for a, b, depth in pairs]
    assert budget == [_text_keyed_search(a, b, depth, 40) for a, b, depth in pairs]
    assert "unknown" in budget[:200]


def test_search_never_writes_descriptor_text(monkeypatch):
    pairs = _chain_and_nonconnected_pairs(n_chains=50, n_pages=20)

    def refuse(desc):
        raise AssertionError("the search wrote descriptor text")

    monkeypatch.setattr(mv, "to_text", refuse)
    verdicts = [mv.equivalent_up_to_moves(a, b, depth=depth) for a, b, depth in pairs]
    assert verdicts == [True] * 50 + ["unknown"] * 20


def test_a_page_hashes_its_fields_once_and_pickles_without_the_hash():
    page = sample_desc().page
    assert hash(page) == hash((page.half_dim, page.handles, page.spheres, page.disks))
    assert page.__dict__["_hash"] == hash(page)
    copy = pickle.loads(pickle.dumps(page))
    assert copy == page and "_hash" not in copy.__dict__
