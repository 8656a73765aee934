"""Symbolic calculus of abstract open books.

Pages are handle inventories, monodromies are words in labeled twist
generators.  The sound moves are: cyclic rotation, conjugation, attaching a
page handle below the critical index with the word untouched, stabilization
(critical handle + one appended positive letter along the resulting sphere),
and its inverse.  Words reduce freely; no other relations are imposed, so
equivalence testing is three-valued (True / "unknown").

Descriptor text format (one item per line, inventories sorted by label):

    page <half_dim>
    handle <label> index <k> framing <tag>
    sphere <label> supports <h1,h2,...> [disk <label> tag <tag>]
    disk <label> tag <tag>
    word <label>^<+1|-1> <label>^<+1|-1> ...

The ``disk`` clause on a sphere records the Legendrian-boundary disk consumed
by the stabilization that created it (the sphere meets that handle's belt
sphere once), which is exactly what destabilization restores.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Iterable, Iterator, Literal, Optional, Union

Letter = tuple[str, int]


def _check_token(kind: str, value: str, comma: bool = False) -> None:
    """Refuse a label or tag that to_text cannot write back: the text splits
    lines on whitespace and a sphere's supports on commas, and stabilizing
    along disk d adds the handle h(d)."""
    if value.split() != [value] or (comma and "," in value):
        rule = "without whitespace or commas" if comma else "without whitespace"
        raise ValueError(f"{kind} {value!r} must be non-empty and {rule}")


@dataclass(frozen=True)
class Handle:
    label: str
    index: int
    framing: str

    def __post_init__(self):
        _check_token("handle label", self.label, comma=True)
        _check_token(f"framing of handle {self.label}", self.framing)


@dataclass(frozen=True)
class DiskBoundary:
    label: str
    tag: str

    def __post_init__(self):
        _check_token("disk label", self.label, comma=True)
        _check_token(f"tag of disk {self.label}", self.tag)


@dataclass(frozen=True)
class LagrangianSphere:
    label: str
    supports: tuple[str, ...]
    from_disk: Optional[DiskBoundary] = None  # set iff created by stabilization

    def __post_init__(self):
        _check_token("sphere label", self.label)
        if not self.supports:
            raise ValueError(f"sphere {self.label} must ride at least one handle")
        for h in self.supports:
            _check_token(f"support of sphere {self.label}", h, comma=True)


_by_label = attrgetter("label")


def _hash_once(value, fields: tuple) -> int:
    # the search hashes every page and descriptor it meets, often more than
    # once; the fields are immutable, so the hash is taken once per value
    h = hash(fields)
    object.__setattr__(value, "_hash", h)
    return h


def _state_without_hash(value) -> dict:
    # string hashes differ between interpreters: a pickle carries no hash
    return {k: v for k, v in value.__dict__.items() if k != "_hash"}


@dataclass(frozen=True)
class AbstractPage:
    """A page as its handle, sphere and disk inventories, each sorted by label.

    The public constructor checks the inventories and refuses a page that a
    move could not act on.  The moves build their pages from a checked page
    and the labels it reserves, through :meth:`_from_checked`, which only
    sorts: every move keeps the checks true, so they are not run again."""

    half_dim: int = 2
    handles: tuple[Handle, ...] = ()
    spheres: tuple[LagrangianSphere, ...] = ()
    disks: tuple[DiskBoundary, ...] = ()

    def __post_init__(self):
        if self.half_dim < 1:
            raise ValueError(f"page dimension must be positive, got {self.half_dim}")
        for h in self.handles:
            if not 0 <= h.index <= self.half_dim:
                raise ValueError(f"handle {h.label} index {h.index} lies outside "
                                 f"[0, {self.half_dim}]")
        object.__setattr__(self, "handles", tuple(sorted(self.handles, key=_by_label)))
        object.__setattr__(self, "spheres", tuple(sorted(self.spheres, key=_by_label)))
        object.__setattr__(self, "disks", tuple(sorted(self.disks, key=_by_label)))
        handle_labels = {h.label for h in self.handles}
        sphere_labels = {s.label for s in self.spheres}
        disk_labels = {d.label for d in self.disks}
        for group, labels, name in ((self.handles, handle_labels, "handle"),
                                    (self.spheres, sphere_labels, "sphere"),
                                    (self.disks, disk_labels, "disk")):
            if len(labels) != len(group):
                raise ValueError(f"duplicate {name} labels: {[x.label for x in group]}")
        # stabilizing along a page disk d adds h(d) and S(d), and destabilizing returns
        # a recorded d to the page: no handle or sphere but d's own may carry those labels
        owners = {d: ("", "") for d in disk_labels}
        for s in self.spheres:
            missing = set(s.supports) - handle_labels
            if missing:
                raise ValueError(f"sphere {s.label} references unknown handles {missing}")
            if s.from_disk is not None:
                if len(s.supports) != 1:
                    raise ValueError(f"stabilization sphere {s.label} must ride exactly "
                                     f"one handle, got {s.supports}")
                if s.from_disk.label in owners:
                    raise ValueError(f"stabilization sphere {s.label} records disk "
                                     f"{s.from_disk.label}, which is a page disk or "
                                     f"another sphere's disk")
                owners[s.from_disk.label] = (s.supports[0], s.label)
        for d, (h_owner, s_owner) in owners.items():
            h_label, s_label = _stab_handle_label(d), _stab_sphere_label(d)
            if (h_label != h_owner and h_label in handle_labels) or \
                    (s_label != s_owner and s_label in sphere_labels):
                raise ValueError(f"labels {h_label} and {s_label} are reserved for "
                                 f"stabilizing along disk {d}")

    @classmethod
    def _from_checked(cls, half_dim: int, handles: Iterable[Handle],
                      spheres: Iterable[LagrangianSphere],
                      disks: Iterable[DiskBoundary]) -> AbstractPage:
        """The page a move derives from a checked page: sorted, not re-checked."""
        page = object.__new__(cls)
        page.__dict__.update(half_dim=half_dim,
                             handles=tuple(sorted(handles, key=_by_label)),
                             spheres=tuple(sorted(spheres, key=_by_label)),
                             disks=tuple(sorted(disks, key=_by_label)))
        return page

    def __hash__(self):
        try:
            return self.__dict__["_hash"]
        except KeyError:
            return _hash_once(self, (self.half_dim, self.handles, self.spheres, self.disks))

    __getstate__ = _state_without_hash

    def sphere(self, label: str) -> LagrangianSphere:
        for s in self.spheres:
            if s.label == label:
                return s
        raise KeyError(f"no sphere labeled {label}")


@dataclass(frozen=True)
class OpenBookDesc:
    """An abstract open book: a page and its monodromy as a word of twists.

    The public constructor checks that every letter names a sphere of the
    page with power +1 or -1.  The moves build their results from a checked
    descriptor's letters through :meth:`_from_checked`, which checks nothing."""

    page: AbstractPage
    word: tuple[Letter, ...] = ()

    def __post_init__(self):
        sphere_labels = {s.label for s in self.page.spheres}
        for label, power in self.word:
            if label not in sphere_labels:
                raise ValueError(f"word letter {label} has no sphere on the page")
            if power not in (1, -1):
                raise ValueError(f"letter power must be +1 or -1, got {power}")

    @classmethod
    def _from_checked(cls, page: AbstractPage, word: tuple[Letter, ...]) -> OpenBookDesc:
        """The descriptor a move derives from a checked one: not re-checked."""
        desc = object.__new__(cls)
        desc.__dict__.update(page=page, word=word)
        return desc

    def __hash__(self):
        try:
            return self.__dict__["_hash"]
        except KeyError:
            return _hash_once(self, (self.page, self.word))

    __getstate__ = _state_without_hash


def reduce_word(word: Iterable[Letter]) -> tuple[Letter, ...]:
    """Cancel adjacent inverse pairs until stable (free reduction only)."""
    out: list[Letter] = []
    for letter in word:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def is_positive_word(word: Iterable[Letter]) -> bool:
    """All letters right-handed; whether a word is merely *equivalent* to a
    positive one is not decided by the move calculus."""
    return all(power == 1 for _, power in word)


# ---------------------------------------------------------------------------
# moves
# ---------------------------------------------------------------------------

def cyclic_rotate(desc: OpenBookDesc) -> OpenBookDesc:
    """Move the last letter to the front (an equivalence of open books)."""
    if not desc.word:
        return desc
    rotated = (desc.word[-1],) + desc.word[:-1]
    return OpenBookDesc._from_checked(desc.page, reduce_word(rotated))


def cyclic_rotate_back(desc: OpenBookDesc) -> OpenBookDesc:
    """Move the first letter to the back; inverse of :func:`cyclic_rotate`."""
    if not desc.word:
        return desc
    rotated = desc.word[1:] + (desc.word[0],)
    return OpenBookDesc._from_checked(desc.page, reduce_word(rotated))


def conjugate(desc: OpenBookDesc, by: str, power: int = 1) -> OpenBookDesc:
    """word -> c^-1 word c for the letter c = (by, power), freely reduced."""
    desc.page.sphere(by)
    if power not in (1, -1):
        raise ValueError("conjugating power must be +1 or -1")
    word = ((by, -power),) + desc.word + ((by, power),)
    return OpenBookDesc._from_checked(desc.page, reduce_word(word))


def subcritical_attach(desc: OpenBookDesc, label: str, index: int,
                       framing: str = "std") -> OpenBookDesc:
    """Attach a page handle below the critical index; the monodromy extends
    as the identity, so the word is untouched.  The recorded framing carries
    the extra disk-plane factor of the ambient picture."""
    if index >= desc.page.half_dim:
        raise ValueError(f"subcritical attachment needs index < {desc.page.half_dim}")
    handle = Handle(label, index, f"{framing}+D2")
    page = replace(desc.page, handles=desc.page.handles + (handle,))
    return OpenBookDesc(page, desc.word)


def _stab_handle_label(disk_label: str) -> str:
    return f"h({disk_label})"


def _stab_sphere_label(disk_label: str) -> str:
    return f"S({disk_label})"


def stabilize(desc: OpenBookDesc, disk_label: str) -> OpenBookDesc:
    """Attach a critical handle along the disk boundary, register the sphere
    spanned by the disk and the core (it meets the new belt sphere once), and
    append one right-handed letter along it."""
    disk = None
    for d in desc.page.disks:
        if d.label == disk_label:
            disk = d
    if disk is None:
        raise KeyError(f"no Legendrian-boundary disk labeled {disk_label}")
    h_label = _stab_handle_label(disk_label)
    s_label = _stab_sphere_label(disk_label)
    handle = Handle(h_label, desc.page.half_dim, f"{disk.tag}+core")
    sphere = LagrangianSphere(s_label, (h_label,), from_disk=disk)
    # the page reserves h(d) and S(d) for this move, so the checks still hold
    page = AbstractPage._from_checked(
        desc.page.half_dim, desc.page.handles + (handle,), desc.page.spheres + (sphere,),
        (d for d in desc.page.disks if d.label != disk_label))
    return OpenBookDesc._from_checked(page, desc.word + ((s_label, 1),))


def destabilize(desc: OpenBookDesc) -> Optional[OpenBookDesc]:
    """Undo a stabilization: the final letter must be a positive twist along
    a stabilization sphere whose handle nothing else references.  Returns
    None when the pattern is absent (never guesses)."""
    if not desc.word:
        return None
    label, power = desc.word[-1]
    if power != 1:
        return None
    sphere = desc.page.sphere(label)
    if sphere.from_disk is None:
        return None
    h_label = sphere.supports[0]
    for s in desc.page.spheres:
        if s.label != label and h_label in s.supports:
            return None
    if any(lbl == label for lbl, _ in desc.word[:-1]):
        return None
    # the recorded disk belongs to no other sphere and its labels to this
    # sphere and handle alone, so the checks still hold
    page = AbstractPage._from_checked(
        desc.page.half_dim, (h for h in desc.page.handles if h.label != h_label),
        (s for s in desc.page.spheres if s.label != label),
        desc.page.disks + (sphere.from_disk,))
    return OpenBookDesc._from_checked(page, desc.word[:-1])


# ---------------------------------------------------------------------------
# serialization (canonical, round-trips exactly)
# ---------------------------------------------------------------------------

def to_text(desc: OpenBookDesc) -> str:
    lines = [f"page {desc.page.half_dim}"]
    for h in desc.page.handles:
        lines.append(f"handle {h.label} index {h.index} framing {h.framing}")
    for s in desc.page.spheres:
        supports = ",".join(s.supports)
        line = f"sphere {s.label} supports {supports}"
        if s.from_disk is not None:
            line += f" disk {s.from_disk.label} tag {s.from_disk.tag}"
        lines.append(line)
    for d in desc.page.disks:
        lines.append(f"disk {d.label} tag {d.tag}")
    word = " ".join(f"{lbl}^{pw:+d}" for lbl, pw in desc.word)
    lines.append(f"word {word}".rstrip())
    return "\n".join(lines) + "\n"


# token count of each line kind, and the keywords at fixed positions; a
# sphere line may carry the optional disk clause
_LINE_SHAPES = {
    "page": ((2,), {}),
    "handle": ((6,), {2: "index", 4: "framing"}),
    "sphere": ((4, 8), {2: "supports", 4: "disk", 6: "tag"}),
    "disk": ((4,), {2: "tag"}),
}


# the integers that to_text writes; int() would also take "1_0" and
# non-ASCII digits such as "３"
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _int_token(token: str, raw: str) -> int:
    if not _INTEGER.fullmatch(token):
        raise ValueError(f"expected an integer, got {token!r} in line: {raw}")
    return int(token)


def from_text(text: str) -> OpenBookDesc:
    """Parse the descriptor text format; a malformed line raises ValueError
    naming it, and so does text without a page line."""
    if not text.strip():
        raise ValueError("empty descriptor text")
    handles: list[Handle] = []
    spheres: list[LagrangianSphere] = []
    disks: list[DiskBoundary] = []
    word: tuple[Letter, ...] = ()
    seen = set()
    for raw in text.strip().splitlines():
        parts = raw.split()
        if not parts:
            continue
        kind = parts[0]
        if kind in ("page", "word"):
            if kind in seen:
                raise ValueError(f"repeated {kind} line: {raw}")
            seen.add(kind)
        if kind in _LINE_SHAPES:
            counts, keywords = _LINE_SHAPES[kind]
            if len(parts) not in counts or any(
                    parts[i] != kw for i, kw in keywords.items() if i < len(parts)):
                raise ValueError(f"malformed {kind} line: {raw}")
        if kind == "page":
            half_dim = _int_token(parts[1], raw)
        elif kind == "handle":
            handles.append(Handle(parts[1], _int_token(parts[3], raw), parts[5]))
        elif kind == "sphere":
            supports = tuple(parts[3].split(","))
            from_disk = DiskBoundary(parts[5], parts[7]) if len(parts) == 8 else None
            spheres.append(LagrangianSphere(parts[1], supports, from_disk))
        elif kind == "disk":
            disks.append(DiskBoundary(parts[1], parts[3]))
        elif kind == "word":
            letters = []
            for tok in parts[1:]:
                lbl, _, pw = tok.rpartition("^")
                letters.append((lbl, _int_token(pw, raw)))
            word = tuple(letters)
        else:
            raise ValueError(f"unknown descriptor line: {raw}")
    if "page" not in seen:
        raise ValueError("descriptor text has no page line: page <half_dim>")
    page = AbstractPage(half_dim, tuple(handles), tuple(spheres), tuple(disks))
    return OpenBookDesc(page, word)


# ---------------------------------------------------------------------------
# bounded equivalence search
# ---------------------------------------------------------------------------

def neighbors(desc: OpenBookDesc) -> Iterator[OpenBookDesc]:
    """Every one-move neighbor, built as it is taken, so that a search that
    stops at a meeting builds none of the rest."""
    # both rotation directions keep the search metric symmetric, which the
    # meet-in-the-middle strategy requires
    yield cyclic_rotate(desc)
    yield cyclic_rotate_back(desc)
    for s in desc.page.spheres:
        yield conjugate(desc, s.label, 1)
        yield conjugate(desc, s.label, -1)
    for d in desc.page.disks:
        yield stabilize(desc, d.label)
    undone = destabilize(desc)
    if undone is not None:
        yield undone


def equivalent_up_to_moves(d1: OpenBookDesc, d2: OpenBookDesc, depth: int = 6,
                           max_nodes: int = 50000) -> Union[bool, Literal["unknown"]]:
    """Bidirectional breadth-first search over the sound moves.

    Returns True when a move chain of length <= depth connects the
    descriptors, and "unknown" when the bound (or the node budget) is
    exhausted -- never False, since the move calculus is not known to be
    complete.  States are keyed by their descriptor values, so two
    descriptors meet only when they are equal (each page hashes once)."""
    if d1 == d2:
        return True
    # every move is invertible, so meet-in-the-middle search is sound
    front = [d1]
    back = [d2]
    seen_front = {d1}
    seen_back = {d2}
    steps_front = (depth + 1) // 2
    steps_back = depth // 2
    nodes = 0
    for level in range(max(steps_front, steps_back)):
        for side in ("front", "back"):
            if side == "front" and level >= steps_front:
                continue
            if side == "back" and level >= steps_back:
                continue
            frontier = front if side == "front" else back
            seen = seen_front if side == "front" else seen_back
            other_seen = seen_back if side == "front" else seen_front
            new: list[OpenBookDesc] = []
            for desc in frontier:
                for nb in neighbors(desc):
                    if nb in other_seen:
                        return True
                    if nb not in seen:
                        seen.add(nb)
                        new.append(nb)
                        nodes += 1
                        if nodes > max_nodes:
                            return "unknown"
            if side == "front":
                front = new
            else:
                back = new
    return "unknown"
