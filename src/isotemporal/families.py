"""Graph-family generators and the two-sided structure toolkit.

Families: diasters D(a,b), stars, beachballs, daisies, cycles, and stem
structures S(G,H) joining two star/beachball/daisy sides by a central
edge.  One fixed layout numbers every graph: a lone star, beachball or
daisy is one side at hub 0; a two-sided graph has the central edge as id
0 between vertices 0 (left hub) and 1 (right hub), then left edges as ids
1..a and right edges as a+1..a+b.  A diaster has two star sides (a or b
may be 0), so Stem(Star(a), Star(b)) is Diaster(a,b) by construction.

The signature of a labeled two-sided graph (central label, count of left
labels below it) is a complete isotemporal-class invariant, reflected
when the graph is mirror-symmetric.  Swap scripts need no signature: on
every pseudograph, two temporally isomorphic networks admit a script of
transpositions of consecutive labels on non-adjacent edges taking one
labeling onto the other up to label isomorphism.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator, NamedTuple, Optional, Sequence, Union

from .core import IsotemporalError, Pseudograph, TemporalNetwork, _Record, _set, adjacency
from .iso import _candidates, _first, edge_automorphism_group, label_isomorphism_witness, temporal_isomorphism_witness


class InvalidFamilyError(IsotemporalError):
    """Bad family parameters or unparseable family spec."""


class NotGeneratedFamilyError(IsotemporalError):
    """The graph does not match any generated two-sided layout."""


class NoSwapScriptError(IsotemporalError):
    """The two labelings are not temporally isomorphic; no script exists."""


class _Side(_Record):  # a star, beachball or daisy: k >= 1 edges at one hub, its type tells which
    __slots__ = ("k",)

    def __init__(self, k: int):
        if k < 1:
            raise InvalidFamilyError(f"{type(self).__name__.lower()} parameter must be >= 1, got {k}")
        _set(self, "k", k)


class Star(_Side):
    __slots__ = ()


class Beachball(_Side):
    __slots__ = ()


class Daisy(_Side):
    __slots__ = ()


class Cycle(_Record):
    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 3:
            raise InvalidFamilyError(f"cycle length must be >= 3, got {n}")
        _set(self, "n", n)


class Diaster(_Record):
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        if a < 0 or b < 0 or a + b < 1:
            raise InvalidFamilyError(f"diaster needs a, b >= 0 and a + b >= 1, got ({a}, {b})")
        _set(self, "a", a)
        _set(self, "b", b)


_SIDES = (Star, Beachball, Daisy)


class Stem(_Record):
    __slots__ = ("left", "right")

    def __init__(self, left: _Side, right: _Side):
        for side in (left, right):
            if not isinstance(side, _Side):
                raise InvalidFamilyError(f"stem sides must be star/beachball/daisy, got {side!r}")
        _set(self, "left", left)
        _set(self, "right", right)


FamilySpec = Union[Diaster, Star, Beachball, Daisy, Cycle, Stem]


def spec_string(spec: FamilySpec) -> str:
    if isinstance(spec, Diaster):
        return f"diaster:{spec.a},{spec.b}"
    if isinstance(spec, Star):
        return f"star:{spec.k}"
    if isinstance(spec, Beachball):
        return f"beachball:{spec.k}"
    if isinstance(spec, Daisy):
        return f"daisy:{spec.k}"
    if isinstance(spec, Cycle):
        return f"cycle:{spec.n}"
    if isinstance(spec, Stem):
        return f"stem:{spec_string(spec.left)}/{spec_string(spec.right)}"
    raise InvalidFamilyError(f"unknown family spec {spec!r}")


def parse_family_spec(text: str) -> FamilySpec:
    """Parse 'diaster:a,b', 'star:k', 'beachball:k', 'daisy:k', 'cycle:n',
    or 'stem:<sub>/<sub>' where each sub is a star/beachball/daisy spec."""

    def bad(reason: str) -> InvalidFamilyError:
        return InvalidFamilyError(f"bad family spec {text!r}: {reason}")

    kind, _, rest = text.strip().partition(":")
    try:
        if kind == "diaster":
            if rest.count(",") != 1:
                raise bad("a diaster takes two comma-separated parameters")
            return Diaster(*map(int, rest.split(",")))
        if kind in ("star", "beachball", "daisy", "cycle"):
            value = int(rest)
            return {"star": Star, "beachball": Beachball, "daisy": Daisy, "cycle": Cycle}[kind](value)
        if kind == "stem":
            if rest.count("/") != 1:
                raise bad("stem needs two '/'-separated sides")
            left_s, _, right_s = rest.partition("/")
            if not left_s.strip() or not right_s.strip():
                raise bad("a stem side is empty")
            return Stem(parse_family_spec(left_s), parse_family_spec(right_s))
    except ValueError:
        raise bad("parameters must be integers") from None
    raise bad("unknown family kind")


def edge_count(spec: FamilySpec) -> int:
    if isinstance(spec, Diaster):
        return spec.a + spec.b + 1
    if isinstance(spec, _SIDES):
        return spec.k
    if isinstance(spec, Cycle):
        return spec.n
    if isinstance(spec, Stem):
        return spec.left.k + spec.right.k + 1
    raise InvalidFamilyError(f"unknown family spec {spec!r}")


def _side(kind: type, k: int, hub: int, first: int) -> tuple[int, Iterator[tuple[int, int]]]:
    """The new vertices (numbered from first) and the edges of a k-edge side at
    hub: edges to k new vertices (star), to one (beachball), or loops (daisy)."""
    if kind is Star:
        return k, ((hub, first + i) for i in range(k))
    if kind is Beachball:
        return 1, itertools.repeat((hub, first), k)
    return 0, itertools.repeat((hub, hub), k)


def _layout(spec: FamilySpec) -> tuple[int, Iterator[tuple[int, int]]]:
    """Vertex count and lazy edge pairs of the fixed layout of a family graph."""
    if isinstance(spec, _SIDES):
        extra, edges = _side(type(spec), spec.k, 0, 1)
        return 1 + extra, edges
    if isinstance(spec, Cycle):
        return spec.n, ((i, (i + 1) % spec.n) for i in range(spec.n))
    if isinstance(spec, Diaster):
        (left, a), (right, b) = (Star, spec.a), (Star, spec.b)
    elif isinstance(spec, Stem):
        (left, a), (right, b) = (type(spec.left), spec.left.k), (type(spec.right), spec.right.k)
    else:
        raise InvalidFamilyError(f"unknown family spec {spec!r}")
    left_extra, left_edges = _side(left, a, 0, 2)
    right_extra, right_edges = _side(right, b, 1, 2 + left_extra)
    return 2 + left_extra + right_extra, itertools.chain([(0, 1)], left_edges, right_edges)


def vertex_count(spec: FamilySpec) -> int:
    """Vertices of generate(spec), without building its edges."""
    return _layout(spec)[0]


def generate(spec: FamilySpec) -> Pseudograph:
    """Deterministic pseudograph for a family spec (fixed numbering)."""
    return Pseudograph.from_edges(*_layout(spec))


def enumerate_family_specs(max_edges: int, include_cycles: bool = False) -> list[FamilySpec]:
    """Every diaster (a <= b, both >= 1), star, beachball, daisy, and all
    nine stem type combinations with at most max_edges edges, sorted by
    spec string.  Cycles 3..max_edges are appended on request."""
    specs: list[FamilySpec] = []
    for a in range(1, max_edges):
        for b in range(a, max_edges - a):
            specs.append(Diaster(a, b))
    for k in range(1, max_edges + 1):
        specs += [Star(k), Beachball(k), Daisy(k)]
    for left_type, right_type in itertools.product(_SIDES, repeat=2):
        for a in range(1, max_edges - 1):
            for b in range(1, max_edges - a):
                specs.append(Stem(left_type(a), right_type(b)))
    if include_cycles:
        specs += [Cycle(n) for n in range(3, max_edges + 1)]
    return sorted(specs, key=spec_string)


class TwoSidedShape(NamedTuple):
    """Recognized layout of a generated diaster or stem structure."""

    a: int
    b: int
    reflective: bool


@functools.lru_cache(maxsize=None)
def recognize_two_sided(graph: Pseudograph) -> TwoSidedShape:
    """Match a graph against the generated stem layouts (diasters included).

    Each layout puts edge 0 and the a left edges, and no others, at vertex
    0, so a is read from the graph.  Both sides must be non-empty; a
    one-sided 'diaster' is a star whose central edge is not
    automorphism-invariant, so the signature machinery does not apply.
    """
    a = len(graph.incidence.get(0, ())) - 1
    b = graph.edge_count - 1 - a
    if a >= 1 and b >= 1:
        for left_type, right_type in itertools.product(_SIDES, repeat=2):
            if graph == generate(Stem(left_type(a), right_type(b))):
                return TwoSidedShape(a, b, a == b and left_type is right_type)
    raise NotGeneratedFamilyError("graph is not a generated diaster or stem structure")


class DiasterSignature(NamedTuple):
    """Complete isotemporal-class invariant of a two-sided labeling.

    central_label is the label on the central edge; left_below counts left
    edges labeled below it.  When the graph is mirror-symmetric the key
    folds left_below with its reflection.
    """

    central_label: int
    left_below: int
    reflective: bool

    @property
    def key(self) -> tuple[int, int]:
        k = self.left_below
        if self.reflective:
            k = min(k, self.central_label - 1 - k)
        return (self.central_label, k)


def diaster_signature(network: TemporalNetwork) -> DiasterSignature:
    """Signature of a labeled generated diaster or stem structure."""
    shape = recognize_two_sided(network.graph)
    central = network.labeling[0]
    k = sum(1 for e in range(1, shape.a + 1) if network.labeling[e] < central)
    return DiasterSignature(central, k, shape.reflective)


def binary_swap_sequence(a: Sequence[int], b: Sequence[int]) -> list[tuple[int, int]]:
    """Adjacent transpositions (1-based positions, application order) taking a to b.

    Both sequences must be 0/1 with equal length and equal zero counts.
    Every emitted swap exchanges unequal neighbors: scanning left to
    right, the nearest copy of the needed value is walked down one
    position at a time.
    """
    a = list(a)
    b = list(b)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if any(x not in (0, 1) for x in a + b):
        raise ValueError("sequences must be binary")
    if a.count(0) != b.count(0):
        raise ValueError(f"population mismatch: {a.count(0)} zeros vs {b.count(0)}")
    steps: list[tuple[int, int]] = []
    for i in range(len(a)):
        if a[i] == b[i]:
            continue
        j = next(idx for idx in range(i + 1, len(a)) if a[idx] == b[i])
        for p in range(j - 1, i - 1, -1):
            if a[p] == a[p + 1]:
                raise IsotemporalError("internal error: swap of identical elements")
            a[p], a[p + 1] = a[p + 1], a[p]
            steps.append((p + 1, p + 2))
    if a != b:
        raise IsotemporalError("internal error: swap sequence failed to reach target")
    return steps


class SwapStep(NamedTuple):
    """One transposition: the consecutive label pair and its carrying edges."""

    labels: tuple[int, int]
    edges: tuple[int, int]


SwapScript = tuple[SwapStep, ...]  # the steps in the order they apply


def apply_swap_script(network: TemporalNetwork, script: SwapScript) -> TemporalNetwork:
    """Replay a script, checking every step is a legal sequential swap."""
    adj = adjacency(network.graph)
    labeling = list(network.labeling)
    for step in script:
        lo, hi = step.labels
        e1, e2 = step.edges
        if hi != lo + 1:
            raise IsotemporalError(f"step labels {step.labels} are not consecutive")
        if labeling[e1] != lo or labeling[e2] != hi:
            raise IsotemporalError(f"step {step} does not match the current labeling")
        if adj.adjacent(e1, e2):
            raise IsotemporalError(f"step {step} swaps labels on adjacent edges")
        labeling[e1], labeling[e2] = labeling[e2], labeling[e1]
    return network.relabeled(labeling)


def diaster_swap_permutation(n: TemporalNetwork, m: TemporalNetwork) -> SwapScript:
    """Sequential swaps on non-adjacent edges taking n onto a labeling
    label-isomorphic to m, on any two pseudographs; NoSwapScriptError when
    the two networks are not temporally isomorphic.

    With phi the label isomorphism witness (the target is n, no swaps), or
    else the temporal one, the target gives edge e the label m puts on
    phi(e).  Over n's edges ordered by label, each target edge is walked
    down to its label, as binary_swap_sequence walks side bits.  phi keeps
    the label order of every adjacent pair, so n and the target order
    adjacent edges alike, and swaps keep that.  Every edge a walk passes is
    therefore inverted relative to the target, and so not adjacent to it.
    """
    phi = label_isomorphism_witness(n, m) or temporal_isomorphism_witness(n, m)
    if phi is None:
        raise NoSwapScriptError("not temporally isomorphic; no script exists")
    want = tuple(m.labeling[y] for y in phi.edge_map)
    order = sorted(range(n.edge_count), key=n.labeling.__getitem__)  # order[p] carries label p + 1
    steps: list[SwapStep] = []
    for i, e in enumerate(sorted(range(n.edge_count), key=want.__getitem__)):
        for p in range(order.index(e, i) - 1, i - 1, -1):
            steps.append(SwapStep((p + 1, p + 2), (order[p], order[p + 1])))
            order[p], order[p + 1] = order[p + 1], order[p]
    if apply_swap_script(n, steps).labeling != want:
        raise IsotemporalError("internal error: script did not reach the target")
    return tuple(steps)


class TransferReport(NamedTuple):
    """Whether class counts transfer between two graphs.

    holds is true when some edge bijection preserves adjacency both ways
    and conjugation by it carries one edge automorphism group onto the
    other; witness is that bijection.  failed_condition names the first
    condition that could not be met ('edge-adjacency' or
    'edge-automorphisms').
    """

    holds: bool
    witness: Optional[tuple[int, ...]]
    failed_condition: Optional[str]


def _line_graph(g: Pseudograph) -> Pseudograph:
    # one vertex per edge of g, joined when the two edges are adjacent; a loop
    # at each vertex, so that the search binds isolated edges in every way
    return Pseudograph.from_edges(g.edge_count, [(e, e) for e in range(g.edge_count)] + sorted(adjacency(g).pairs))


def check_transfer_conditions(g: Pseudograph, h: Pseudograph) -> TransferReport:
    """Search for an edge bijection preserving adjacency both ways (an
    isomorphism of line graphs), then check it conjugates the edge
    automorphism groups onto each other: with equal orders, generators (T
    and swaps of consecutive twins) conjugating into the other suffice."""
    if g.edge_count != h.edge_count:
        raise ValueError("graphs must have equal edge counts")
    t = g.edge_count
    aut_g, aut_h = edge_automorphism_group(g), edge_automorphism_group(h)
    generators = list(aut_g.transversal) + [
        tuple(f if x == e else e if x == f else x for x in range(t)) for c in aut_g.twin_classes for e, f in zip(c, c[1:])
    ]
    lg, lh = _line_graph(g), _line_graph(h)
    candidates = _candidates(lg.edge_kinds, lh.edge_kinds)

    def conjugates(phi: tuple[int, ...], _) -> bool:  # phi o p o phi^-1 in aut_h for every generator p
        inverse = sorted(range(t), key=phi.__getitem__)
        return all([phi[p[e]] for e in inverse] in aut_h for p in generators)

    if aut_g.order == aut_h.order and (found := _first(lg, lh, candidates, conjugates, None)):
        return TransferReport(True, found.vertex_map, None)
    if _first(lg, lh, candidates, lambda phi, _: True, None) is None:
        return TransferReport(False, None, "edge-adjacency")
    return TransferReport(False, None, "edge-automorphisms")
