"""Graph-family generators and swap scripts.

Families: diasters D(a,b), stars, beachballs, daisies, cycles, and stem
structures S(G,H) joining two star/beachball/daisy sides by a central
edge.  One fixed layout numbers every graph: a lone star, beachball or
daisy is one side at hub 0; a two-sided graph has the central edge as id
0 between vertices 0 (left hub) and 1 (right hub), then left edges as ids
1..a and right edges as a+1..a+b.  A diaster has two star sides (a or b
may be 0), so Stem(Star(a), Star(b)) is Diaster(a,b) by construction.

Swap scripts: on every pseudograph, two temporally isomorphic networks
admit a script of transpositions of consecutive labels on non-adjacent
edges taking one labeling onto the other up to label isomorphism.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple, Union

from .core import IsotemporalError, Pseudograph, TemporalNetwork, _Record, _file_graph, _set, adjacency
from .iso import label_isomorphism_witness, temporal_isomorphism_witness


class InvalidFamilyError(IsotemporalError):
    """Bad family parameters or unparseable family spec."""


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
    """Deterministic pseudograph for a family spec (fixed numbering), from the graph table."""
    n, pairs = _layout(spec)
    return _file_graph(n, tuple(pairs))


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
    down to its label, one swap with the edge below it at a time.  phi
    keeps the label order of every adjacent pair, so n and the target order
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

