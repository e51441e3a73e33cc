"""Graph states and their parent Hamiltonian.

The chain studied in the experiments is ``linear_graph(3)`` with qubit
ordering (A_p, B_s, B_p) = (0, 1, 2); in that ordering the ground state
equals (|+0+> + |-1->)/sqrt(2) up to global phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .linalg import I2, X, Z, ConfigError, tensor_all

__all__ = [
    "CHAIN",
    "Graph",
    "SpectrumReport",
    "linear_graph",
    "parse_graph",
    "format_graph",
    "build_graph_state",
    "parent_hamiltonian",
    "verify_spectrum",
]


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on ``n_vertices`` labelled 0..n-1."""

    n_vertices: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n_vertices < 1:
            raise ConfigError("graph needs at least one vertex")
        norm = set()
        for e in self.edges:
            i, j = sorted(e)
            if i == j:
                raise ConfigError(f"self-loop at vertex {i}")
            if not (0 <= i and j < self.n_vertices):
                raise ConfigError(f"edge {(i, j)} out of range for n={self.n_vertices}")
            norm.add((i, j))
        object.__setattr__(self, "edges", frozenset(norm))

    def neighbors(self, i):
        return sorted(j if a == i else a for (a, j) in self.edges if i in (a, j))


def linear_graph(n):
    """Path graph 0-1-...-(n-1), the 1D cluster geometry."""
    if n < 2:
        raise ConfigError("linear graph needs n >= 2")
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


# the 3-qubit chain (A_p, B_s, B_p) that sweeps, preparation targets and
# regime transitions are defined on
CHAIN = linear_graph(3)


def parse_graph(text):
    """Parse the edge-list form ``"n_vertices; i-j,i-j,..."``.

    The edge list may be empty (``"3;"`` is the edgeless 3-vertex graph).
    """
    head, _, tail = text.partition(";")
    try:
        n = int(head.strip())
    except ValueError:
        raise ConfigError(f"bad vertex count in graph string {text!r}") from None
    edges = set()
    for item in tail.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            i, j = (int(s) for s in item.split("-"))
        except ValueError:
            raise ConfigError(f"bad edge {item!r} in graph string {text!r}") from None
        edges.add((i, j))
    return Graph(n, frozenset(edges))


def format_graph(g):
    """Inverse of :func:`parse_graph`."""
    edges = ",".join(f"{i}-{j}" for (i, j) in sorted(g.edges))
    return f"{g.n_vertices}; {edges}" if edges else f"{g.n_vertices};"


def build_graph_state(g):
    """Amplitude vector of the graph state: CZ along every edge of |+...+>.

    CZ is diagonal in the computational basis, so each edge just flips the
    sign of the amplitudes where both endpoint bits are 1.
    """
    n = g.n_vertices
    dim = 2**n
    amps = np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    idx = np.arange(dim)
    for (i, j) in g.edges:
        bi = (idx >> (n - 1 - i)) & 1
        bj = (idx >> (n - 1 - j)) & 1
        amps[(bi == 1) & (bj == 1)] *= -1.0
    return amps


def _stabilizer_term(g, i):
    # X on vertex i, Z on its neighbors, identity elsewhere
    nbrs = set(g.neighbors(i))
    factors = []
    for q in range(g.n_vertices):
        if q == i:
            factors.append(X)
        elif q in nbrs:
            factors.append(Z)
        else:
            factors.append(I2)
    return tensor_all(factors)


# the dense 2^n x 2^n Hamiltonian of more vertices would take gigabytes
MAX_DENSE_VERTICES = 10


def parent_hamiltonian(g, gap=1.0):
    """H = -(gap/2) * sum_i X_i (x) Z_{neighbors of i}.

    All terms commute, H is frustration-free, and the graph state is its
    unique ground state at energy -n*gap/2. Graphs of more than
    MAX_DENSE_VERTICES vertices are refused before anything is allocated.
    """
    if not 0 < gap < np.inf:
        raise ConfigError("gap must be positive and finite")
    n = g.n_vertices
    if n > MAX_DENSE_VERTICES:
        raise ConfigError(f"{n} vertices; dense Hamiltonians take at most {MAX_DENSE_VERTICES}")
    h = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(n):
        h -= _stabilizer_term(g, i)
    return 0.5 * gap * h


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray
    levels: tuple
    multiplicities: tuple
    gap: float
    ground_unique: bool
    gap_matches: bool
    multiplicities_binomial: bool


# tolerance on energies in units of the gap when grouping and checking levels
_LEVEL_ATOL = 1e-10


def verify_spectrum(g, gap=1.0):
    """Dense eigensolve of the parent Hamiltonian, checked against theory.

    The exact levels are -(gap/2)(n - 2k) with multiplicity C(n, k): flipping
    k stabilizers costs k*gap. The report flags whether the computed spectrum
    matches, whether the ground level is unique, and whether the gap between
    the two lowest levels equals ``gap``. Levels are grouped and checked in
    units of the gap, so that no check depends on its scale.
    """
    n = g.n_vertices
    w = np.linalg.eigvalsh(parent_hamiltonian(g, gap))
    u = w / gap
    first = []  # index in w of each level's first eigenvalue
    mults = []
    for k, e in enumerate(u):
        if first and abs(e - u[first[-1]]) <= _LEVEL_ATOL * max(1.0, abs(e)):
            mults[-1] += 1
        else:
            first.append(k)
            mults.append(1)
    expected = [(-0.5 * (n - 2 * k), comb(n, k)) for k in range(n + 1)]
    matches = len(first) == len(expected) and all(
        abs(u[k] - elv) <= _LEVEL_ATOL and m == em
        for k, m, (elv, em) in zip(first, mults, expected)
    )
    spectral_gap = w[first[1]] - w[first[0]] if len(first) > 1 else float("inf")
    return SpectrumReport(
        eigenvalues=w,
        levels=tuple(float(w[k]) for k in first),
        multiplicities=tuple(mults),
        gap=float(spectral_gap),
        ground_unique=mults[0] == 1,
        gap_matches=abs(spectral_gap / gap - 1.0) <= _LEVEL_ATOL,
        multiplicities_binomial=matches,
    )
