"""Static analysis of reaction networks.

Covers four questions about a network that need no simulation:

* which species a single reaction can produce from a given species set,
  and the increasing chain of sets that closes under that operator;
* whether a configuration is dense (every present species holds at least
  an ``alpha`` fraction of the total count);
* whether a strictly positive mass assignment makes every reaction
  mass-balanced, certifying that total counts stay bounded;
* the exact set of producible species for small instances, by capped
  breadth-first search over the reachability relation.

Density and mass certificates use exact arithmetic throughout (the
certificate simplex pivots a tableau of integers); floating point never
decides a feasibility question here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, check_integer
from .model import Configuration, Crn, support


def _as_fraction(x, name: str) -> Fraction:
    """Exact value of the user-supplied number ``name``.

    Floats are interpreted at decimal precision (their shortest repr), so
    is_alpha_dense(c, 0.1) means the rational 1/10, not the nearest
    binary double. A float that is not finite has no exact value and
    raises ``DomainError``.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise DomainError(f"{name} must be finite, got {x}")
        return Fraction(str(x))
    return Fraction(x)


# ---------------------------------------------------------------------------
# Production closure and stages


def _producers(crn: Crn, present) -> dict[int, int]:
    """Each species producible by a single reaction whose reactants all lie
    in ``present``, mapped to the first such reaction in table order
    (reactions with no reactants qualify unconditionally)."""
    out: dict[int, int] = {}
    for ridx, rx in enumerate(crn.reactions):
        if rx.reactant_support() <= present:
            for i, (r, p) in enumerate(zip(rx.reactants, rx.products)):
                if p > r:
                    out.setdefault(i, ridx)
    return out


@dataclass(frozen=True)
class StageDecomposition:
    """The strictly increasing chain of species sets built by repeatedly
    adding everything one more reaction can produce, until it closes.

    ``stages[0]`` is the support of the initial configuration and
    ``stages[m]`` is the closure. ``witnesses`` maps each species added
    after stage 0 to the index of one reaction that produces it from the
    previous stage.
    """

    stages: tuple[frozenset[int], ...]
    witnesses: dict[int, int]

    @property
    def m(self) -> int:
        return len(self.stages) - 1

    @property
    def closure(self) -> frozenset[int]:
        return self.stages[-1]

    def to_dict(self, crn: Crn) -> dict:
        names = crn.species.names
        return {
            "m": self.m,
            "stages": [sorted(names[i] for i in stage) for stage in self.stages],
            "witnesses": {
                names[sid]: crn.reaction_label(ridx)
                for sid, ridx in sorted(self.witnesses.items())
            },
        }


def stage_decomposition(crn: Crn, init: Configuration) -> StageDecomposition:
    """Stage chain starting from the support of ``init``.

    The chain strictly grows until no reaction over the current set
    produces anything new, so its length is less than the species count.
    """
    if len(init) != crn.n_species:
        raise DomainError("initial configuration does not span the species table")
    if init.total == 0:
        raise DomainError("stage decomposition requires a nonzero initial configuration")
    current = support(init)
    stages = [current]
    witnesses: dict[int, int] = {}
    while True:
        new = {s: r for s, r in _producers(crn, current).items() if s not in current}
        if not new:
            return StageDecomposition(tuple(stages), witnesses)
        witnesses.update(new)
        current = current.union(new)
        stages.append(current)


# ---------------------------------------------------------------------------
# Density


def is_alpha_dense(config: Configuration, alpha) -> bool:
    """True iff every present species has count >= alpha * total.

    ``alpha`` must lie in (0, 1]; the comparison is exact.
    """
    alpha = _as_fraction(alpha, "alpha")
    if not (0 < alpha <= 1):
        raise DomainError("alpha must lie in (0, 1]")
    if config.total == 0:
        raise DomainError("density is undefined for the zero configuration")
    threshold = alpha * config.total
    return all(c >= threshold for c in config.counts.tolist() if c > 0)


# ---------------------------------------------------------------------------
# Mass conservation certificates


@dataclass(frozen=True)
class ConservationCertificate:
    """Strictly positive per-species masses balancing every reaction.

    ``mass`` is normalized so its minimum component is 1; ``ratio`` is the
    maximum component and bounds how much total count can inflate. When no
    such assignment exists, ``mass`` is None.
    """

    mass: tuple[Fraction, ...] | None

    @property
    def exists(self) -> bool:
        return self.mass is not None

    @property
    def ratio(self) -> Fraction | None:
        return None if self.mass is None else max(self.mass, default=Fraction(1))

    def to_dict(self, crn: Crn) -> dict:
        if self.mass is None:
            return {"exists": False}
        return {
            "exists": True,
            "mass": {n: str(m) for n, m in zip(crn.species.names, self.mass)},
            "ratio": str(self.ratio),
        }


def _primitive(row: list[int]) -> list[int]:
    """``row`` divided by the gcd of its entries (a positive factor)."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _simplex_feasible(rows: list[list[int]], rhs: list[int]):
    """Phase-1 simplex over an integer tableau.

    Finds u >= 0 with rows * u = rhs, or returns None when infeasible;
    each component of u is a ``Fraction``. Every tableau row and the
    reduced-cost row are Python ints, each the rational row times its own
    unstated positive factor (fraction-free pivoting, Bareiss 1968). Such
    a factor changes no sign and no ratio of two entries of one row, so
    Bland's rule (Bland 1977) enters, leaves and breaks ties exactly as on
    rationals, and degenerate systems cannot be mislabeled. A pivot on
    entry ``p = prow[k] > 0`` replaces each other row by ``row * p -
    row[k] * prow``, divided by the gcd of its entries to keep the ints
    small.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    # normalize to nonnegative right-hand sides, then add one artificial
    # variable per row and minimize the sum of artificials
    tab = []
    for i in range(m):
        row, b = rows[i], rhs[i]
        if b < 0:
            row, b = [-x for x in row], -b
        art = [0] * m
        art[i] = 1
        tab.append([*row, *art, b])
    basis = list(range(n, n + m))
    # reduced costs for cost vector (0,...,0 | 1,...,1), artificials basic
    red = [-sum(row[j] for row in tab) for j in range(n)] + [0] * m

    while True:
        enter = next((j for j, r in enumerate(red) if r < 0), None)
        if enter is None:
            break
        # ratio test: b_i / a_i < b_l / a_l iff b_i * a_l < b_l * a_i, as
        # both a are positive; a tie goes to the smaller basis index
        leave = None
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                b = row[-1]
                if leave is None or b * a_l < b_l * a or (
                        b * a_l == b_l * a and basis[i] < basis[leave]):
                    leave, a_l, b_l = i, a, b
        if leave is None:
            raise AssertionError("phase-1 objective cannot be unbounded")
        prow = tab[leave]
        p = prow[enter]
        for i, row in enumerate(tab):
            f = row[enter]
            if f and i != leave:
                tab[i] = _primitive([x * p - f * y for x, y in zip(row, prow)])
        f = red[enter]
        red = _primitive([x * p - f * y for x, y in zip(red, prow)])
        basis[leave] = enter

    # the artificials sum to zero iff none that is still basic is nonzero
    if any(var >= n and row[-1] for var, row in zip(basis, tab)):
        return None
    u = [Fraction(0)] * n
    for var, row in zip(basis, tab):
        if var < n:
            u[var] = Fraction(row[-1], row[var])
    return u


def check_mass_conserving(crn: Crn) -> ConservationCertificate:
    """Search for strictly positive masses with mass . r = mass . p for
    every reaction; exact substitution verifies any certificate before it
    is returned."""
    n = crn.n_species
    if n == 0:
        return ConservationCertificate(())
    # int() keeps the tableau in Python ints, which cannot overflow, even
    # for coefficients given as numpy integers
    rows = [[int(p - r) for r, p in zip(rx.reactants, rx.products)] for rx in crn.reactions]
    if rows:
        # substitute mass = 1 + u with u >= 0:  row . u = -row . 1
        u = _simplex_feasible(rows, [-sum(row) for row in rows])
        if u is None:
            return ConservationCertificate(None)
        mass = [1 + x for x in u]
    else:
        mass = [Fraction(1)] * n
    low = min(mass)
    mass = tuple(x / low for x in mass)
    for rx in crn.reactions:  # paranoia: certificates must verify exactly
        lhs = sum(m * r for m, r in zip(mass, rx.reactants))
        rhs_v = sum(m * p for m, p in zip(mass, rx.products))
        if lhs != rhs_v:
            raise AssertionError("internal error: certificate failed verification")
    return ConservationCertificate(mass)


@dataclass(frozen=True)
class FiniteDensityStatus:
    """Sufficient-condition classification of count growth.

    ``population_protocol`` when every reaction has exactly two reactants
    and two products (total count invariant, so the certificate is the unit
    mass); ``mass_conserving`` when another conservation certificate exists;
    otherwise ``unknown``. ``c_hat``, the certificate's ratio, bounds count
    inflation.
    """

    kind: str  # "population_protocol" | "mass_conserving" | "unknown"
    certificate: ConservationCertificate

    @property
    def c_hat(self) -> Fraction | None:
        return self.certificate.ratio

    def to_dict(self, crn: Crn) -> dict:
        d = {"kind": self.kind, "c_hat": None if self.c_hat is None else str(self.c_hat)}
        if self.kind == "mass_conserving":
            d["certificate"] = self.certificate.to_dict(crn)
        return d


def finite_density_status(crn: Crn) -> FiniteDensityStatus:
    cert = check_mass_conserving(crn)
    if all(sum(rx.reactants) == 2 and sum(rx.products) == 2 for rx in crn.reactions):
        return FiniteDensityStatus("population_protocol", cert)
    return FiniteDensityStatus("mass_conserving" if cert.exists else "unknown", cert)


# ---------------------------------------------------------------------------
# Exact reachability oracle


@dataclass(frozen=True)
class ReachabilityReport:
    """Result of a capped breadth-first reachability exploration.

    When ``truncated`` is False, ``producible`` is exactly the set of
    species appearing in some reachable configuration; when a cap was hit
    it is a subset of that set.
    """

    producible: frozenset[int]
    visited: int
    truncated: bool
    max_configs: int
    max_count: int

    def to_dict(self, crn: Crn) -> dict:
        return {
            "producible": sorted(crn.species.names[i] for i in self.producible),
            "visited": self.visited,
            "truncated": self.truncated,
            "caps": {"max_configs": self.max_configs, "max_count": self.max_count},
        }


class _Packing:
    """Counts of ``n`` species packed into one ``int``, ``width`` bits a species.

    Species ``i`` owns bits ``i*width`` up to ``(i+1)*width``. A packed
    configuration holds its count in the low ``width - 1`` bits of that
    field and a set guard bit on top; a packed change (what a reaction
    consumes or produces) holds only the counts. As long as every count
    and every count plus a coefficient stays below the guard, one
    subtraction or addition of two packed ints acts on each field on its
    own, and a count that goes below zero clears only its own guard.
    """

    def __init__(self, n: int, width: int):
        self.n, self.width = n, width
        self.guard = 1 << (width - 1)
        self.guards = self.spread(self.guard)

    def spread(self, value: int) -> int:
        """``value`` (below ``2**width``) in every field."""
        return sum(value << (i * self.width) for i in range(self.n))

    def change(self, counts) -> int:
        return sum(c << (i * self.width) for i, c in enumerate(counts))

    def pack(self, counts) -> int:
        return self.change(counts) + self.guards

    def unpack(self, packed: int) -> tuple[int, ...]:
        mask = self.guard - 1
        return tuple((packed >> (i * self.width)) & mask for i in range(self.n))


def reachable_set(
    crn: Crn,
    init: Configuration,
    max_configs: int = 100_000,
    max_count: int = 1_000_000,
) -> ReachabilityReport:
    """Breadth-first search of the reachability relation from ``init``.

    Configurations are visited first in, first out: the search walks a
    list and appends each new configuration to it, so the list is both the
    queue and, at the end, every visited configuration in visiting order.
    From each configuration the reactions are tried in table order. That
    order decides which configurations a truncated search keeps. The
    search stops cleanly (truncated=True) when a new configuration is met
    after ``max_configs`` have been visited; a successor with some count
    above ``max_count`` is skipped and also marks the search truncated.
    Both caps must be integers of at least 1.

    Each configuration is one ``int`` (see ``_Packing``) whose species
    fields are ``w = (max(max_count, largest initial count) + largest
    stoichiometric coefficient).bit_length() + 1`` bits wide, so no count
    the search meets, nor such a count plus a coefficient, reaches a guard
    bit. A reaction is then three int operations on all species at once:
    ``rest = cur - need``; it is enabled iff every guard survives,
    ``rest & guards == guards``, since a count below its need borrows only
    from its own guard; and its successor is ``succ = cur + delta``, with
    the net change ``delta = gain - need`` packed once per reaction. Some
    count of ``succ`` exceeds ``max_count`` iff ``((succ & ~guards) + over)
    & guards`` is nonzero, with ``guard - 1 - max_count`` in every field of
    ``over``. Python ints have no width limit, so any cap and species
    count is exact.
    """
    check_integer(max_configs, "max_configs")
    check_integer(max_count, "max_count")
    if len(init) != crn.n_species:
        raise DomainError("initial configuration does not span the species table")
    max_configs, max_count = int(max_configs), int(max_count)
    start = init.counts.tolist()
    largest = max((c for rx in crn.reactions for c in (*rx.reactants, *rx.products)), default=0)
    width = (max(max_count, *start, 0) + largest).bit_length() + 1
    packing = _Packing(crn.n_species, width)
    guards = packing.guards
    # (succ & ~guards) + over, in one subtraction: each field becomes
    # guard + v - (max_count + 1), which keeps its guard iff v > max_count
    # and never borrows, since max_count < guard
    lift = packing.spread(max_count + 1)
    # per reaction: what it consumes and its net change
    moves = []
    for j, rx in enumerate(crn.reactions):
        need = packing.change(rx.reactants)
        moves.append((need, packing.change(rx.products) - need, j))

    first = packing.pack(start)
    visited = {first}
    queue = [first]  # every visited configuration, in visiting order
    left = max_configs - 1  # configurations that may still be added
    fired = [False] * len(moves)  # reactions that added a configuration
    truncated = False
    for cur in queue:  # the loop also reaches the configurations appended
        for need, delta, j in moves:
            if (cur - need) & guards != guards:
                continue
            succ = cur + delta
            if succ in visited:
                continue
            if (succ - lift) & guards:
                truncated = True
                continue
            if not left:
                truncated = True
                break
            left -= 1
            visited.add(succ)
            queue.append(succ)
            fired[j] = True
        else:
            continue
        break  # the configuration cap was reached
    # a species is positive in some visited configuration iff it starts
    # positive or a reaction that added a configuration grows it
    producible = set(support(init))
    for hit, rx in zip(fired, crn.reactions):
        if hit:
            producible.update(i for i in range(crn.n_species) if rx.produces(i))
    return ReachabilityReport(frozenset(producible), len(queue), truncated, max_configs, max_count)


@dataclass(frozen=True)
class ScaleComparison:
    scale: int
    producible: frozenset[int]
    is_subset: bool
    equal: bool
    inconclusive: bool


@dataclass(frozen=True)
class ClosureComparison:
    """Per-scale comparison of exact reachability against the stage closure.

    The closure depends only on which species start positive, so scaling
    the initial counts never changes it, while the exactly-producible set
    can only grow with scale. ``least_equal_scale`` is the first scale at
    which the two coincide, if any was found.
    """

    stages: StageDecomposition
    scales: tuple[ScaleComparison, ...]
    max_configs: int
    max_count: int

    @property
    def least_equal_scale(self) -> int | None:
        for sc in self.scales:
            if sc.equal and not sc.inconclusive:
                return sc.scale
        return None

    def to_dict(self, crn: Crn) -> dict:
        names = crn.species.names
        return {
            "closure": sorted(names[i] for i in self.stages.closure),
            "least_equal_scale": self.least_equal_scale,
            "caps": {"max_configs": self.max_configs, "max_count": self.max_count},
            "scales": [
                {
                    "scale": sc.scale,
                    "producible": sorted(names[i] for i in sc.producible),
                    "is_subset": sc.is_subset,
                    "equal": sc.equal,
                    "inconclusive": sc.inconclusive,
                }
                for sc in self.scales
            ],
        }


def closure_vs_oracle(
    crn: Crn,
    init: Configuration,
    scale_limit: int,
    max_configs: int = 100_000,
    max_count: int = 1_000_000,
) -> ClosureComparison:
    """Compare BFS-producible sets at initial configurations scaled by
    1..scale_limit against the stage closure. A truncated search marks
    that scale inconclusive (its subset relation still holds, since BFS
    only ever underestimates)."""
    check_integer(scale_limit, "scale_limit")
    stages = stage_decomposition(crn, init)
    closure = stages.closure
    out = []
    for s in range(1, scale_limit + 1):
        rep = reachable_set(crn, init.scale(s), max_configs, max_count)
        out.append(
            ScaleComparison(
                scale=s,
                producible=rep.producible,
                is_subset=rep.producible <= closure,
                equal=rep.producible == closure and not rep.truncated,
                inconclusive=rep.truncated,
            )
        )
    return ClosureComparison(stages, tuple(out), rep.max_configs, rep.max_count)
