"""Core domain types for chemical reaction networks, plus a text format.

A network is a fixed species table together with reactions, each reaction
a pair of stoichiometric count vectors (reactants, products) and a
positive rate constant. Configurations are nonnegative integer count
vectors over the species table.

The text format is line oriented:

    # comment
    species: A B C            (optional; fixes species order)
    A + 2B -> A + 3C ; k=4.7
    L + L -> L + N            (omitted rate constant defaults to 1)
    X -> 0                    (empty side is written "0")
    init: A = 100

``parse_crn`` and ``format_crn`` round-trip exactly: species order,
reaction order, rate constants and labels are all preserved.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NotApplicableError, ParseError, UnknownSpeciesError

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_INT_RE = re.compile(r"\d+")
_FLOAT_RE = re.compile(r"(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")
_MAX_COUNT = 2**63 - 1


@dataclass(frozen=True)
class SpeciesTable:
    """Ordered, immutable table of species names with dense integer ids."""

    names: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {}
        for i, name in enumerate(self.names):
            if name in index:
                raise ValueError(f"duplicate species name {name!r}")
            index[name] = i
        object.__setattr__(self, "_index", index)

    def __len__(self):
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __contains__(self, name):
        return name in self._index

    def id_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownSpeciesError(f"unknown species {name!r}") from None

    def name_of(self, sid: int) -> str:
        return self.names[sid]


@dataclass(frozen=True)
class Reaction:
    """One reaction: reactant and product count vectors plus a rate constant.

    The vectors are tuples of nonnegative ints indexed by species id and
    must span the full species table of the owning network.
    """

    reactants: tuple[int, ...]
    products: tuple[int, ...]
    rate_constant: float = 1.0
    label: str | None = None

    @property
    def order(self) -> int:
        """Total reactant count (1 = unimolecular, 2 = bimolecular)."""
        return sum(self.reactants)

    def produces(self, sid: int) -> bool:
        return self.products[sid] - self.reactants[sid] > 0

    def reactant_support(self) -> frozenset[int]:
        return frozenset(i for i, r in enumerate(self.reactants) if r > 0)


class Configuration:
    """Nonnegative integer counts per species, with the total cached.

    Value semantics: instances are immutable; arithmetic produces new
    configurations. Counts are held as int64, which covers the intended
    scale of ~1e9 molecules with ample headroom; a count beyond that range
    is refused with ``DomainError``.
    """

    __slots__ = ("counts", "total")

    def __init__(self, counts):
        try:
            arr = np.array(counts, dtype=np.int64, copy=True)
        except OverflowError:
            raise DomainError("a count overflows the 64-bit count range") from None
        if arr.ndim != 1:
            raise ValueError("counts must be one-dimensional")
        if arr.size and arr.min() < 0:
            raise ValueError("counts must be nonnegative")
        arr.setflags(write=False)
        self.counts = arr
        self.total = sum(arr.tolist())

    def __len__(self):
        return self.counts.size

    def __getitem__(self, sid: int) -> int:
        return int(self.counts[sid])

    def __eq__(self, other):
        if not isinstance(other, Configuration):
            return NotImplemented
        return self.counts.shape == other.counts.shape and bool(
            np.array_equal(self.counts, other.counts)
        )

    def __hash__(self):
        return hash(tuple(self.counts.tolist()))

    def __repr__(self):
        return f"Configuration({self.counts.tolist()})"

    def scale(self, factor: int) -> "Configuration":
        return Configuration([c * int(factor) for c in self.counts.tolist()])

    def to_dict(self, species: SpeciesTable, skip_zero: bool = True) -> dict:
        return {
            name: int(c)
            for name, c in zip(species.names, self.counts.tolist())
            if c or not skip_zero
        }


@dataclass(frozen=True)
class Crn:
    """A chemical reaction network: species table plus ordered reactions."""

    species: SpeciesTable
    reactions: tuple[Reaction, ...]

    def __post_init__(self):
        n = len(self.species)
        for i, rx in enumerate(self.reactions):
            if len(rx.reactants) != n or len(rx.products) != n:
                raise ValueError(f"reaction {i} does not span the species table")
            if any(c < 0 for c in rx.reactants) or any(c < 0 for c in rx.products):
                raise ValueError(f"reaction {i} has negative stoichiometry")
            k = rx.rate_constant
            if not (k > 0 and np.isfinite(k)):
                raise ValueError(f"reaction {i} has nonpositive rate constant {k}")
            if rx.reactants == rx.products:
                raise ValueError(f"reaction {i} is a no-op (reactants equal products)")

    @property
    def n_species(self) -> int:
        return len(self.species)

    def config(self, counts=None) -> Configuration:
        """Build a configuration from a name->count mapping (missing = 0)."""
        vec = [0] * len(self.species)
        if counts:
            for name, c in counts.items():
                vec[self.species.id_of(name)] = int(c)
        return Configuration(vec)

    def reaction_label(self, idx: int) -> str:
        label = self.reactions[idx].label
        return label if label is not None else f"r{idx}"

    def digest(self) -> str:
        """Short content hash of the canonical serialization."""
        text = format_crn(self)
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def is_applicable(config: Configuration, rx: Reaction) -> bool:
    """True iff the configuration contains every reactant of ``rx``."""
    return all(c >= r for c, r in zip(config.counts.tolist(), rx.reactants))


def apply_reaction(config: Configuration, rx: Reaction) -> Configuration:
    """Apply ``rx`` to ``config``, returning counts + products - reactants."""
    if not is_applicable(config, rx):
        raise NotApplicableError(
            "reaction is not applicable: insufficient reactant counts"
        )
    new = config.counts + np.asarray(rx.products, dtype=np.int64)
    new -= np.asarray(rx.reactants, dtype=np.int64)
    return Configuration(new)


def support(config: Configuration) -> frozenset[int]:
    """Ids of the species present with positive count."""
    return frozenset(np.flatnonzero(config.counts > 0).tolist())


class _Cursor:
    """Single-line scanner that reports 1-based line/column on errors."""

    def __init__(self, text: str, line_no: int):
        self.text = text
        self.line = line_no
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def take(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str):
        if not self.take(literal):
            self.fail(f"expected {literal!r}")

    def match(self, pattern: re.Pattern) -> str | None:
        self.skip_ws()
        m = pattern.match(self.text, self.pos)
        if m is None:
            return None
        self.pos = m.end()
        return m.group(0)

    def fail(self, message: str):
        raise ParseError(message, self.line, self.pos + 1)


class _Builder:
    def __init__(self):
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        self.reactions: list[tuple] = []  # (line, reactants, products, k, label)
        self.init_counts: dict[int, int] = {}
        self.has_init = False

    def intern(self, name: str) -> int:
        sid = self.index.get(name)
        if sid is None:
            sid = len(self.names)
            self.names.append(name)
            self.index[name] = sid
        return sid


def _parse_side(cur: _Cursor, builder: _Builder) -> dict[int, int]:
    counts: dict[int, int] = {}
    first = True
    while True:
        coeff_txt = cur.match(_INT_RE)
        coeff = 1 if coeff_txt is None else int(coeff_txt)
        name = cur.match(_IDENT_RE)
        if name is None:
            if coeff_txt is not None and coeff == 0 and first:
                return counts  # a lone "0" denotes the empty side
            cur.fail("expected species name")
        if coeff == 0:
            cur.fail("stoichiometric coefficient must be positive")
        sid = builder.intern(name)
        counts[sid] = counts.get(sid, 0) + coeff
        first = False
        if not cur.take("+"):
            return counts


def _parse_reaction_line(cur: _Cursor, builder: _Builder):
    reactants = _parse_side(cur, builder)
    cur.expect("->")
    products = _parse_side(cur, builder)
    k = None
    label = None
    while cur.take(";"):
        key = cur.match(_IDENT_RE)
        if key is None:
            cur.fail("expected 'k=' or 'label=' after ';'")
        cur.expect("=")
        if key == "k":
            if k is not None:
                cur.fail("duplicate rate constant clause")
            value = cur.match(_FLOAT_RE)
            if value is None:
                cur.fail("expected a positive decimal rate constant")
            k = float(value)
            if not (k > 0 and np.isfinite(k)):
                cur.fail("rate constant must be positive and finite")
        elif key == "label":
            if label is not None:
                cur.fail("duplicate label clause")
            label = cur.match(_IDENT_RE)
            if label is None:
                cur.fail("expected an identifier label")
        else:
            cur.fail(f"unknown clause {key!r}")
    if not cur.at_end():
        cur.fail("unexpected trailing text")
    if reactants == products:
        cur.fail("no-op reaction: reactants equal products")
    builder.reactions.append((cur.line, reactants, products, 1.0 if k is None else k, label))


def _parse_init_line(cur: _Cursor, builder: _Builder):
    name = cur.match(_IDENT_RE)
    if name is None:
        cur.fail("expected species name after 'init:'")
    cur.expect("=")
    count_txt = cur.match(_INT_RE)
    if count_txt is None:
        cur.fail("expected a nonnegative integer count")
    count = int(count_txt)
    if count > _MAX_COUNT:
        cur.fail("initial count overflows the 64-bit count range")
    if not cur.at_end():
        cur.fail("unexpected trailing text")
    sid = builder.intern(name)
    if sid in builder.init_counts:
        cur.fail(f"duplicate species {name!r} in init")
    builder.init_counts[sid] = count
    builder.has_init = True


def _parse_species_line(cur: _Cursor, builder: _Builder):
    seen_any = False
    while not cur.at_end():
        name = cur.match(_IDENT_RE)
        if name is None:
            cur.fail("expected species name")
        if name in builder.index:
            cur.fail(f"species {name!r} already declared")
        builder.intern(name)
        seen_any = True
    if not seen_any:
        cur.fail("empty species declaration")


def parse_crn(text: str) -> tuple[Crn, Configuration | None]:
    """Parse a CRN document.

    Returns the network and, when ``init:`` lines are present, the initial
    configuration. Species order follows declaration / first appearance.
    Raises :class:`ParseError` with line and column on malformed input,
    nonpositive rate constants, no-op reactions, or duplicated init lines.
    """
    builder = _Builder()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        hash_pos = raw.find("#")
        line = raw if hash_pos < 0 else raw[:hash_pos]
        if not line.strip():
            continue
        cur = _Cursor(line, line_no)
        if cur.take("species:"):
            _parse_species_line(cur, builder)
        elif cur.take("init:"):
            _parse_init_line(cur, builder)
        else:
            _parse_reaction_line(cur, builder)

    n = len(builder.names)
    table = SpeciesTable(tuple(builder.names))
    reactions = []
    for line_no, reactants, products, k, label in builder.reactions:
        r = tuple(reactants.get(i, 0) for i in range(n))
        p = tuple(products.get(i, 0) for i in range(n))
        reactions.append(Reaction(r, p, k, label))
    crn = Crn(table, tuple(reactions))

    init = None
    if builder.has_init:
        init = Configuration([builder.init_counts.get(i, 0) for i in range(n)])
    return crn, init


def _format_side(counts, names) -> str:
    terms = [
        (f"{c}{names[i]}" if c > 1 else names[i])
        for i, c in enumerate(counts)
        if c > 0
    ]
    return " + ".join(terms) if terms else "0"


def format_crn(crn: Crn, init: Configuration | None = None) -> str:
    """Canonical serialization; ``parse_crn`` inverts it exactly.

    Species appear in table order, reactions in declaration order, and the
    rate constant is always emitted with the shortest decimal that parses
    back to the same float.
    """
    names = crn.species.names
    lines = ["# crn"]
    if names:
        lines.append("species: " + " ".join(names))
    for rx in crn.reactions:
        line = (
            f"{_format_side(rx.reactants, names)} -> "
            f"{_format_side(rx.products, names)} ; k={rx.rate_constant!r}"
        )
        if rx.label is not None:
            line += f" ; label={rx.label}"
        lines.append(line)
    if init is not None:
        if len(init) != len(names):
            raise ValueError("initial configuration does not span the species table")
        for name, c in zip(names, init.counts.tolist()):
            lines.append(f"init: {name} = {c}")
    return "\n".join(lines) + "\n"
