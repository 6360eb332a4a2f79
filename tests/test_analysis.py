import hashlib
import json
import math
import random
from collections import deque
from fractions import Fraction
from operator import add

import numpy as np
import pytest

from crnsim.analysis import (
    ReachabilityReport,
    _Packing,
    _producers,
    _simplex_feasible,
    check_mass_conserving,
    closure_vs_oracle,
    finite_density_status,
    is_alpha_dense,
    reachable_set,
    stage_decomposition,
)
from crnsim.errors import DomainError, check_integer
from crnsim.kinetics import StopCondition, simulate
from crnsim.model import Configuration, Crn, Reaction, SpeciesTable, parse_crn, support

from conftest import random_config, random_crn


# The search loop as it stood before configurations were packed into one
# int: count tuples, one comparison per reactant and max() over every
# successor. Kept only as a reference for the packed search.
def tuple_reachable_set(
    crn: Crn,
    init: Configuration,
    max_configs: int = 100_000,
    max_count: int = 1_000_000,
) -> ReachabilityReport:
    """Breadth-first search of the reachability relation from ``init``.

    Configurations are canonicalized as exact count tuples and visited
    first in, first out; from each one the reactions are tried in table
    order. That order decides which configurations a truncated search
    keeps. The search stops cleanly (truncated=True) once ``max_configs``
    distinct configurations have been visited; a successor with some
    count above ``max_count`` is skipped and also marks the search
    truncated. Both caps must be integers of at least 1.
    """
    check_integer(max_configs, "max_configs")
    check_integer(max_count, "max_count")
    if len(init) != crn.n_species:
        raise DomainError("initial configuration does not span the species table")
    max_configs, max_count = int(max_configs), int(max_count)
    # per reaction: the (species, count) pairs it consumes, its net change,
    # and the species that change grows; only a growing species can be
    # positive in a successor without being positive in its parent
    moves = []
    for rx in crn.reactions:
        delta = tuple(p - r for r, p in zip(rx.reactants, rx.products))
        need = tuple((i, r) for i, r in enumerate(rx.reactants) if r > 0)
        grows = tuple(i for i, d in enumerate(delta) if d > 0)
        moves.append((need, delta, grows))

    start = tuple(init.counts.tolist())
    visited = {start}
    queue = deque([start])
    producible = set(support(init))
    truncated = False
    while queue:
        cur = queue.popleft()
        for need, delta, grows in moves:
            for i, r in need:
                if cur[i] < r:
                    break
            else:
                succ = tuple(map(add, cur, delta))
                if succ in visited:
                    continue
                if max(succ) > max_count:
                    truncated = True
                    continue
                if len(visited) >= max_configs:
                    truncated = True
                    queue.clear()
                    break
                visited.add(succ)
                queue.append(succ)
                producible.update(grows)
    return ReachabilityReport(frozenset(producible), len(visited), truncated, max_configs, max_count)


def wide_network(rng) -> Crn:
    """Up to 4 species and 5 reactions; each side names up to 2 species with
    coefficients 1 to 4, so about a third of the reactions need nothing
    (``0 -> X``)."""
    ns, nr = int(rng.integers(1, 5)), int(rng.integers(1, 6))
    reactions = []
    while len(reactions) < nr:
        sides = [[0] * ns, [0] * ns]
        for side in sides:
            for _ in range(int(rng.integers(0, 3))):
                side[int(rng.integers(ns))] = int(rng.integers(1, 5))
        if sides[0] != sides[1]:
            reactions.append(Reaction(tuple(sides[0]), tuple(sides[1])))
    return Crn(SpeciesTable(tuple(f"S{i}" for i in range(ns))), tuple(reactions))


class TestProdSet:
    """The keys of ``_producers``: the species one reaction whose reactants
    all lie in ``present`` can produce."""

    def test_unimolecular(self):
        crn, _ = parse_crn("X -> Y\n")
        assert _producers(crn, {0}).keys() == {1}

    def test_missing_reactant(self):
        crn, _ = parse_crn("X + Y -> Z\n")
        assert not _producers(crn, {0})

    def test_pure_consumption_produces_nothing(self):
        crn, _ = parse_crn("X -> 0\n")
        assert not _producers(crn, {0})

    def test_zero_reactant_reactions_fire_unconditionally(self):
        crn, _ = parse_crn("0 -> X\n")
        assert _producers(crn, frozenset()).keys() == {0}

    def test_monotone(self, rng):
        for _ in range(100):
            crn = random_crn(rng)
            ns = crn.n_species
            small = frozenset(
                int(i) for i in rng.choice(ns, size=rng.integers(0, ns + 1), replace=False)
            )
            extra = frozenset(
                int(i) for i in rng.choice(ns, size=rng.integers(0, ns + 1), replace=False)
            )
            assert _producers(crn, small).keys() <= _producers(crn, small | extra).keys()


class TestStages:
    def test_chain_hits_worst_case(self):
        crn, _ = parse_crn(
            "species: X1 X2 X3 X4\n"
            "X1 -> 0\nX2 -> 0\nX3 -> 0\n"
            "X1 + X1 -> X2\nX2 + X2 -> X3\nX3 + X3 -> X4\n"
        )
        st = stage_decomposition(crn, crn.config({"X1": 10}))
        assert st.m == 3 == crn.n_species - 1
        assert st.to_dict(crn)["stages"] == [
            ["X1"],
            ["X1", "X2"],
            ["X1", "X2", "X3"],
            ["X1", "X2", "X3", "X4"],
        ]

    def test_no_reactions_single_stage(self):
        crn, _ = parse_crn("species: A\n")
        st = stage_decomposition(crn, crn.config({"A": 1}))
        assert st.m == 0
        assert st.stages == (frozenset({0}),)

    def test_leader_election_one_stage_added(self):
        crn, _ = parse_crn("L + L -> L + N\n")
        st = stage_decomposition(crn, crn.config({"L": 3}))
        assert st.m == 1
        assert st.stages == (frozenset({0}), frozenset({0, 1}))

    def test_witnesses_are_valid(self, rng):
        for _ in range(100):
            crn = random_crn(rng)
            init = random_config(rng, crn)
            st = stage_decomposition(crn, init)
            for stage_idx in range(1, len(st.stages)):
                for sid in st.stages[stage_idx] - st.stages[stage_idx - 1]:
                    rx = crn.reactions[st.witnesses[sid]]
                    assert rx.produces(sid)
                    assert rx.reactant_support() <= st.stages[stage_idx - 1]
                    # the witness is the first such reaction in table order
                    assert st.witnesses[sid] == next(
                        j for j, r in enumerate(crn.reactions)
                        if r.produces(sid) and r.reactant_support() <= st.stages[stage_idx - 1]
                    )

    def test_strictly_increasing_and_bounded(self, rng):
        for _ in range(150):
            crn = random_crn(rng, max_species=6, max_reactions=7)
            init = random_config(rng, crn)
            st = stage_decomposition(crn, init)
            for a, b in zip(st.stages, st.stages[1:]):
                assert a < b
            assert st.m < crn.n_species

    def test_zero_init_rejected(self):
        crn, _ = parse_crn("X -> Y\n")
        with pytest.raises(DomainError):
            stage_decomposition(crn, Configuration([0, 0]))


class TestDensity:
    def test_single_species_always_dense(self):
        assert is_alpha_dense(Configuration([17]), 1)
        assert is_alpha_dense(Configuration([17]), 0.001)

    def test_exact_decimal_boundary(self):
        cfg = Configuration([10, 90])
        assert is_alpha_dense(cfg, 0.1)  # 10 >= (1/10)*100 exactly
        assert not is_alpha_dense(cfg, 0.2)

    def test_fraction_alpha(self):
        assert is_alpha_dense(Configuration([1, 2]), Fraction(1, 3))
        assert not is_alpha_dense(Configuration([1, 2]), Fraction(1, 3) + Fraction(1, 1000))

    def test_boundary_alpha_one(self):
        assert is_alpha_dense(Configuration([1, 0]), 1)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            is_alpha_dense(Configuration([1]), 0)
        with pytest.raises(DomainError):
            is_alpha_dense(Configuration([0, 0]), 0.5)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_non_finite_alpha_is_a_domain_error(self, alpha):
        with pytest.raises(DomainError, match="alpha must be finite"):
            is_alpha_dense(Configuration([1]), alpha)


class TestMassConservation:
    def test_population_protocol_unit_mass(self):
        crn, _ = parse_crn("L + L -> L + N\n")
        cert = check_mass_conserving(crn)
        assert cert.mass == (Fraction(1), Fraction(1))
        assert cert.ratio == 1

    def test_doubling_is_infeasible(self):
        crn, _ = parse_crn("X -> 2X\n")
        assert not check_mass_conserving(crn).exists

    def test_weighted_certificate_verifies(self):
        crn, _ = parse_crn("A + 2B -> A + 3C\n")
        cert = check_mass_conserving(crn)
        assert cert.exists
        for rx in crn.reactions:
            lhs = sum(m * r for m, r in zip(cert.mass, rx.reactants))
            rhs = sum(m * p for m, p in zip(cert.mass, rx.products))
            assert lhs == rhs
        assert min(cert.mass) == 1
        assert cert.ratio == max(cert.mass)

    def test_no_reactions_trivially_conserving(self):
        crn, _ = parse_crn("species: A B\n")
        cert = check_mass_conserving(crn)
        assert cert.exists and cert.ratio == 1

    def test_certificates_always_verify_on_random_networks(self, rng):
        feasible = 0
        for _ in range(150):
            crn = random_crn(rng, max_species=5, max_reactions=6)
            cert = check_mass_conserving(crn)
            if cert.exists:
                feasible += 1
                assert min(cert.mass) == 1
                for rx in crn.reactions:
                    assert sum(m * r for m, r in zip(cert.mass, rx.reactants)) == sum(
                        m * p for m, p in zip(cert.mass, rx.products)
                    )
        assert feasible > 0  # the generator does produce conserving networks

    def test_certificates_match_pinned_digest(self):
        # sha256 of the JSON certificate of 400 random networks, taken with
        # the Fraction tableau. Any valid certificate verifies, so this pin is
        # what fixes the pivot sequence: a change of entering variable, ratio
        # test or tie-break moves the printed masses. Reactions with an empty
        # side are redrawn, since they alone make a network infeasible
        rng = np.random.default_rng(20261020)
        h = hashlib.sha256()
        seen = {"infeasible": 0, "unit": 0, "weighted": 0}
        for _ in range(400):
            while True:
                crn = random_crn(rng, max_species=6, max_reactions=8, max_side_total=3)
                if all(any(rx.reactants) and any(rx.products) for rx in crn.reactions):
                    break
            d = check_mass_conserving(crn).to_dict(crn)
            h.update(json.dumps(d, sort_keys=True).encode())
            seen["infeasible" if not d["exists"] else "unit" if d["ratio"] == "1"
                 else "weighted"] += 1
        assert seen == {"infeasible": 250, "unit": 60, "weighted": 90}
        assert h.hexdigest() == (
            "79ddf5409728aabdc577e33f5631f67bd5bc489399e5105a92784e6c06bf3906"
        )

    def test_numpy_integer_coefficients_give_the_python_int_certificate(self):
        # coefficients near 2e14 whose tableau products leave int64: numpy
        # integers overflowed in the Fraction tableau as well
        big = 3**30

        def network(c):
            return Crn(SpeciesTable(("A", "B", "C")), (
                Reaction((c(big), c(0), c(0)), (c(0), c(big + 1), c(0))),
                Reaction((c(0), c(big - 1), c(0)), (c(0), c(0), c(big + 2))),
            ))

        want = check_mass_conserving(network(int))
        assert want.mass == (Fraction(big + 1, big) * Fraction(big + 2, big - 1),
                             Fraction(big + 2, big - 1), 1)
        assert check_mass_conserving(network(np.int64)) == want

    def test_simplex_solutions_match_pinned_digest(self):
        # sha256 of the phase-1 solutions of 20 000 random systems, taken
        # with the Fraction tableau. In a few of them the ratio test ties
        # and the tie-break (smaller basis index) decides which vertex is
        # returned, which no certificate of the pin above shows
        rng = random.Random(20261021)
        h = hashlib.sha256()
        feasible = 0
        for _ in range(20_000):
            m, n = rng.randint(1, 4), rng.randint(1, 5)
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
            u = _simplex_feasible(rows, [rng.randint(-2, 2) for _ in range(m)])
            feasible += u is not None
            h.update(repr(None if u is None else [str(x) for x in u]).encode())
        assert feasible == 7641
        assert h.hexdigest() == (
            "9d305c1022ae684637f62ae4140b44db6a186633371d0970bb870f72eff50df8"
        )


class TestFiniteDensityStatus:
    def test_population_protocol(self):
        crn, _ = parse_crn("L + L -> L + N\n")
        st = finite_density_status(crn)
        assert st.kind == "population_protocol"
        assert st.c_hat == 1

    def test_random_population_protocols_have_the_unit_mass(self, rng):
        # every reaction keeps the total count, so the one certificate
        # search finds the unit mass and c_hat is its ratio, 1
        for _ in range(120):
            ns = int(rng.integers(2, 6))
            reactions = []
            for _ in range(int(rng.integers(1, 7))):
                r = p = ()
                while r == p:
                    r, p = [0] * ns, [0] * ns
                    for side in (r, r, p, p):
                        side[int(rng.integers(ns))] += 1
                reactions.append(Reaction(tuple(r), tuple(p), 1.0))
            crn = Crn(SpeciesTable(tuple(f"S{i}" for i in range(ns))), tuple(reactions))
            st = finite_density_status(crn)
            assert (st.kind, st.c_hat) == ("population_protocol", 1)
            assert st.certificate.mass == (1,) * ns
            assert "certificate" not in st.to_dict(crn)

    def test_mass_conserving_ratio(self):
        crn, _ = parse_crn("A + 2B -> A + 3C\n")
        st = finite_density_status(crn)
        assert st.kind == "mass_conserving"
        assert st.c_hat == st.certificate.ratio
        assert st.to_dict(crn)["certificate"] == st.certificate.to_dict(crn)

    def test_unknown(self):
        crn, _ = parse_crn("X -> 2X\n")
        st = finite_density_status(crn)
        assert st.kind == "unknown"
        # the failed search is kept, so a caller that reports it need not solve again
        assert st.certificate == check_mass_conserving(crn) and not st.certificate.exists


class TestReachability:
    def test_conversion_pair(self):
        crn, _ = parse_crn("X -> Y\n")
        rep = reachable_set(crn, crn.config({"X": 2}))
        assert rep.visited == 3
        assert rep.producible == frozenset({0, 1})
        assert not rep.truncated

    def test_no_reactions(self):
        crn, _ = parse_crn("species: A B\n")
        rep = reachable_set(crn, crn.config({"A": 2}))
        assert rep.producible == frozenset({0})
        assert rep.visited == 1
        assert not rep.truncated

    def test_chain_needs_two_copies(self):
        crn, _ = parse_crn("X1 -> 0\nX1 + X1 -> X2\n")
        rep = reachable_set(crn, crn.config({"X1": 1}))
        assert rep.producible == frozenset({0})

    def test_truncation_flag(self):
        crn, _ = parse_crn("X -> 2X\n")
        rep = reachable_set(crn, crn.config({"X": 1}), max_configs=10, max_count=1000)
        assert rep.truncated
        rep2 = reachable_set(crn, crn.config({"X": 1}), max_configs=1000, max_count=10)
        assert rep2.truncated

    def test_bad_caps(self):
        crn, _ = parse_crn("X -> Y\n")
        with pytest.raises(DomainError):
            reachable_set(crn, crn.config({"X": 1}), max_configs=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 2.5])
    @pytest.mark.parametrize("cap", ["max_configs", "max_count"])
    def test_non_integer_caps_refused(self, cap, bad):
        # a NaN cap compared False against every count, so it switched
        # that cap off; 2.5 was accepted and echoed in the report
        crn, _ = parse_crn("X -> 2X\nX -> Y\n")
        init = crn.config({"X": 1})
        with pytest.raises(DomainError, match=f"{cap} must be an integer"):
            reachable_set(crn, init, **{cap: bad})
        with pytest.raises(DomainError, match=f"{cap} must be an integer"):
            closure_vs_oracle(crn, init, 1, **{cap: bad})

    def test_both_caps_nan_refused(self):
        # with both caps off, X -> 2X never terminates
        crn, _ = parse_crn("X -> 2X\n")
        with pytest.raises(DomainError):
            reachable_set(crn, crn.config({"X": 1}), max_configs=math.nan, max_count=math.nan)

    def test_numpy_integer_caps_accepted(self):
        crn, _ = parse_crn("X -> Y\n")
        rep = reachable_set(crn, crn.config({"X": 2}), np.int64(3), np.int64(2))
        assert (rep.visited, rep.truncated) == (3, False)
        assert (rep.max_configs, rep.max_count) == (3, 2)

    def test_start_above_max_count(self):
        # every successor of (5, 0) holds a count above 3, even though the
        # growing species Y stays below it
        crn, _ = parse_crn("X -> Y\n")
        rep = reachable_set(crn, crn.config({"X": 5}), max_configs=100, max_count=3)
        assert (rep.visited, rep.truncated) == (1, True)
        assert rep.producible == frozenset({0})

    def test_config_cap_filled_exactly_is_not_truncated(self):
        crn, _ = parse_crn("X -> Y\n")
        rep = reachable_set(crn, crn.config({"X": 2}), max_configs=3)
        assert (rep.visited, rep.truncated) == (3, False)
        assert rep.producible == frozenset({0, 1})

    def test_reaction_without_reactants(self):
        # 0 -> X fires from the empty configuration; the search fills the
        # box of counts up to 2 and is truncated at its edge
        crn, _ = parse_crn("0 -> X\nX -> Y\n")
        rep = reachable_set(crn, Configuration([0, 0]), max_configs=100, max_count=2)
        assert (rep.visited, rep.truncated) == (9, True)
        assert rep.producible == frozenset({0, 1})

    @pytest.mark.parametrize("counts", [[2], [1, 0, 0, 5]], ids=["short", "long"])
    def test_init_must_span_species_table(self, counts):
        # a short start gave an internal IndexError; a long one was cut
        # silently by the BFS and reported as a species id 3 by the stages
        crn, _ = parse_crn("X -> Y\nY -> Z\n")
        init = Configuration(counts)
        for call in (
            lambda: reachable_set(crn, init),
            lambda: stage_decomposition(crn, init),
            lambda: closure_vs_oracle(crn, init, 2),
        ):
            with pytest.raises(DomainError, match="does not span the species table"):
                call()

    def test_reports_match_pinned_digest(self):
        # sha256 over (visited, truncated, producible) of 300 capped searches
        # on random networks, taken before the search loop was rewritten.
        # 242 of them are truncated; the configuration caps of 2 and 3 make
        # the visiting order (FIFO, reactions in table order) show, and the
        # starts above a count cap of 1 or 2 show the cap on every species
        rng = np.random.default_rng(20261018)
        h = hashlib.sha256()
        for _ in range(300):
            crn = random_crn(rng)
            init = random_config(rng, crn)
            max_configs = int(rng.choice([2, 3, 5, 50, 500, 5000]))
            max_count = int(rng.choice([1, 2, 3, 10, 64]))
            rep = reachable_set(crn, init, max_configs, max_count)
            h.update(repr((rep.visited, rep.truncated, sorted(rep.producible))).encode())
        assert h.hexdigest() == (
            "8b7f8fdc370c59aeef394f36ff7eda1db9063f4d263f8b71c8233dedda24a0c7"
        )


class TestPackedSearch:
    CAPS = (1, 2, 3, 64, 1_000_000, 2**70)

    def test_matches_tuple_search_on_random_networks(self):
        # (visited, truncated, producible) of the packed search equal those
        # of the tuple loop. Coefficients up to 4 and starts above or just
        # below the count cap put counts next to the field's guard bit
        rng = np.random.default_rng(20261019)
        seen = {"coefficient 4": 0, "0 -> X": 0, "start above max_count": 0,
                "truncated": 0, "closed": 0}
        for _ in range(400):
            crn = wide_network(rng)
            max_count = self.CAPS[int(rng.integers(len(self.CAPS)))]
            near = min(max_count, 2**62)
            counts = [int(rng.integers(0, 6)) if rng.random() < 0.8
                      else max(0, near + int(rng.integers(-4, 3)))
                      for _ in range(crn.n_species)]
            init = Configuration(counts)
            max_configs = int(rng.choice([1, 2, 3, 5, 50, 500, 3000]))
            got = reachable_set(crn, init, max_configs, max_count)
            want = tuple_reachable_set(crn, init, max_configs, max_count)
            assert (got.visited, got.truncated, got.producible) == (
                want.visited, want.truncated, want.producible), (crn, counts, max_configs,
                                                                 max_count)
            seen["coefficient 4"] += any(4 in (*rx.reactants, *rx.products)
                                         for rx in crn.reactions)
            seen["0 -> X"] += any(not any(rx.reactants) for rx in crn.reactions)
            seen["start above max_count"] += max(counts) > max_count
            seen["truncated"] += got.truncated
            seen["closed"] += not got.truncated
        assert min(seen.values()) >= 30, seen

    @pytest.mark.parametrize("n, width", [(1, 2), (3, 4), (4, 73)])
    def test_pack_round_trip(self, n, width):
        rng = np.random.default_rng(width)
        packing = _Packing(n, width)
        for _ in range(50):
            counts = tuple(int(rng.integers(0, 2 ** min(width - 1, 62))) for _ in range(n))
            packed = packing.pack(counts)
            assert packing.unpack(packed) == counts
            assert packed & packing.guards == packing.guards


class TestClosureVsOracle:
    def test_pairing_needs_scale_two(self):
        crn, _ = parse_crn("X + X -> Y\n")
        cmp = closure_vs_oracle(crn, crn.config({"X": 1}), scale_limit=3)
        assert cmp.scales[0].producible == frozenset({0})
        assert not cmp.scales[0].equal
        assert cmp.scales[1].equal
        assert cmp.least_equal_scale == 2

    def test_already_closed_at_scale_one(self):
        crn, _ = parse_crn("A + B -> B + A2\nA2 + B -> A + B\n")
        init = crn.config({"A": 1, "B": 1, "A2": 1})
        cmp = closure_vs_oracle(crn, init, scale_limit=2)
        assert cmp.least_equal_scale == 1

    def test_chain_doubles_per_stage(self):
        crn, _ = parse_crn(
            "species: X1 X2 X3 X4\n"
            "X1 -> 0\nX2 -> 0\nX3 -> 0\n"
            "X1 + X1 -> X2\nX2 + X2 -> X3\nX3 + X3 -> X4\n"
        )
        cmp = closure_vs_oracle(crn, crn.config({"X1": 1}), scale_limit=8)
        assert cmp.least_equal_scale == 8
        for sc in cmp.scales[:-1]:
            assert not sc.equal

    def test_scale_beyond_int64_is_refused(self):
        crn, _ = parse_crn("X -> Y\n")
        with pytest.raises(DomainError, match="overflows the 64-bit count range"):
            closure_vs_oracle(crn, crn.config({"X": 2**62}), scale_limit=2)

    def test_caps_are_reported(self):
        crn, _ = parse_crn("X + X -> Y\n")
        cmp = closure_vs_oracle(crn, crn.config({"X": 1}), 2, max_configs=7, max_count=9)
        assert cmp.to_dict(crn)["caps"] == {"max_configs": 7, "max_count": 9}

    @pytest.mark.parametrize("scale_limit", [2.5, math.nan, True])
    def test_scale_limit_must_be_an_integer(self, scale_limit):
        # 2.5 raised a TypeError from range(), and True compared one scale
        crn, _ = parse_crn("X + X -> Y\n")
        with pytest.raises(DomainError, match="scale_limit must be an integer of at least 1"):
            closure_vs_oracle(crn, crn.config({"X": 1}), scale_limit)

    def test_truncated_scale_is_inconclusive(self):
        crn, _ = parse_crn("X -> 2X\nX -> Y\n")
        cmp = closure_vs_oracle(crn, crn.config({"X": 1}), 1, max_configs=4, max_count=4)
        assert cmp.scales[0].inconclusive
        assert cmp.scales[0].is_subset


class TestCrossModuleInvariants:
    def test_bfs_subset_of_closure_random(self, rng):
        for _ in range(60):
            crn = random_crn(rng)
            init = random_config(rng, crn)
            st = stage_decomposition(crn, init)
            rep = reachable_set(crn, init, max_configs=5000, max_count=64)
            assert rep.producible <= st.closure

    def test_certificate_mass_invariant_along_trace(self):
        crn, _ = parse_crn("A + B -> 2C ; k=1\n2C -> A + B ; k=0.5\nC -> A ; k=0.1\n")
        cert = check_mass_conserving(crn)
        assert cert.exists
        init = crn.config({"A": 30, "B": 30, "C": 8})
        trace = simulate(crn, init, StopCondition(t_max=3.0), seed=11)
        masses = {
            sum(m * int(c) for m, c in zip(cert.mass, cfg.counts))
            for cfg in trace.replay(crn)
        }
        assert len(masses) == 1

    def test_population_protocol_total_constant_along_trace(self):
        crn, _ = parse_crn("L + L -> L + N\n")
        assert finite_density_status(crn).kind == "population_protocol"
        init = crn.config({"L": 80})
        trace = simulate(crn, init, StopCondition(t_max=10.0), seed=5)
        assert {cfg.total for cfg in trace.replay(crn)} == {80}
