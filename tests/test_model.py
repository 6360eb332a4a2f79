import pytest

from crnsim.errors import DomainError, NotApplicableError, ParseError
from crnsim.model import (
    Configuration,
    Crn,
    Reaction,
    SpeciesTable,
    apply_reaction,
    format_crn,
    is_applicable,
    parse_crn,
    support,
)

from conftest import random_config, random_crn


class TestParse:
    def test_stoichiometric_triple(self):
        crn, init = parse_crn("A + 2B -> A + 3C ; k=4.7\n")
        assert crn.species.names == ("A", "B", "C")
        rx = crn.reactions[0]
        assert rx.reactants == (1, 2, 0)
        assert rx.products == (1, 0, 3)
        assert rx.rate_constant == 4.7
        assert init is None

    def test_empty_product_side(self):
        crn, _ = parse_crn("X -> 0 ; k=1\n")
        assert crn.reactions[0].reactants == (1,)
        assert crn.reactions[0].products == (0,)

    def test_default_rate_constant(self):
        crn, _ = parse_crn("L + L -> L + N\n")
        rx = crn.reactions[0]
        assert rx.reactants == (2, 0)
        assert rx.products == (1, 1)
        assert rx.rate_constant == 1.0

    def test_species_order_first_appearance(self):
        crn, _ = parse_crn("B -> A\nC + A -> 2B\n")
        assert crn.species.names == ("B", "A", "C")

    def test_species_declaration_fixes_order(self):
        crn, _ = parse_crn("species: Z Y X\nX -> Y\n")
        assert crn.species.names == ("Z", "Y", "X")

    def test_init_lines(self):
        crn, init = parse_crn("X -> Y\ninit: X = 5\ninit: Y = 0\n")
        assert init == Configuration([5, 0])

    def test_init_can_introduce_species(self):
        crn, init = parse_crn("X -> Y\ninit: X = 2\ninit: Z = 7\n")
        assert crn.species.names == ("X", "Y", "Z")
        assert init == Configuration([2, 0, 7])

    def test_comments_and_blanks(self):
        text = "# heading\n\nX -> Y ; k=2 # trailing note\n   \n"
        crn, _ = parse_crn(text)
        assert len(crn.reactions) == 1
        assert crn.reactions[0].rate_constant == 2.0

    def test_label_clause(self):
        crn, _ = parse_crn("X -> Y ; k=2 ; label=convert\n")
        assert crn.reactions[0].label == "convert"

    def test_primed_identifiers(self):
        crn, _ = parse_crn("X' -> Y'\n")
        assert crn.species.names == ("X'", "Y'")

    def test_repeated_species_accumulates(self):
        crn, _ = parse_crn("A + A + B -> 4A\n")
        assert crn.reactions[0].reactants == (2, 1)
        assert crn.reactions[0].products == (4, 0)

    def test_zero_and_high_order_reactant_sides_accepted(self):
        # the parser is permissive; the kinetics layer rejects these
        crn, _ = parse_crn("0 -> X\nA + B + C -> A\n")
        assert crn.reactions[0].reactants == (0, 0, 0, 0)
        assert sum(crn.reactions[1].reactants) == 3

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("A -> ; k=1", "expected species name"),
            ("A B -> C", "expected"),
            ("A -> A", "no-op"),
            ("A -> B ; k=0", "positive"),
            ("A -> B ; k=-1", "positive decimal"),
            ("A -> B ; q=2", "unknown clause"),
            ("A -> B ; k=1 ; k=2", "duplicate rate"),
            ("0A -> B", "coefficient must be positive"),
            ("init: A = 1\ninit: A = 2", "duplicate species"),
            ("init: A = -3", "nonnegative integer"),
            ("init: A = 99999999999999999999", "overflows"),
            ("species: A A", "already declared"),
        ],
    )
    def test_errors(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_crn(text + "\n")

    def test_error_carries_line_and_column(self):
        with pytest.raises(ParseError) as exc:
            parse_crn("X -> Y\nA -> A\n")
        assert exc.value.line == 2
        assert "line 2" in str(exc.value)


class TestRoundtrip:
    @pytest.mark.parametrize(
        "text",
        [
            "A + 2B -> A + 3C ; k=4.7\n",
            "X -> 0 ; k=1\n",
            "L + L -> L + N\ninit: L = 100\n",
            "",
            "species: A B C\n",
            "X -> Y ; k=0.125 ; label=swap\ninit: X = 3\ninit: Y = 0\n",
        ],
    )
    def test_parse_format_parse_fixed_points(self, text):
        crn1, init1 = parse_crn(text)
        out = format_crn(crn1, init1)
        crn2, init2 = parse_crn(out)
        assert crn2 == crn1
        assert init2 == init1
        assert format_crn(crn2, init2) == out

    def test_empty_crn_is_header_only(self):
        crn = Crn(SpeciesTable(()), ())
        assert format_crn(crn) == "# crn\n"

    def test_random_crns_roundtrip(self, rng):
        for _ in range(100):
            crn = random_crn(rng, max_species=5, max_reactions=6)
            init = random_config(rng, crn, nonzero=False)
            crn2, init2 = parse_crn(format_crn(crn, init))
            assert crn2 == crn
            assert init2 == init


class TestOperations:
    def setup_method(self):
        self.crn, _ = parse_crn("A + 2B -> A + 3C ; k=4.7\n")
        self.rx = self.crn.reactions[0]

    def test_applicable_exact_boundary(self):
        assert is_applicable(Configuration([1, 2, 0]), self.rx)

    def test_not_applicable_short_one(self):
        assert not is_applicable(Configuration([1, 1, 0]), self.rx)

    def test_zero_config_never_applicable(self):
        assert not is_applicable(Configuration([0, 0, 0]), self.rx)

    def test_apply_example(self):
        out = apply_reaction(Configuration([1, 2, 0]), self.rx)
        assert out == Configuration([1, 0, 3])
        assert out.total == 4

    def test_apply_decay(self):
        crn, _ = parse_crn("X -> 0\n")
        out = apply_reaction(Configuration([5]), crn.reactions[0])
        assert out == Configuration([4])
        assert out.total == 4

    def test_apply_leader(self):
        crn, _ = parse_crn("L + L -> L + N\n")
        out = apply_reaction(Configuration([2, 0]), crn.reactions[0])
        assert out == Configuration([1, 1])

    def test_apply_rejects_inapplicable(self):
        with pytest.raises(NotApplicableError):
            apply_reaction(Configuration([0, 5, 0]), self.rx)

    def test_support(self):
        assert support(Configuration([0, 3])) == frozenset({1})
        assert support(Configuration([0, 0])) == frozenset()
        assert support(Configuration([1, 1, 1])) == frozenset({0, 1, 2})

    def test_configuration_rejects_negative(self):
        with pytest.raises(ValueError):
            Configuration([1, -1])

    def test_configuration_refuses_counts_beyond_int64(self):
        with pytest.raises(DomainError, match="overflows the 64-bit count range"):
            Configuration([1, 2**63])

    def test_total_is_exact(self):
        assert Configuration([2**62, 2**62]).total == 2**63

    def test_scale_is_exact_or_refused(self):
        assert Configuration([2**62 - 1, 0, 5]).scale(2) == Configuration([2**63 - 2, 0, 10])
        for counts, factor in (([2**63 - 1], 3), ([1, 2**62], 2)):
            with pytest.raises(DomainError, match="overflows the 64-bit count range"):
                Configuration(counts).scale(factor)

    def test_crn_rejects_noop_reaction(self):
        with pytest.raises(ValueError, match="no-op"):
            Crn(SpeciesTable(("A",)), (Reaction((1,), (1,)),))

    def test_crn_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="rate"):
            Crn(SpeciesTable(("A", "B")), (Reaction((1, 0), (0, 1), 0.0),))


class TestInvariants:
    def test_apply_properties_random(self, rng):
        for _ in range(200):
            crn = random_crn(rng)
            cfg = random_config(rng, crn, max_count=5, nonzero=False)
            for rx in crn.reactions:
                if not is_applicable(cfg, rx):
                    continue
                out = apply_reaction(cfg, rx)
                assert int(out.counts.min()) >= 0
                assert out.total - cfg.total == sum(rx.products) - sum(rx.reactants)

    def test_pairwise_reactions_preserve_total(self, rng):
        crn, _ = parse_crn("L + L -> L + N\nN + L -> N + N\n")
        cfg = Configuration([6, 4])
        for rx in crn.reactions:
            assert apply_reaction(cfg, rx).total == cfg.total
