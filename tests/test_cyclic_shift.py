"""Brute-force classes of the cyclic-shift relation."""

import pytest

import heckezero.cyclic_shift as cyclic_shift
from heckezero.compositions import enumerate_maximal
from heckezero.errors import DegreeLimitError, InvariantError
from heckezero.cyclic_shift import (
    _match_representatives, _step, approx_class,
    equiv_classes, label_max_classes, min_representatives, one_step,
)
from heckezero.permutations import (
    all_perms, compose, conj_w0, cycle_type, even_orbits, from_cycles,
    identity, length, lengths, longest_element, make_equiv_class,
)
from heckezero.stair_classes import member_sigma_alpha, stair_form

from oracles import (
    apply_gen_left, apply_gen_right, extreme_strata, inv_count,
    mutual_classes, reach_set, twisted_image,
)


def perm(*cycs, n):
    return from_cycles(n, cycs)


def partition(n, twist):
    """The classes of S_n found by `approx_class`, each from the least
    permutation not yet covered."""
    covered, classes = set(), []
    for w in all_perms(n):
        if w not in covered:
            classes.append(approx_class(w, twist))
            covered |= classes[-1]
    return classes


def arrow_closure(w, twist="id"):
    """All permutations reachable from `w` by repeated `one_step`."""
    seen = {w}
    stack = [w]
    while stack:
        v = stack.pop()
        for i in range(1, len(v)):
            u = one_step(v, i, twist)
            if u is not None and u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


class TestOneStep:
    def test_identity_fixed(self):
        assert one_step(identity(3), 1) == identity(3)

    def test_three_cycle_step(self):
        assert one_step(perm((1, 2, 3), n=3), 1) == perm((1, 3, 2), n=3)

    def test_stair_six_drop(self):
        p = perm((1, 6, 2, 5, 3, 4), n=6)
        assert one_step(p, 2) == perm((1, 6, 3, 5, 2, 4), n=6)

    def test_absent_when_length_grows(self):
        # conjugating s_1 by s_2 gives a length-3 element
        assert one_step((2, 1, 3), 2) is None

    def test_nu_twist_uses_mirrored_generator(self):
        # s_1 * w * s_{n-1}; for w = s_1 in S_4 this lands on s_1 s_1 s_3 = s_3
        assert one_step((2, 1, 3, 4), 1, "nu") == (1, 2, 4, 3)


class TestStepKernel:
    @pytest.mark.parametrize("twist", ["id", "nu"])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_oracle(self, n, twist):
        for w in all_perms(n):
            lw = inv_count(w)
            for i in range(1, n):
                j = twisted_image(i, n, twist)
                u = apply_gen_right(apply_gen_left(i, w), j)
                delta = inv_count(u) - lw
                assert _step(w, i, j) == (u if delta == 0 else None)
                assert _step(w, i, j, lower=True) == (u if delta <= 0 else None)

    def test_public_entry_points_reject_unknown_twist(self):
        w = (2, 1, 3)
        for call in (lambda: one_step(w, 1, "mu"),
                     lambda: approx_class(w, "mu"),
                     lambda: equiv_classes(3, "mu")):
            with pytest.raises(ValueError, match="unknown twist"):
                call()

    @pytest.mark.parametrize("twist", ["id", "nu"])
    def test_computes_no_length(self, twist, monkeypatch):
        def no_length(w):
            raise AssertionError("the step kernel must not compute a length")

        expected = partition(6, twist)
        monkeypatch.setattr(cyclic_shift, "length", no_length)
        assert partition(6, twist) == expected
        w = perm((1, 6, 2, 5, 3, 4), n=6)
        assert approx_class(w, twist) in expected
        assert one_step(w, 2, twist) is not None


class TestArrowClosure:
    """The closure of the one-step relation, taken through `one_step`."""

    def test_identity_singleton(self):
        assert arrow_closure(identity(4)) == {identity(4)}

    def test_w0_of_s3_reaches_all_transpositions(self):
        # steps conjugate, so the closure stays inside the conjugacy class
        reached = arrow_closure(perm((1, 3), n=3))
        assert reached == {perm((1, 3), n=3), perm((1, 2), n=3),
                           perm((2, 3), n=3)}

    @pytest.mark.parametrize("n", range(1, 6))
    def test_closure_preserves_cycle_type(self, n):
        for w in all_perms(n):
            t = cycle_type(w)
            reached = arrow_closure(w)
            assert reached == reach_set(w)
            assert all(cycle_type(v) == t for v in reached)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_max_stratum_reached_from_stair_forms(self, n):
        reached = set()
        for alpha in enumerate_maximal(n):
            reached |= approx_class(stair_form(alpha))
        by_type = {}
        for w in all_perms(n):
            key = cycle_type(w)
            by_type.setdefault(key, []).append(w)
        max_stratum = {
            w
            for members in by_type.values()
            for w in members
            if length(w) == max(length(v) for v in members)
        }
        assert reached == max_stratum

    def test_a_budget_stops_the_search_past_it(self):
        w = stair_form((3, 3))      # a class of 22
        assert approx_class(w, budget=22) == approx_class(w)
        with pytest.raises(DegreeLimitError, match="force"):
            approx_class(w, budget=21)

    def test_no_budget_is_the_element_limit_unless_forced(self, monkeypatch):
        w = stair_form((3, 3))      # a class of 22
        monkeypatch.setattr(cyclic_shift, "ELEMENT_SOFT_LIMIT", 21)
        with pytest.raises(DegreeLimitError, match="force"):
            approx_class(w)
        assert len(approx_class(w, force=True)) == 22
        # the strata sit behind the degree gate, and search unbounded
        assert len(label_max_classes(6)[(3, 3)].elements) == 22
        monkeypatch.setattr(cyclic_shift, "ELEMENT_SOFT_LIMIT", 22)
        assert len(approx_class(w)) == 22


class TestMakeEquivClass:
    def test_reads_the_common_length(self):
        cls = make_equiv_class([(2, 3, 1), (3, 1, 2)], alpha=(3,))
        assert (cls.common_length, cls.size, cls.alpha) == (2, 2, (3,))

    def test_refuses_members_of_different_degrees(self):
        # both have length 0, which the class used to report
        with pytest.raises(ValueError, match="different degrees"):
            make_equiv_class([(1, 2), (1, 2, 3)])

    @pytest.mark.parametrize("elements", [[], [(1, 2), (2, 1)]])
    def test_refuses_empty_or_unequal_lengths(self, elements):
        with pytest.raises(ValueError):
            make_equiv_class(elements)


class TestEquivClasses:
    def test_s3_max_classes(self):
        classes = equiv_classes(3, "id", "max")
        got = {cls.elements for cls in classes}
        assert got == {
            frozenset({identity(3)}),
            frozenset({perm((1, 2, 3), n=3), perm((1, 3, 2), n=3)}),
            frozenset({perm((1, 3), n=3)}),
        }

    def test_n1_single_class(self):
        classes = equiv_classes(1)
        assert len(classes) == 1 and classes[0].elements == {identity(1)}

    def test_n0(self):
        classes = equiv_classes(0)
        assert len(classes) == 1 and classes[0].elements == {()}

    def test_n6_max_class_count(self):
        # twelve maximal compositions of 6, including (2, 2, 1, 1)
        assert len(equiv_classes(6, "id", "max")) == 12

    @pytest.mark.parametrize("twist", ["id", "nu"])
    @pytest.mark.parametrize("n", range(6))
    def test_matches_pairwise_reachability_oracle(self, n, twist):
        got = {cls.elements for cls in equiv_classes(n, twist)}
        expected = set(mutual_classes(n, twist))
        assert got == expected

    @pytest.mark.parametrize("twist", ["id", "nu"])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_classes_partition_sn_with_constant_length(self, n, twist):
        classes = equiv_classes(n, twist)
        seen = set()
        for cls in classes:
            assert all(length(w) == cls.common_length for w in cls.elements)
            assert not (cls.elements & seen)
            seen |= cls.elements
        assert len(seen) == len(list(all_perms(n)))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_equal_length_conjugates_share_class(self, n):
        # one step that preserves length always stays inside the class
        of_elem = {}
        for idx, cls in enumerate(equiv_classes(n)):
            for w in cls.elements:
                of_elem[w] = idx
        for w in all_perms(n):
            lw = length(w)
            for i in range(1, n):
                v = one_step(w, i)
                if v is not None and length(v) == lw:
                    assert of_elem[v] == of_elem[w]

    @pytest.mark.parametrize("twist", ["id", "nu"])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_min_and_max_strata_cover_extremes(self, n, twist):
        w0 = longest_element(n)

        def key(w):
            return cycle_type(w) if twist == "id" else cycle_type(compose(w, w0))

        lo, hi = {}, {}
        for w in all_perms(n):
            k, lw = key(w), length(w)
            lo[k] = min(lo.get(k, lw), lw)
            hi[k] = max(hi.get(k, lw), lw)
        for stratum, extreme in (("min", lo), ("max", hi)):
            classes = equiv_classes(n, twist, stratum)
            covered = set()
            for cls in classes:
                for w in cls.elements:
                    assert length(w) == extreme[key(w)]
                covered |= cls.elements
            expected = {w for w in all_perms(n)
                        if length(w) == extreme[key(w)]}
            assert covered == expected

    def test_degree_guard(self):
        with pytest.raises(DegreeLimitError):
            equiv_classes(9)
        with pytest.raises(ValueError) as exc:
            equiv_classes(-1)
        assert not isinstance(exc.value, DegreeLimitError)

    def test_unknown_stratum_is_invalid_input_beyond_the_gate(self):
        # invalid input is reported as such, not as a resource limit
        with pytest.raises(ValueError, match="unknown stratum") as exc:
            equiv_classes(9, "id", "bogus")
        assert not isinstance(exc.value, DegreeLimitError)

    def test_approx_class_matches_scc(self):
        for n in range(1, 6):
            for cls in equiv_classes(n):
                w = cls.min_element
                assert approx_class(w) == cls.elements


class TestStrataPass:
    """The min and max strata come from one pass over S_n, not from the
    partition of all of S_n."""

    @pytest.mark.parametrize("stratum", ["min", "max"])
    @pytest.mark.parametrize("twist", ["id", "nu"])
    @pytest.mark.parametrize("n", range(8))
    def test_elements_match_oracle(self, n, twist, stratum):
        classes = equiv_classes(n, twist, stratum)
        got = set()
        for cls in classes:
            assert not cls.elements & got
            got |= cls.elements
        assert got == extreme_strata(n, twist, stratum)
        # sorted by least member, and each class starts from it
        least = [cls.min_element for cls in classes]
        assert least == sorted(least)
        assert all(approx_class(w, twist) == cls.elements
                   for w, cls in zip(least, classes))

    @pytest.mark.parametrize("n, sizes", [(8, (371, 610)), (9, (1287, 1597))],
                             ids=["id-8-sizes0", "id-9-sizes1"])
    @pytest.mark.parametrize("longest", [True, False])
    def test_kept_lengths_beyond_the_oracle(self, n, sizes, longest):
        # the oracle is too slow here, so the batch kernel recounts every
        # kept length; the id-max stratum is the union of the labelled
        # classes, 371 elements at n = 8 and 1,287 at n = 9
        kept = cyclic_shift._extreme_lengths(n, longest)
        assert len(kept) == sizes[not longest]
        assert lengths(kept) == list(kept.values())

    @pytest.mark.parametrize("n, sizes", [(8, (371, 610)), (9, (1287, 1597))])
    @pytest.mark.parametrize("stratum", ["min", "max"])
    def test_moved_nu_strata_beyond_the_oracle(self, n, sizes, stratum):
        # a nu stratum is the id stratum of the other extreme moved by w0,
        # so nu-min holds as many elements as id-max; the twisted search
        # and the batch kernel recheck every moved class and length
        classes = equiv_classes(n, "nu", stratum, force=True)
        assert sum(cls.size for cls in classes) == sizes[stratum == "max"]
        for cls in classes:
            assert approx_class(cls.min_element, "nu") == cls.elements
            assert lengths(cls.elements) == [cls.common_length] * cls.size

    def test_one_pass_per_degree_across_both_twists(self, monkeypatch):
        # the nu strata are read off the cached id strata: after the
        # labelling, the twisted-minimal stratum makes no pass and no walk
        passes, walks = [], []
        stratum_pass = cyclic_shift._extreme_lengths

        def counting_pass(n, longest):
            passes.append((n, longest))
            return stratum_pass(n, longest)

        def counting_all_perms(n):
            walks.append(n)
            return all_perms(n)

        cyclic_shift._stratum.cache_clear()
        monkeypatch.setattr(cyclic_shift, "_extreme_lengths", counting_pass)
        monkeypatch.setattr(cyclic_shift, "all_perms", counting_all_perms)
        try:
            label_max_classes(7)
            assert passes == [(7, True)] and walks == [6]
            assert equiv_classes(7, "nu", "min")
            assert len(min_representatives(7)) == len(enumerate_maximal(7))
            assert passes == [(7, True)] and walks == [6]
            # a nu stratum first makes the id pass it is moved from, which
            # the id stratum then reuses
            assert equiv_classes(6, "nu", "max")
            assert equiv_classes(6, "id", "min")
            assert passes == [(7, True), (6, False)] and walks == [6, 5]
        finally:
            cyclic_shift._stratum.cache_clear()

    def test_strata_never_partition_sn(self, monkeypatch):
        def no_partition(n):
            if n == 6:
                raise AssertionError("a stratum must not partition all of S_n")
            return all_perms(n)

        cyclic_shift._stratum.cache_clear()
        monkeypatch.setattr(cyclic_shift, "all_perms", no_partition)
        try:
            for twist in ("id", "nu"):
                for stratum in ("min", "max"):
                    assert equiv_classes(6, twist, stratum)
            assert len(label_max_classes(6)) == 12
            assert len(min_representatives(6)) == 12
            with pytest.raises(AssertionError, match="must not partition"):
                equiv_classes(6, "id", "all")
        finally:
            cyclic_shift._stratum.cache_clear()

    def test_a_class_leaving_the_stratum_is_an_invariant_error(
            self, monkeypatch):
        cyclic_shift._stratum.cache_clear()
        # the stratum search sits behind the degree gate, and lifts the
        # element gate of the class search
        monkeypatch.setattr(
            cyclic_shift, "approx_class",
            lambda w, twist, force: frozenset({w, longest_element(4)}))
        try:
            # w0 of S_4 is longer than (2,1,4,3), which has its cycle type
            with pytest.raises(InvariantError, match="leaves the min stratum"):
                equiv_classes(4, "id", "min")
        finally:
            cyclic_shift._stratum.cache_clear()


class TestLabelMaxClasses:
    def test_n3_labels(self):
        labelled = label_max_classes(3)
        assert labelled[(3,)].elements == {
            perm((1, 3, 2), n=3), perm((1, 2, 3), n=3)}
        assert labelled[(2, 1)].elements == {perm((1, 3), n=3)}
        assert labelled[(1, 1, 1)].elements == {identity(3)}

    def test_n1(self):
        labelled = label_max_classes(1)
        assert labelled == {(1,): labelled[(1,)]}
        assert labelled[(1,)].elements == {identity(1)}

    def test_n5_single_part_is_table_column(self):
        labelled = label_max_classes(5)
        expected = {
            perm((1, 5, 2, 4, 3), n=5), perm((1, 5, 2, 3, 4), n=5),
            perm((1, 5, 3, 2, 4), n=5), perm((1, 4, 2, 3, 5), n=5),
            perm((1, 4, 3, 2, 5), n=5), perm((1, 3, 4, 2, 5), n=5)}
        assert labelled[(5,)].elements == expected

    @pytest.mark.parametrize("n", range(7))
    def test_total_and_bijective(self, n):
        labelled = label_max_classes(n)
        classes = equiv_classes(n, "id", "max")
        assert len(labelled) == len(classes) == len(enumerate_maximal(n))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_even_orbits_constant_on_labelled_classes(self, n):
        for alpha, cls in label_max_classes(n).items():
            expected = even_orbits(stair_form(alpha))
            assert all(even_orbits(w) == expected for w in cls.elements)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_membership_predicate_matches(self, n):
        for alpha, cls in label_max_classes(n).items():
            for w in cls.elements:
                assert member_sigma_alpha(w, alpha)


class TestMatchRepresentatives:
    """The one check behind label_max_classes and min_representatives."""

    def classes(self):
        return equiv_classes(3, "id", "max")

    def test_bijection(self):
        reps = {alpha: stair_form(alpha) for alpha in enumerate_maximal(3)}
        index = _match_representatives(self.classes(), reps, "rep", "S_3")
        assert sorted(index.values()) == [0, 1, 2]

    def test_rejects_outside_rep(self):
        reps = {(3,): (2, 1, 3)}
        with pytest.raises(InvariantError, match="rep of \\(3,\\) is not in"):
            _match_representatives(self.classes(), reps, "rep", "S_3")

    def test_rejects_shared_class(self):
        reps = {(3,): (2, 3, 1), (2, 1): (3, 1, 2)}
        with pytest.raises(InvariantError, match="share one class"):
            _match_representatives(self.classes(), reps, "rep", "S_3")

    def test_rejects_missed_class(self):
        reps = {(3,): (2, 3, 1)}
        with pytest.raises(InvariantError, match="2 classes of S_3 hold no rep"):
            _match_representatives(self.classes(), reps, "rep", "S_3")


class TestNuInvariance:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_conj_w0_stabilizes_max_classes(self, n):
        for cls in equiv_classes(n, "id", "max"):
            assert {conj_w0(w) for w in cls.elements} == cls.elements

    @pytest.mark.parametrize("n", range(2, 8))
    def test_single_class_iff_equal_even_parts(self, n):
        # per conjugacy class: one max class exactly when even parts agree
        by_type = {}
        for cls in equiv_classes(n, "id", "max"):
            key = cycle_type(cls.min_element)
            by_type[key] = by_type.get(key, 0) + 1
        for lam, count in by_type.items():
            evens = [a for a in lam if a % 2 == 0]
            assert (count == 1) == (len(set(evens)) <= 1)


class TestTwistedConjugacyKey:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_nu_classes_match_twisted_conjugation_orbits(self, n):
        # the conjugacy half of the w0 relation: the orbits of
        # w -> s_i w s_{n-i} (any length) are the conjugacy classes moved
        # by w0, keyed by the cycle type of w*w0, which is w read backwards
        w0 = longest_element(n)
        seen = set()
        orbits_list = []
        for start in all_perms(n):
            assert start[::-1] == compose(start, w0)
            if start in seen:
                continue
            orbit = {start}
            stack = [start]
            while stack:
                v = stack.pop()
                for i in range(1, n):
                    u = apply_gen_right(apply_gen_left(i, v), n - i)
                    if u not in orbit:
                        orbit.add(u)
                        stack.append(u)
            seen |= orbit
            orbits_list.append(orbit)
        for orbit in orbits_list:
            keys = {cycle_type(w[::-1]) for w in orbit}
            assert len(keys) == 1
        by_key = {}
        for orbit in orbits_list:
            key = cycle_type(next(iter(orbit))[::-1])
            assert key not in by_key
            by_key[key] = orbit


class TestMinRepresentatives:
    def test_n1(self):
        assert min_representatives(1) == {(1,): identity(1)}

    def test_n3_all_ones_gives_w0(self):
        reps = min_representatives(3)
        assert reps[(1, 1, 1)] == longest_element(3)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_distinct_nu_min_classes(self, n):
        reps = min_representatives(n)  # raises on any failure
        w0 = longest_element(n)
        for alpha, rep in reps.items():
            assert rep == compose(stair_form(alpha), w0)
