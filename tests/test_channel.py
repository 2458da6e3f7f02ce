"""Channel generation, rank-condition verification, and persistence."""

import collections
import hashlib
import itertools
import json
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from compound_bcc import channel, cli, rankcheck, seeding
from compound_bcc.channel import (
    ChannelGenSpec,
    RankConditionReport,
    CompoundChannelSet,
    attempt_seed,
    channel_to_dict,
    generate_batch,
    generate_compound,
    load_channel,
    rank_report,
    save_channel,
    stacked_sets,
    verify_rank_condition,
)
from compound_bcc.errors import (
    ChannelFormatError,
    GenerationError,
    InvalidInputError,
)
from compound_bcc.linalg import numerical_rank
from compound_bcc.rankcheck import EXHAUSTIVE_ROW_LIMIT, SAMPLE_SEED, SAMPLED_SUBSET_COUNT
import reference
from reference import generate_per_attempt, per_state_draw, rank_threshold, swap_users

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_PATH = os.path.join(DATA_DIR, "channel_seed1.json")
GOLDEN_SHA256 = "c1974969f8e6f237e96d5dec89567140585a84083602a4931b96cd2decd137e2"


def random_channel(seed, M=3, N1=2, N2=1, J1=2, J2=3):
    return generate_compound(ChannelGenSpec(M, N1, N2, J1, J2, seed=seed))


def per_subset_report(ch):
    """Reference rank check: one numerical_rank call per row subset."""
    rows = ch.stacked_rows()
    total = rows.shape[0]
    if total < ch.M:
        return RankConditionReport(passed=True, checked=0, exhaustive=True)
    exhaustive = total <= EXHAUSTIVE_ROW_LIMIT or math.comb(total, ch.M) <= SAMPLED_SUBSET_COUNT
    if exhaustive:
        subsets = list(itertools.combinations(range(total), ch.M))
    else:
        rng = np.random.default_rng(SAMPLE_SEED)
        subsets = [
            tuple(sorted(rng.choice(total, size=ch.M, replace=False)))
            for _ in range(SAMPLED_SUBSET_COUNT)
        ]
    failures = tuple(s for s in subsets if numerical_rank(rows[list(s)]) != ch.M)
    return RankConditionReport(
        passed=not failures,
        checked=len(subsets),
        exhaustive=exhaustive,
        failures=failures,
        failure_labels=tuple(tuple(ch.row_label(i) for i in s) for s in failures),
    )


# Ways to make some stacked rows dependent, or nearly so: row ``dst`` becomes
# ``scale * row src + eps * noise``, or zero. Rescaling a row keeps its rank.
EDITS = st.lists(
    st.tuples(
        st.sampled_from(["copy", "zero", "rescale"]),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.sampled_from([1.0, -1.0, 2.0, 1e-8, 1e8, 1j]),
        st.sampled_from([0.0, 1e-13, 1e-11, 1e-9, 1e-6]),
    ),
    max_size=4,
)
TOLERANCES = st.sampled_from([1e-12, 1e-10, 1 - 1e-12])


def edited_channel(M, N1, N2, J1, J2, seed, edits):
    ch = random_channel(seed, M, N1, N2, J1, J2)
    rows = ch.stacked_rows()
    noise = np.random.default_rng(seed).standard_normal(rows.shape)
    for kind, src, dst, scale, eps in edits:
        src, dst = src % len(rows), dst % len(rows)
        if kind == "copy":
            rows[dst] = scale * rows[src] + eps * noise[dst]
        elif kind == "zero":
            rows[dst] = 0.0
        else:
            rows[dst] = scale * rows[dst]
    n1 = J1 * N1
    h1 = tuple(rows[j * N1:(j + 1) * N1] for j in range(J1))
    h2 = tuple(rows[n1 + j * N2:n1 + (j + 1) * N2] for j in range(J2))
    return CompoundChannelSet(M, N1, N2, J1, J2, h1, h2)


class TestGeneration:
    def test_deterministic_bit_for_bit(self):
        a = random_channel(42)
        b = random_channel(42)
        for k in (1, 2):
            for j in range(1, (a.J1 if k == 1 else a.J2) + 1):
                assert np.array_equal(a.state(k, j), b.state(k, j))

    def test_distinct_seeds_differ(self):
        a = random_channel(0)
        b = random_channel(1)
        assert not np.array_equal(a.state(1, 1), b.state(1, 1))

    def test_unit_variance_entries(self):
        # aggregate moment check, bounds at 3 standard errors for the sample size
        chans = [random_channel(s, M=4, N1=2, N2=2, J1=3, J2=3) for s in range(30)]
        entries = np.concatenate([c.stacked_rows().reshape(-1) for c in chans])
        n = entries.size
        assert n == 30 * 12 * 4
        assert abs(np.mean(np.abs(entries) ** 2) - 1.0) < 3.0 / np.sqrt(n)
        assert abs(np.mean(entries.real)) < 3.0 * np.sqrt(0.5 / n)
        # circular symmetry: real and imaginary parts carry half the power each
        assert abs(np.mean(entries.real**2) - 0.5) < 3.0 * np.sqrt(0.5 / n)

    def test_rank_condition_holds_on_generated(self):
        for seed in range(10):
            ch = random_channel(seed)
            assert verify_rank_condition(ch).passed

    def test_generation_failure_with_absurd_tolerance(self):
        # a threshold near 1 declares every matrix rank-deficient, so every
        # draw fails verification and the resampling budget runs out
        spec = ChannelGenSpec(2, 1, 1, 2, 2, seed=0)
        with rank_threshold(1 - 1e-12), mock.patch.object(channel, "MAX_RESAMPLES", 3):
            with pytest.raises(GenerationError) as exc:
                generate_compound(spec)
        assert "after 3 attempts" in str(exc.value)

    def test_attempt_seed_injective(self):
        states = set()
        for seed in range(5):
            for attempt in range(5):
                states.add(tuple(attempt_seed(seed, attempt).generate_state(4)))
        assert len(states) == 25

    @pytest.mark.parametrize("field", ["M", "N1", "J2"])
    def test_bool_dimension_rejected(self, field):
        good = random_channel(3)
        dims = dict(M=3, N1=2, N2=1, J1=2, J2=3, h1=good.h1, h2=good.h2)
        dims[field] = True
        with pytest.raises(InvalidInputError, match=field):
            CompoundChannelSet(**dims)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(InvalidInputError, match="seed"):
            ChannelGenSpec(3, 1, 1, 2, 2, seed=seed)

    def test_shape_validation(self):
        good = random_channel(3)
        with pytest.raises(InvalidInputError):
            CompoundChannelSet(3, 2, 1, 2, 3, good.h1, good.h1)  # wrong count

    @pytest.mark.parametrize("method, args, message", [
        ("state", (1, 0), "state index j must be an integer in 1..2, got 0"),
        ("state", (2, -1), "state index j must be an integer in 1..2, got -1"),
        ("state", (1, 3), "state index j must be an integer in 1..2, got 3"),
        ("state", (1, 1.0), "state index j must be an integer in 1..2, got 1.0"),
        ("state", (1, True), "state index j must be an integer in 1..2, got True"),
        ("row_label", (-1,), "stacked row index i must be an integer in 0..3, got -1"),
        ("row_label", (99,), "stacked row index i must be an integer in 0..3, got 99"),
        ("row_label", (False,), "stacked row index i must be an integer in 0..3, got False"),
    ], ids=lambda x: repr(x) if isinstance(x, tuple) else None)
    def test_bad_state_and_row_indices_rejected(self, method, args, message):
        ch = generate_compound(ChannelGenSpec(3, 1, 1, 2, 2, seed=0))
        with pytest.raises(InvalidInputError) as exc:
            getattr(ch, method)(*args)
        assert str(exc.value) == message
        # numpy integers in range are indices too
        assert ch.state(2, np.int64(2)) is ch.h2[1]
        assert ch.row_label(np.int64(3)) == "H_2_2[0]"

    def test_swap_users(self):
        ch = random_channel(9)
        sw = swap_users(ch)
        assert (sw.N1, sw.N2, sw.J1, sw.J2) == (ch.N2, ch.N1, ch.J2, ch.J1)
        assert np.array_equal(sw.state(1, 2), ch.state(2, 2))
        assert np.array_equal(sw.state(2, 1), ch.state(1, 1))


class TestRankCondition:
    def test_exhaustive_subset_count(self):
        ch = random_channel(5)  # 2*2 + 3*1 = 7 stacked rows, M = 3
        report = verify_rank_condition(ch)
        assert report.exhaustive
        assert report.checked == len(list(itertools.combinations(range(7), 3)))

    def test_oracle_agreement_on_small_channels(self):
        # independent oracle: brute-force numpy matrix_rank over all subsets
        for seed in range(5):
            ch = random_channel(seed, M=2, N1=1, N2=1, J1=2, J2=2)
            rows = ch.stacked_rows()
            ok = all(
                np.linalg.matrix_rank(rows[list(s)]) == 2
                for s in itertools.combinations(range(4), 2)
            )
            assert verify_rank_condition(ch).passed == ok

    def test_duplicated_row_fails_with_subset_named(self):
        ch = random_channel(11, M=2, N1=1, N2=1, J1=2, J2=2)
        h1 = (ch.h1[0], ch.h1[0])  # duplicate state
        bad = CompoundChannelSet(2, 1, 1, 2, 2, h1, ch.h2)
        report = verify_rank_condition(bad)
        assert not report.passed
        assert (0, 1) in report.failures
        assert ("H_1_1[0]", "H_1_2[0]") in report.failure_labels

    def test_vacuous_when_fewer_rows_than_m(self):
        ch = random_channel(2, M=4, N1=1, N2=1, J1=1, J2=1)
        report = verify_rank_condition(ch)
        assert report.passed and report.checked == 0

    def test_sampled_path_is_deterministic(self):
        # 26 rows > 24 at M = 4: C(26, 4) = 14,950 subsets, so 10,000 sampled
        ch = random_channel(7, M=4, N1=1, N2=1, J1=13, J2=13)
        r1 = verify_rank_condition(ch)
        r2 = verify_rank_condition(ch)
        assert not r1.exhaustive
        assert r1.checked == 10_000
        assert r1.passed and r1.failures == r2.failures

    def test_dependent_rows_the_sample_misses_fail_above_the_row_limit(self, tmp_path):
        # 26 rows at M = 3, row 14 = row 0 + 2 row 4: the 10,000 sampled
        # subsets miss (0, 4, 14), but C(26, 3) = 2,600 are all checked
        rng = np.random.default_rng(1)
        rows = rng.standard_normal((26, 3)) + 1j * rng.standard_normal((26, 3))
        rows[14] = rows[0] + 2 * rows[4]
        ch = CompoundChannelSet(3, 1, 1, 13, 13, tuple(rows[:13, None]), tuple(rows[13:, None]))
        sample = rankcheck._listed_chunks(26, 3, SAMPLED_SUBSET_COUNT, False)
        assert [0, 4, 14] not in np.concatenate(list(sample)).tolist()
        path = tmp_path / "channel.json"
        save_channel(ch, path)
        assert cli.main(["verify-channel", "--channel", str(path), "--out", str(tmp_path / "out")]) == 2
        with open(tmp_path / "out" / "summary.json") as fh:
            summary = json.load(fh)
        assert (summary["passed"], summary["subsets_checked"], summary["exhaustive"]) == (
            False, 2600, True
        )
        assert summary["failures"] == [["H_1_1[0]", "H_1_5[0]", "H_2_2[0]"]]
        assert verify_rank_condition(ch) == per_subset_report(ch)

    @pytest.mark.parametrize("rows, m, want", [
        (24, 12, (math.comb(24, 12), True)),  # every subset up to 24 rows
        (26, 3, (2600, True)),
        (26, 4, (10_000, False)),  # C(26, 4) = 14,950
        (25, 4, (10_000, False)),  # C(25, 4) = 12,650
        (141, 2, (9870, True)),
        (142, 2, (10_000, False)),  # C(142, 2) = 10,011
        (10_000, 1, (10_000, True)),
        (10_001, 1, (10_000, False)),
        (30, 27, (4060, True)),  # C(30, 27) = C(30, 3)
        (30, 30, (1, True)),
        (25, 26, (0, True)),  # fewer rows than M: nothing to check
        (2 * 10**8, 10**8, (10_000, False)),  # no huge binomial is computed
    ])
    def test_subset_count(self, rows, m, want):
        assert rankcheck.subset_count(rows, m) == want


class TestBatchedRankCheck:
    """The chunked, screened check reports exactly what the per-subset loop does."""

    # RANK_CHUNK entries: blocks of one prefix, spans of one or a few heads,
    # whose products and tails fit in 64 entries, which split the tails of
    # a prefix, and SVDs of 64 // M^2 referred subsets
    CHUNK = 64

    def check(self, ch, rel):
        # up to 24 rows, a minimum of 0 subsets takes every channel through
        # the prefix-shared screen, and the default takes small ones through
        # the slogdet screen
        with rank_threshold(rel):
            want = per_subset_report(ch)
            for least in (0, rankcheck.PREFIX_SCREEN_MIN):
                with mock.patch.multiple(rankcheck, RANK_CHUNK=self.CHUNK, PREFIX_SCREEN_MIN=least):
                    got = verify_rank_condition(ch)
                assert got == want
        return got

    @settings(max_examples=60, deadline=None)
    @given(
        M=st.integers(1, 4),
        dims=st.tuples(*(st.integers(1, n) for n in (3, 3, 4, 4))),
        seed=st.integers(0, 2**32 - 1),
        edits=EDITS,
        rel=TOLERANCES,
    )
    def test_exhaustive_matches_per_subset(self, M, dims, seed, edits, rel):
        N1, N2, J1, J2 = dims
        self.check(edited_channel(M, N1, N2, J1, J2, seed, edits), rel)

    @settings(max_examples=6, deadline=None)
    @given(
        J2=st.integers(13, 16),  # 13 + J2 rows at M = 4: more than 10,000 subsets
        seed=st.integers(0, 2**32 - 1),
        edits=EDITS,
        rel=TOLERANCES,
    )
    def test_sampled_matches_per_subset(self, J2, seed, edits, rel):
        got = self.check(edited_channel(4, 1, 1, 13, J2, seed, edits), rel)
        assert not got.exhaustive

    @settings(max_examples=6, deadline=None)
    @given(
        M=st.integers(1, 3),
        J2=st.integers(12, 16),  # 13 + J2 rows, above EXHAUSTIVE_ROW_LIMIT
        seed=st.integers(0, 2**32 - 1),
        edits=EDITS,
        rel=TOLERANCES,
    )
    def test_all_subsets_above_the_row_limit_match_per_subset(self, M, J2, seed, edits, rel):
        # at most C(29, 3) = 3,654 subsets: all checked, by slogdet
        got = self.check(edited_channel(M, 1, 1, 13, J2, seed, edits), rel)
        assert got.exhaustive

    def test_duplicated_rows_fail_in_order(self):
        ch = edited_channel(3, 2, 1, 2, 3, 5, [("copy", 0, 6, 1.0, 0.0), ("zero", 0, 3, 1.0, 0.0)])
        got = self.check(ch, 1e-10)
        assert not got.passed and len(got.failures) > self.CHUNK // 9  # more than one SVD holds

    @settings(max_examples=20, deadline=None)
    @given(
        M=st.integers(4, 8),  # four-row tails after prefixes of up to four rows
        dims=st.tuples(*(st.integers(1, n) for n in (2, 2, 4, 4))),
        seed=st.integers(0, 2**32 - 1),
        edits=EDITS,
        rel=TOLERANCES,
    )
    def test_loaded_channel_failures_in_order(self, M, dims, seed, edits, rel):
        # a saved channel with injected dependent rows, read back: failures,
        # their order and the count are the per-subset loop's
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "channel.json")
            save_channel(edited_channel(M, *dims, seed, edits), path)
            self.check(load_channel(path), rel)

    @pytest.mark.parametrize("M, J", [(4, 6), (4, 12), (5, 12)])
    def test_generic_channel_passes_on_the_screen(self, M, J):
        # well-conditioned subsets never reach the SVD: all C(2J, M) subsets,
        # with no prefix at M = 4 and one-row prefixes at M = 5
        ch = random_channel(0, M=M, N1=1, N2=1, J1=J, J2=J)
        with mock.patch.object(np.linalg, "svd", side_effect=AssertionError):
            report = verify_rank_condition(ch)
        assert report.passed and report.checked == math.comb(2 * J, M)

    def test_non_finite_rows_rejected(self):
        ch = random_channel(1)
        ch.h1[0][0, 0] = np.nan  # the arrays stay writable after construction
        with pytest.raises(InvalidInputError, match="non-finite"):
            verify_rank_condition(ch)

    def test_generated_verify_channel_checks_once(self, tmp_path):
        # generation decides the rank condition of each attempt's draw once,
        # and the report of the draw it returns is derived, not checked again
        calls = []
        hold = channel._rank_conditions_hold

        def counted(*args, **kwargs):
            calls.append(args)
            return hold(*args, **kwargs)

        with (
            mock.patch.object(channel, "_rank_conditions_hold", counted),
            mock.patch.object(channel, "verify_rank_condition", side_effect=AssertionError),
        ):
            code = cli.main(["verify-channel", "--M", "3", "--J1", "4", "--J2", "4",
                             "--out", str(tmp_path)])
        assert code == 0
        assert len(calls) == 1  # seed 0 passes on its first attempt

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("dims", [
        (4, 1, 1, 12, 12),  # 24 rows: every subset
        (3, 2, 1, 2, 3),
        (3, 1, 1, 13, 13),  # 26 rows: all C(26, 3) = 2,600 subsets
        (4, 1, 1, 13, 13),  # 26 rows: 10,000 sampled subsets of C(26, 4)
        (4, 1, 1, 1, 1),  # fewer rows than M: nothing to check
        (30, 1, 1, 13, 13),  # and so above EXHAUSTIVE_ROW_LIMIT rows
    ])
    def test_generated_report_is_the_verified_one(self, dims, seed, tmp_path):
        code = cli.main(["verify-channel", *(f"--{n}={v}" for n, v in
                                             zip(("M", "N1", "N2", "J1", "J2"), dims)),
                         "--seed", str(seed), "--out", str(tmp_path)])
        assert code == 0
        with open(tmp_path / "summary.json") as fh:
            summary = json.load(fh)
        ch = generate_compound(ChannelGenSpec(*dims, seed=seed))
        want = verify_rank_condition(ch)
        # both build their report with rank_report; the per-subset loop does not
        assert rank_report(ch) == want == per_subset_report(ch)
        assert (summary["passed"], summary["subsets_checked"], summary["exhaustive"]) == (
            want.passed, want.checked, want.exhaustive
        )
        assert summary["failures"] == []


def near_singular_stack(m, seed, combos, scales):
    """Random m x m complex matrices, some made nearly rank-deficient.

    ``combos`` lists (row, eps): in the next matrix, that row becomes a
    random combination of the others plus a perturbation of relative size
    eps. ``scales`` lists (row, exponent): that row of each matrix is then
    scaled by 10^exponent (the last exponent listed for a row).
    """
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((len(combos) + 1, m, m, 2)) @ np.array([1.0, 1j])
    for a, (row, eps) in zip(stack, combos):
        row %= m
        others = np.delete(a, row, axis=0)
        combo = rng.standard_normal(m - 1) @ others
        noise = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        size = max(np.linalg.norm(combo), 1.0)
        a[row] = combo + eps * size * noise / np.linalg.norm(noise)
    exponents = np.zeros(m)
    for row, exponent in scales:
        exponents[row % m] = exponent
    return stack * 10.0 ** exponents[:, None]


def near_dependent_rows(m, n, seed, links, scales):
    """n random complex rows of length m, some made nearly dependent.

    ``links`` lists (dst, src1, src2, eps): row dst becomes a random
    combination of rows src1 and src2 (of one row when they coincide) plus
    a perturbation of relative size eps; indices are taken mod n, and a
    link onto one of its sources is skipped. ``scales`` lists (row,
    exponent), applied as near_singular_stack applies them.
    """
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, m, 2)) @ np.array([1.0, 1j])
    for dst, src1, src2, eps in links:
        dst, src = dst % n, sorted({src1 % n, src2 % n})
        if dst in src:
            continue
        combo = (rng.standard_normal((len(src), 2)) @ np.array([1.0, 1j])) @ rows[src]
        noise = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        size = max(np.linalg.norm(combo), 1.0)
        rows[dst] = combo + eps * size * noise / np.linalg.norm(noise)
    exponents = np.zeros(n)
    for row, exponent in scales:
        exponents[row % n] = exponent
    return rows * 10.0 ** exponents[:, None]


def slogdet_screen(stack):
    """The slogdet screen, of the sampled path and of channels of few
    subsets, of each m x m matrix of ``stack``."""
    fro2 = rankcheck._squared_row_norms(stack).sum(axis=-1)
    with np.errstate(all="ignore"):
        logdet = np.linalg.slogdet(stack)[1]
    return rankcheck._screen_passes(logdet, fro2, stack.shape[-1])


def exhaustive_decisions(rows, screen=rankcheck._exhaustive_screen):
    """{subset: verdict} over every m-subset of ``rows`` (total, m), in
    check order: the prefix-shared screen's pass, or with
    screen=rankcheck.rank_chunks the rank decision."""
    got = {}
    for subsets, verdict in screen(rows[None], np.ones(1, dtype=bool)):
        got.update(zip(map(tuple, subsets(np.arange(verdict.shape[1])).tolist()), verdict[0]))
    return got


def no_state(state, owner, row):
    """The enumeration alone: prefixes carry no state."""


def enumerated(total, m, block):
    """The m-subsets of range(total) in the order _exhaustive_chunks places
    them, each block's prefixes followed by the tails of its spans at their
    positions, checking that every position is filled once and that a span
    of more than one head keeps its products within ``block`` entries."""
    d = min(m, rankcheck.SCREEN_TAIL)
    got = []
    for prefixes, _, count, batches in rankcheck._exhaustive_chunks(total, m, block, no_state, None):
        assert prefixes.dtype == np.intp and prefixes.shape[1] == m - d
        subsets = np.full((count, m), -1)
        for ks, n, at, spans in batches:
            tables = order, rests, start, shift, _ = rankcheck._tail_tables(n, d)
            heads = rankcheck._subsets(n, min(d, 2))[order]
            assert [a for a, _ in spans] == [0] + [b for _, b in spans[:-1]]
            assert start[spans[-1][1]] == start[-1] == math.comb(n, d)
            for a, b in spans:
                width = len(rests) - start[a] - shift[a]
                assert b - a == 1 or len(ks) * (b - a) * width <= block
                o, r, place = rankcheck._span_tails(tables, a, b)
                tails = np.concatenate([heads[o], rests[r]], axis=1) + total - n
                pos = at[:, None] + place
                assert (subsets[pos] == -1).all()
                subsets[pos, :m - d] = prefixes[ks][:, None]
                subsets[pos, m - d:] = tails
        assert (subsets >= 0).all()
        got.extend(map(tuple, subsets.tolist()))
    return got


class TestDeterminantScreen:
    """The screens only pass subsets the SVD rule gives full rank, and the
    chunks hold the subsets of the per-subset reference, in its order."""

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
        combos=st.lists(
            st.tuples(st.integers(0, 5), st.sampled_from([1e-12, 1e-10, 1e-8, 1e-6, 1e-4])),
            max_size=4,
        ),
        links=st.lists(
            st.tuples(*(st.integers(0, 8),) * 3, st.sampled_from([0.0, 1e-12, 1e-8, 1e-4])),
            max_size=3,
        ),
        scales=st.lists(
            st.tuples(st.integers(0, 8), st.sampled_from([-150, 150])), max_size=3
        ),
        rel=st.sampled_from([1e-12, 1e-10, 1e-6]),
    )
    def test_screen_passes_only_full_rank(self, m, seed, combos, links, scales, rel):
        with rank_threshold(rel):
            # the slogdet screen, on m x m matrices
            stack = near_singular_stack(m, seed, combos, scales)
            for a in stack[slogdet_screen(stack)]:
                assert numerical_rank(a) == m
            # the exhaustive path's prefix-shared screen, on every m-subset
            # of m + 3 rows: a link may fall in one subset's prefix (m >= 6
            # has prefixes of two rows or more, m = 9 of five), across its
            # boundary with the tail, or in its tail, and a scaled row's
            # squared norm may overflow
            rows = near_dependent_rows(m, m + 3, seed, links, scales)
            for subset, passed in exhaustive_decisions(rows).items():
                if passed:
                    assert numerical_rank(rows[list(subset)]) == m

    def test_prefix_screen_refers_dependent_prefixes_and_tails(self):
        # at m = 7 a prefix holds three rows. Row 1 is a multiple of row 0,
        # so a subset with both has a rank-deficient prefix; row 9 is a
        # multiple of row 2, and a subset with both holds 2 in its prefix and
        # 9 in its tail. The screen passes every other subset.
        rows = near_dependent_rows(7, 10, 3, [(1, 0, 0, 0.0), (9, 2, 2, 0.0)], [])
        got = exhaustive_decisions(rows)
        assert list(got) == list(itertools.combinations(range(10), 7))
        assert [s for s, passed in got.items() if not passed] == [
            s for s in got if {0, 1} <= set(s) or {2, 9} <= set(s)
        ]

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", range(6))
    def test_laplace_products_equal_determinants(self, d, seed):
        # each tail's entry of the pair-minor product is det(R N) to within
        # 32 ulps absolute, on unit rows with zero, repeated and
        # near-parallel rows; np.linalg.det is the reference
        rng = np.random.default_rng(seed)
        n = d + 5
        w = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        w[1] = 0.0
        w[3] = w[2] * np.exp(0.7j)
        w[5] = w[4] + 1e-9 * w[0]
        w /= np.maximum(np.linalg.norm(w, axis=1), 1e-300)[:, None]
        tables = order, rests, _, _, _ = rankcheck._tail_tables(n, d)
        heads = rankcheck._subsets(n, min(d, 2))[order]
        head_minors, rest_minors = rankcheck._tail_factors(w, order, d)
        o, r, place = rankcheck._span_tails(tables, 0, len(heads))
        tails = np.concatenate([heads[o], rests[r]], axis=1)
        assert sorted(place.tolist()) == list(range(math.comb(n, d)))
        assert [tuple(t) for t in tails[np.argsort(place)].tolist()] == list(
            itertools.combinations(range(n), d)
        )
        got = (head_minors @ rest_minors)[o, r]
        assert np.abs(got - np.linalg.det(w[tails])).max() <= 32 * np.finfo(float).eps

    def test_screen_decides_well_conditioned_and_refers_dependent(self):
        stack = near_singular_stack(4, 3, [(1, 1e-12), (2, 1e-8)], [])
        assert slogdet_screen(stack).tolist() == [False, False, True]
        # an overflowing norm makes the bound infinite: the SVD decides
        huge = stack * 1e160
        assert np.isinf(rankcheck._squared_row_norms(huge)).all()
        assert not slogdet_screen(huge).any()
        rows = huge.reshape(-1, 4)  # the three matrices are subsets of these rows
        assert not any(exhaustive_decisions(rows).values())
        full = exhaustive_decisions(rows, rankcheck.rank_chunks)
        assert [full[s] for s in [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)]] == [False, True, True]

    @pytest.mark.parametrize("total, m", [
        (1, 1), (5, 5), (7, 3), (9, 4), (24, 2),
        (24, 4),  # four-row tails and no prefix: the rank-census
        (10, 6), (12, 8),  # prefixes of two and four rows
    ])
    @pytest.mark.parametrize("size", [1, 7, 512])
    def test_exhaustive_chunks_follow_combinations(self, total, m, size):
        want = list(itertools.combinations(range(total), m))
        # blocks of one prefix with spans of one head, and blocks and spans
        # of as many as ``size`` entries allow
        for block in (1, size * total * m):
            assert enumerated(total, m, block) == want
        # the lexicographic table of _subsets, and the chunks the slogdet
        # screen takes when it checks every subset
        table = rankcheck._subsets(total, m)
        assert table.dtype == np.intp and not table.flags.writeable
        assert [tuple(s) for s in table.reshape(-1, m).tolist()] == want
        chunks = list(rankcheck._listed_chunks(total, m, size, True))
        assert all(c.dtype == np.intp and c.shape[1:] == (m,) for c in chunks)
        assert all(len(c) == size for c in chunks[:-1])
        assert [tuple(s) for c in chunks for s in c.tolist()] == want

    def test_exhaustive_chunks_count_and_order_at_c_24_12(self):
        # all C(24, 12) subsets: the blocks count them, each block's tails
        # fill its positions once, and the rows read back for the positions
        # of a block are ascending, with lexicographic rank C(n, k) - 1 -
        # sum_i C(n - 1 - c_i, k - i) equal to their place in the enumeration
        n, k = 24, 12
        table = np.array([[math.comb(x, j) for j in range(k + 1)] for x in range(n)])
        count = 0
        for _, _, size, batches in rankcheck._exhaustive_chunks(n, k, 2**14, no_state, None):
            seen = np.zeros(size, dtype=int)
            for _, m, at, spans in batches:
                tables = rankcheck._tail_tables(m, 4)
                for a, b in spans:
                    np.add.at(seen, at[:, None] + rankcheck._span_tails(tables, a, b)[2], 1)
            assert (seen == 1).all()
            c = rankcheck._subset_rows(n, k, count, np.arange(size))
            assert (np.diff(c, axis=1) > 0).all()
            rank = math.comb(n, k) - 1 - table[n - 1 - c, np.arange(k, 0, -1)].sum(axis=1)
            assert np.array_equal(rank, np.arange(count, count + size))
            count += size
        assert count == math.comb(n, k)

    @pytest.mark.parametrize("total, m", [(26, 4), (142, 2), (26, 12)])
    @pytest.mark.parametrize("size", [7, 512])
    def test_sampled_chunks_follow_the_choice_stream(self, total, m, size):
        assert not rankcheck.subset_count(total, m)[1]  # the census samples these
        rng = np.random.default_rng(SAMPLE_SEED)
        want = [
            tuple(sorted(rng.choice(total, size=m, replace=False)))
            for _ in range(SAMPLED_SUBSET_COUNT)
        ]
        chunks = list(rankcheck._listed_chunks(total, m, size, False))
        assert all(c.dtype == np.intp and c.shape[1:] == (m,) for c in chunks)
        assert all(len(c) == size for c in chunks[:-1])
        assert [tuple(s) for c in chunks for s in c.tolist()] == want


def per_spec_generation(specs):
    """The per-attempt reference spec by spec, stopping at the first error:
    the channels generated and that error's (type, message)."""
    chs = []
    for spec in specs:
        try:
            chs.append(generate_per_attempt(spec))
        except (GenerationError, InvalidInputError) as e:
            return chs, (type(e), str(e))
    return chs, None


def same_channels(a, b):
    """Equal channel lists, state by state in bits, each state C-ordered."""
    return len(a) == len(b) and all(
        all(s.flags.c_contiguous for s in x.h1 + x.h2)
        and x.stacked_rows().tobytes() == y.stacked_rows().tobytes()
        for x, y in zip(a, b)
    )


def batch_generation(specs):
    """generate_batch of the seeds of specs that share their dimensions, as
    (channel sets, (error type, message) or None)."""
    s = specs[0]
    dims = s.M, s.N1, s.N2, s.J1, s.J2
    h, error = generate_batch(dims, [x.seed for x in specs])
    return stacked_sets(h), (None if error is None else (type(error), str(error)))


class TestBatchedGeneration:
    """generate_batch against the per-attempt reference, spec by spec."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.tuples(*(st.integers(1, n) for n in (6, 3, 3, 4, 4))),
        attempt=st.integers(0, 3),
    )
    def test_single_draw_equals_per_state_draws(self, seed, dims, attempt):
        # a rank check that fails the first ``attempt`` draws makes generation
        # return the draw of attempt ``attempt``
        spec = ChannelGenSpec(*dims, seed=seed)
        verdicts = iter([False] * attempt + [True])

        def hold(rows):
            return np.full(len(rows), next(verdicts))

        with mock.patch.object(channel, "_rank_conditions_hold", hold):
            ch = generate_compound(spec)
        want = per_state_draw(spec, attempt)
        got = ch.h1 + ch.h2
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.flags.c_contiguous and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("chunk", [1, 5, 512])
    def test_resamples_land_on_the_same_attempts(self, chunk):
        # at this threshold seeds 3, 4 and 8 pass on attempt 1, seed 7 on
        # attempt 2, and seed 9 fails all three
        specs = [ChannelGenSpec(2, 1, 1, 2, 2, seed=s) for s in range(1, 25)]
        with rank_threshold(0.15), mock.patch.object(channel, "MAX_RESAMPLES", 3):
            with mock.patch.object(rankcheck, "RANK_CHUNK", chunk):
                chs, error = batch_generation(specs)
            want, want_error = per_spec_generation(specs)
        assert same_channels(chs, want)
        assert error == want_error
        assert len(chs) < len(specs)  # a spec exhausted its attempts
        resampled = [
            s for s, ch in zip(specs, chs)
            if ch.stacked_rows().tobytes() != np.vstack(per_state_draw(s, 0)).tobytes()
        ]
        assert resampled  # some spec before it passed on a later attempt

    @pytest.mark.parametrize("dims", [
        (3, 2, 1, 2, 3),
        (4, 1, 1, 2, 2),  # one subset
        (4, 1, 1, 1, 1),  # fewer rows than M: nothing to check
        (2, 1, 1, 13, 13),  # 26 rows: sampled subsets
    ])
    def test_generic_specs_match(self, dims):
        specs = [ChannelGenSpec(*dims, seed=s) for s in range(3)]
        chs, error = batch_generation(specs)
        assert error is None
        assert same_channels(chs, per_spec_generation(specs)[0])

    @settings(max_examples=30, deadline=None)
    @given(
        M=st.integers(1, 4),
        dims=st.tuples(*(st.integers(1, n) for n in (3, 3, 3, 3))),
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
        edits=EDITS,
        rel=TOLERANCES,
    )
    def test_chunk_wide_check_matches_verify(self, M, dims, seeds, edits, rel):
        N1, N2, J1, J2 = dims
        chs = [edited_channel(M, N1, N2, J1, J2, seed, edits) for seed in seeds]
        rows = np.array([ch.stacked_rows() for ch in chs])
        with rank_threshold(rel):
            want = [verify_rank_condition(ch).passed for ch in chs]
            for least in (0, rankcheck.PREFIX_SCREEN_MIN):
                with mock.patch.multiple(rankcheck, RANK_CHUNK=64, PREFIX_SCREEN_MIN=least):
                    assert channel._rank_conditions_hold(rows).tolist() == want

    @pytest.mark.parametrize("least", [0, rankcheck.PREFIX_SCREEN_MIN])
    @pytest.mark.parametrize("chunk", [64, 4096])
    def test_chunk_wide_check_holds_failing_and_passing_draws(self, chunk, least):
        # one call over five draws of 10 rows at M = 5 (prefixes of two
        # rows), of which the first, third and last fail at different
        # subsets; the rest pass
        edits = [
            [("copy", 0, 1, 2.0, 0.0)], [], [("copy", 4, 9, 1j, 0.0)], [],
            [("zero", 0, 7, 1.0, 0.0)],
        ]
        chs = [edited_channel(5, 1, 1, 5, 5, seed, e) for seed, e in enumerate(edits)]
        rows = np.array([ch.stacked_rows() for ch in chs])
        with mock.patch.multiple(rankcheck, RANK_CHUNK=chunk, PREFIX_SCREEN_MIN=least):
            held = channel._rank_conditions_hold(rows)
        assert held.tolist() == [False, True, False, True, False]
        assert held.tolist() == [verify_rank_condition(ch).passed for ch in chs]

    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.tuples(*(st.integers(1, n) for n in (5, 3, 3, 3, 3))),
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
        budget=st.integers(1, 4),
        rel=st.sampled_from([1e-10, 0.05, 0.2, 0.5]),
    )
    def test_stacked_draws_equal_per_spec_draws(self, dims, seeds, budget, rel):
        # large thresholds fail many draws, so later attempts are drawn for
        # a changing subset of the specs
        specs = [ChannelGenSpec(*dims, seed=s) for s in seeds]
        with rank_threshold(rel), mock.patch.object(channel, "MAX_RESAMPLES", budget):
            chs, error = batch_generation(specs)
            want, want_error = per_spec_generation(specs)
        assert same_channels(chs, want)
        assert error == want_error

    @pytest.mark.parametrize("field, value", [("M", 0), ("N1", True), ("J2", -1)])
    def test_bad_dimension_is_the_per_spec_error(self, field, value):
        # the message CompoundChannelSet gives; a negative dimension used to
        # reach numpy's draw and raise its ValueError
        dims = dict(M=3, N1=1, N2=1, J1=2, J2=2)
        dims[field] = value
        specs = [ChannelGenSpec(**dims, seed=s) for s in range(3)]
        for generate in (batch_generation, lambda specs: generate_per_attempt(specs[0])):
            with pytest.raises(InvalidInputError) as exc:
                generate(specs)
            assert str(exc.value) == f"{field} must be a positive integer, got {value!r}"
        with pytest.raises(InvalidInputError, match=f"{field} must be a positive integer"):
            CompoundChannelSet(**dims, h1=(), h2=())

    def test_empty_chunk_draws_nothing(self):
        h, error = generate_batch((3, 1, 2, 2, 4), [])
        assert error is None
        assert [x.shape for x in h] == [(0, 2, 1, 3), (0, 4, 2, 3)]


# seeds at the edges of one, two, three and four uint32 words
WORD_EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96, 2**128 - 1]


def straddling_seeds(n):
    """n distinct seeds in runs across 2^32, 2^64 and 2^128."""
    run = -(-n // 3)
    return [edge - run // 2 + i for edge in (2**32, 2**64, 2**128) for i in range(run)][:n]


class TestReplayedSeeding:
    """The one-pass seeding of an attempt against numpy's own, bit for bit."""

    @pytest.mark.parametrize("attempt", [0, 1, 7, 2**32 - 1])
    def test_states_equal_seed_sequence(self, attempt):
        want = [attempt_seed(s, attempt).generate_state(4, np.uint64) for s in WORD_EDGES]
        got = seeding.seed_states(WORD_EDGES, attempt)
        assert got.dtype == np.uint64 and got.tolist() == np.array(want).tolist()

    @settings(max_examples=100, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 2**128 - 1), min_size=1, max_size=20),
        attempt=st.integers(0, 2**32 - 1),
    )
    def test_any_states_equal_seed_sequence(self, seeds, attempt):
        want = [attempt_seed(s, attempt).generate_state(4, np.uint64).tolist() for s in seeds]
        assert seeding.seed_states(seeds, attempt).tolist() == want

    @pytest.mark.parametrize("attempt", [0, 5, 2**32 - 1])
    def test_replayed_rows_equal_own_generators(self, attempt):
        # the seeds of 2^128 and above keep the rows they held
        seeds = WORD_EDGES + [2**128, 2**200]
        z = np.full((len(seeds), 19), np.pi)
        seeding.replay_draws(z, seeds, attempt)
        for row, s in zip(z, seeds):
            if s < 2**128:
                want = np.random.default_rng(attempt_seed(s, attempt)).standard_normal(19)
                assert row.tobytes() == want.tobytes()
            else:
                assert (row == np.pi).all()

    @pytest.mark.parametrize("n", [channel.REPLAY_MIN - 1, channel.REPLAY_MIN, 150])
    def test_generation_equals_per_attempt_reference(self, n, monkeypatch):
        # the rank check passes the draws of seed s from attempt s % 9 on,
        # so seeds whose s % 9 is 8 exhaust their 8 attempts, and every
        # attempt of 150 seeds keeps at least REPLAY_MIN of them pending
        specs = [ChannelGenSpec(4, 1, 1, 2, 2, seed=s) for s in straddling_seeds(n)]
        attempts = {
            np.vstack(per_state_draw(spec, a)).tobytes(): (spec.seed, a)
            for spec in specs for a in range(channel.MAX_RESAMPLES)
        }

        def passes(rows):
            seed, a = attempts[rows.tobytes()]
            return a >= seed % 9

        drawn, own = [], []
        monkeypatch.setattr(channel, "_rank_conditions_hold", lambda rows: np.array([
            drawn.append(attempts[r.tobytes()]) or passes(r) for r in rows
        ]))
        monkeypatch.setattr(reference, "verify_rank_condition", lambda ch: mock.Mock(
            passed=passes(ch.stacked_rows())
        ))
        monkeypatch.setattr(channel, "attempt_seed", lambda s, a, real=attempt_seed: (
            own.append((s, a)) or real(s, a)
        ))
        chs, error = batch_generation(specs)
        want, want_error = per_spec_generation(specs)
        assert same_channels(chs, want)
        assert error == want_error
        assert any(s % 9 == 8 for s in straddling_seeds(n)) == (error is not None)
        # every attempt of every seed was drawn, and only the attempts of
        # fewer than REPLAY_MIN pending seeds and the seeds of 2^128 and
        # above took their own generators
        assert sorted(drawn) == sorted((s.seed, a) for s in specs for a in range(s.seed % 9 + 1) if a < 8)
        pending = collections.Counter(a for _, a in drawn)
        assert sorted(own) == sorted(
            (s, a) for s, a in drawn if pending[a] < channel.REPLAY_MIN or s >= 2**128
        )
        assert n < 150 or all(pending[a] >= channel.REPLAY_MIN for a in range(8))


class TestPersistence:
    def test_roundtrip_bit_for_bit(self, tmp_path):
        ch = random_channel(23)
        path = tmp_path / "ch.json"
        save_channel(ch, path)
        back = load_channel(path)
        assert (back.M, back.N1, back.N2, back.J1, back.J2) == (3, 2, 1, 2, 3)
        for k in (1, 2):
            for j in range(1, (ch.J1 if k == 1 else ch.J2) + 1):
                assert np.array_equal(back.state(k, j), ch.state(k, j))

    def test_schema_keys(self):
        ch = random_channel(4)
        d = channel_to_dict(ch)
        assert set(d) == {"M", "N1", "N2", "J1", "J2", "matrices"}
        assert set(d["matrices"]) == {
            "H_1_1", "H_1_2", "H_2_1", "H_2_2", "H_2_3",
        }
        flat = d["matrices"]["H_1_1"]
        assert len(flat) == ch.N1 * ch.M
        assert flat[0] == [ch.h1[0][0, 0].real, ch.h1[0][0, 0].imag]

    def test_golden_fixture_digest_and_content(self):
        with open(GOLDEN_PATH, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == GOLDEN_SHA256
        ch = load_channel(GOLDEN_PATH)
        regen = generate_compound(ChannelGenSpec(3, 2, 1, 2, 3, seed=1))
        for k in (1, 2):
            for j in range(1, (ch.J1 if k == 1 else ch.J2) + 1):
                assert np.array_equal(ch.state(k, j), regen.state(k, j))

    def test_missing_matrix_named(self, tmp_path):
        ch = random_channel(6)
        d = channel_to_dict(ch)
        del d["matrices"]["H_2_2"]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(d))
        with pytest.raises(ChannelFormatError, match="H_2_2"):
            load_channel(p)

    def test_wrong_entry_count_named(self, tmp_path):
        ch = random_channel(6)
        d = channel_to_dict(ch)
        d["matrices"]["H_1_2"] = d["matrices"]["H_1_2"][:-1]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(d))
        with pytest.raises(ChannelFormatError, match="H_1_2"):
            load_channel(p)

    def test_missing_dimension_field_named(self, tmp_path):
        ch = random_channel(6)
        d = channel_to_dict(ch)
        del d["N2"]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(d))
        with pytest.raises(ChannelFormatError, match="N2"):
            load_channel(p)

    def test_invalid_json_reports_position(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"M": 3,,}')
        with pytest.raises(ChannelFormatError, match="line"):
            load_channel(p)

    def test_malformed_pair_named(self, tmp_path):
        ch = random_channel(6)
        d = channel_to_dict(ch)
        d["matrices"]["H_2_1"][2] = [1.0]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(d))
        with pytest.raises(ChannelFormatError, match="H_2_1"):
            load_channel(p)

    def test_bool_dimension_named(self, tmp_path):
        d = channel_to_dict(random_channel(6))
        d["M"] = True
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(d))
        with pytest.raises(ChannelFormatError, match="'M'"):
            load_channel(p)

    @pytest.mark.parametrize("entry", [[True, False], [0.5, 10**400]])
    def test_bad_number_entries_rejected(self, tmp_path, entry):
        d = channel_to_dict(random_channel(6))
        d["matrices"]["H_1_2"][1] = entry
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(d))
        with pytest.raises(ChannelFormatError, match="H_1_2: entry 1"):
            load_channel(p)
