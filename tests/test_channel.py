"""Channel generation, rank-condition verification, and persistence."""

import hashlib
import itertools
import json
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from compound_bcc import channel, cli
from compound_bcc.channel import (
    EXHAUSTIVE_ROW_LIMIT,
    SAMPLE_SEED,
    SAMPLED_SUBSET_COUNT,
    ChannelGenSpec,
    RankConditionReport,
    CompoundChannelSet,
    attempt_seed,
    channel_to_dict,
    generate_batch,
    generate_compound,
    load_channel,
    save_channel,
    stacked_sets,
    swap_users,
    verify_rank_condition,
)
from compound_bcc.errors import (
    ChannelFormatError,
    GenerationError,
    InvalidInputError,
)
from compound_bcc.linalg import RankTolerance, numerical_rank

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_PATH = os.path.join(DATA_DIR, "channel_seed1.json")
GOLDEN_SHA256 = "c1974969f8e6f237e96d5dec89567140585a84083602a4931b96cd2decd137e2"


def random_channel(seed, M=3, N1=2, N2=1, J1=2, J2=3):
    return generate_compound(ChannelGenSpec(M, N1, N2, J1, J2, seed=seed))


def per_subset_report(ch, tol=RankTolerance()):
    """Reference rank check: one numerical_rank call per row subset."""
    rows = ch.stacked_rows()
    total = rows.shape[0]
    if total < ch.M:
        return RankConditionReport(passed=True, checked=0, exhaustive=True)
    exhaustive = total <= EXHAUSTIVE_ROW_LIMIT
    if exhaustive:
        subsets = list(itertools.combinations(range(total), ch.M))
    else:
        rng = np.random.default_rng(SAMPLE_SEED)
        subsets = [
            tuple(sorted(rng.choice(total, size=ch.M, replace=False)))
            for _ in range(SAMPLED_SUBSET_COUNT)
        ]
    failures = tuple(s for s in subsets if numerical_rank(rows[list(s)], tol) != ch.M)
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
TOLERANCES = st.sampled_from([1e-15, 1e-10, 1 - 1e-12])


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
        spec = ChannelGenSpec(2, 1, 1, 2, 2, seed=0, max_resamples=3)
        with pytest.raises(GenerationError) as exc:
            generate_compound(spec, RankTolerance(1 - 1e-12))
        assert "3" in str(exc.value)

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
        ch = random_channel(7, M=3, N1=1, N2=1, J1=13, J2=13)  # 26 rows > 24
        r1 = verify_rank_condition(ch)
        r2 = verify_rank_condition(ch)
        assert not r1.exhaustive
        assert r1.checked == 10_000
        assert r1.passed and r1.failures == r2.failures


class TestBatchedRankCheck:
    """The chunked, screened check reports exactly what the per-subset loop does."""

    CHUNK = 7  # small chunk size so that runs cross chunk boundaries

    def check(self, ch, rel):
        tol = RankTolerance(rel)
        with mock.patch.object(channel, "RANK_CHUNK", self.CHUNK):
            got = verify_rank_condition(ch, tol)
        assert got == per_subset_report(ch, tol)
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
        M=st.integers(1, 3),
        J2=st.integers(12, 16),  # 13 + J2 rows, above EXHAUSTIVE_ROW_LIMIT
        seed=st.integers(0, 2**32 - 1),
        edits=EDITS,
        rel=TOLERANCES,
    )
    def test_sampled_matches_per_subset(self, M, J2, seed, edits, rel):
        got = self.check(edited_channel(M, 1, 1, 13, J2, seed, edits), rel)
        assert not got.exhaustive

    def test_duplicated_rows_fail_in_order(self):
        ch = edited_channel(3, 2, 1, 2, 3, 5, [("copy", 0, 6, 1.0, 0.0), ("zero", 0, 3, 1.0, 0.0)])
        got = self.check(ch, 1e-10)
        assert not got.passed and len(got.failures) > self.CHUNK

    def test_generic_channel_passes_on_the_screen(self):
        # well-conditioned subsets never reach the SVD
        ch = random_channel(0, M=4, N1=1, N2=1, J1=6, J2=6)
        with mock.patch.object(np.linalg, "svd", side_effect=AssertionError):
            assert verify_rank_condition(ch).passed

    def test_non_finite_rows_rejected(self):
        ch = random_channel(1)
        ch.h1[0][0, 0] = np.nan  # the arrays stay writable after construction
        with pytest.raises(InvalidInputError, match="non-finite"):
            verify_rank_condition(ch)

    def test_generated_verify_channel_checks_once(self, tmp_path):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return verify_rank_condition(*args, **kwargs)

        with mock.patch.object(channel, "verify_rank_condition", counted), \
                mock.patch.object(cli, "verify_rank_condition", counted):
            code = cli.main(["verify-channel", "--M", "3", "--J1", "4", "--J2", "4",
                             "--out", str(tmp_path)])
        assert code == 0
        assert len(calls) == 1


def per_state_draw(spec, attempt):
    """The draw of one attempt as two standard_normal calls per state."""
    rng = np.random.default_rng(attempt_seed(spec.seed, attempt))

    def draw(n):
        re = rng.standard_normal((n, spec.M))
        im = rng.standard_normal((n, spec.M))
        return (re + 1j * im) / np.sqrt(2.0)

    h1 = tuple(draw(spec.N1) for _ in range(spec.J1))
    h2 = tuple(draw(spec.N2) for _ in range(spec.J2))
    return h1 + h2


def per_spec_generation(specs, tol):
    """generate_compound spec by spec, stopping at the first error: the
    channels generated and that error's (type, message)."""
    chs = []
    for spec in specs:
        try:
            chs.append(generate_compound(spec, tol))
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


def batch_generation(specs, tol=RankTolerance()):
    """generate_batch as (channel sets, (error type, message) or None)."""
    h, error = generate_batch(specs, tol)
    return stacked_sets(h), (None if error is None else (type(error), str(error)))


class TestBatchedGeneration:
    """generate_batch against generate_compound, spec by spec."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.tuples(*(st.integers(1, n) for n in (6, 3, 3, 4, 4))),
        attempt=st.integers(0, 3),
    )
    def test_single_draw_equals_per_state_draws(self, seed, dims, attempt):
        spec = ChannelGenSpec(*dims, seed=seed)
        ch = channel._draw(spec, attempt)
        want = per_state_draw(spec, attempt)
        got = ch.h1 + ch.h2
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.flags.c_contiguous and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("chunk", [1, 5, 512])
    def test_resamples_land_on_the_same_attempts(self, chunk):
        # at this tolerance seeds 3, 4 and 8 pass on attempt 1, seed 7 on
        # attempt 2, and seed 9 fails all three
        tol = RankTolerance(0.15)
        specs = [ChannelGenSpec(2, 1, 1, 2, 2, seed=s, max_resamples=3) for s in range(1, 25)]
        with mock.patch.object(channel, "RANK_CHUNK", chunk):
            chs, error = batch_generation(specs, tol)
        want, want_error = per_spec_generation(specs, tol)
        assert same_channels(chs, want)
        assert error == want_error
        assert len(chs) < len(specs)  # a spec exhausted its attempts
        resampled = [
            s for s, ch in zip(specs, chs)
            if ch.stacked_rows().tobytes() != channel._draw(s, 0).stacked_rows().tobytes()
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
        assert same_channels(chs, per_spec_generation(specs, RankTolerance())[0])

    def test_bad_resample_budget_is_the_per_spec_error(self):
        # seed 0 has no attempt at all
        specs = [ChannelGenSpec(3, 1, 1, 2, 2, seed=s, max_resamples=min(s, 1)) for s in range(3)]
        assert batch_generation(specs)[0] == []
        specs = specs[1:] + specs[:1]
        chs, error = batch_generation(specs)
        want, want_error = per_spec_generation(specs, RankTolerance())
        assert same_channels(chs, want) and len(chs) == 2
        assert error == want_error

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
        tol = RankTolerance(rel)
        chs = [edited_channel(M, N1, N2, J1, J2, seed, edits) for seed in seeds]
        rows = np.array([ch.stacked_rows() for ch in chs])
        with mock.patch.object(channel, "RANK_CHUNK", 7):
            held = channel._rank_conditions_hold(rows, tol)
        assert held.tolist() == [verify_rank_condition(ch, tol).passed for ch in chs]

    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.tuples(*(st.integers(1, n) for n in (5, 3, 3, 3, 3))),
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
        budgets=st.lists(st.integers(0, 4), min_size=6, max_size=6),
        rel=st.sampled_from([1e-10, 0.05, 0.2, 0.5]),
    )
    def test_stacked_draws_equal_per_spec_draws(self, dims, seeds, budgets, rel):
        # large tolerances fail many draws, so later attempts are drawn for
        # a changing subset of the specs; a budget of 0 fails at once
        specs = [ChannelGenSpec(*dims, seed=s, max_resamples=b) for s, b in zip(seeds, budgets)]
        tol = RankTolerance(rel)
        chs, error = batch_generation(specs, tol)
        want, want_error = per_spec_generation(specs, tol)
        assert same_channels(chs, want)
        assert error == want_error

    @pytest.mark.parametrize("field, value", [("M", 0), ("N1", True), ("J2", -1)])
    def test_bad_dimension_is_the_per_spec_error(self, field, value):
        # the message CompoundChannelSet gives; a negative dimension used to
        # reach numpy's draw and raise its ValueError
        dims = dict(M=3, N1=1, N2=1, J1=2, J2=2)
        dims[field] = value
        specs = [ChannelGenSpec(**dims, seed=s) for s in range(3)]
        for generate in (generate_batch, lambda specs: generate_compound(specs[0])):
            with pytest.raises(InvalidInputError) as exc:
                generate(specs)
            assert str(exc.value) == f"{field} must be a positive integer, got {value!r}"
        with pytest.raises(InvalidInputError, match=f"{field} must be a positive integer"):
            CompoundChannelSet(**dims, h1=(), h2=())

    def test_specs_must_share_dimensions(self):
        specs = [ChannelGenSpec(3, 1, 1, 2, 2, seed=0), ChannelGenSpec(4, 1, 1, 2, 2, seed=1)]
        with pytest.raises(InvalidInputError, match=r"share their dimensions, got \[\(3, 1, 1, 2, 2\), \(4, 1, 1, 2, 2\)\]"):
            generate_batch(specs)
        with pytest.raises(InvalidInputError, match=r"got \[\]"):
            generate_batch([])


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
