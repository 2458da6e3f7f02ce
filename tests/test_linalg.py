"""Kernel tests: singular values, rank, null spaces and Frobenius norms.

Expected values are frozen from independent constructions (explicit
unitaries, closed-form identities), not from the code under test.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import compound_bcc
from compound_bcc.errors import InvalidInputError
from compound_bcc.linalg import (
    RANK_RTOL,
    _normalize_phases,
    null_space_basis,
    null_spaces,
    numerical_rank,
    rank_from_singular_values,
    singular_values,
)
from reference import rank_threshold


def unitary_2x2(theta, phase):
    c, s = np.cos(theta), np.sin(theta)
    u = np.array([[c, -s], [s, c]], dtype=complex)
    return u * np.exp(1j * phase)


class TestSingularValues:
    def test_identity(self):
        assert np.allclose(singular_values(np.eye(3)), [1.0, 1.0, 1.0])

    def test_zero(self):
        assert np.allclose(singular_values(np.zeros((2, 5))), 0.0)

    def test_rotated_diag(self):
        # u diag(3,1) w^H has singular values exactly {3, 1}
        u = unitary_2x2(0.3, 0.7)
        w = unitary_2x2(-1.1, 0.2)
        m = u @ np.diag([3.0, 1.0]) @ w.conj().T
        sv = singular_values(m)
        assert sv.shape == (2,)
        assert abs(sv[0] - 3.0) < 1e-12
        assert abs(sv[1] - 1.0) < 1e-12

    def test_descending_order(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
            sv = singular_values(m)
            assert np.all(np.diff(sv) <= 0)

    def test_nonfinite_rejected(self):
        m = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(InvalidInputError):
            singular_values(m)

    def test_non_2d_rejected(self):
        with pytest.raises(InvalidInputError):
            singular_values(np.zeros(3))


class TestNumericalRank:
    def test_zero_matrix_rank_zero(self):
        assert numerical_rank(np.zeros((3, 3))) == 0

    def test_full_rank_random(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert numerical_rank(m) == 4

    def test_constructed_rank_deficiency(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        b = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
        assert numerical_rank(a @ b) == 2

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 2)) @ rng.standard_normal((2, 4))
        for scale in (1e-8, 1.0, 1e8):
            assert numerical_rank(scale * a) == 2

    def test_stacked_ranks_match_per_matrix(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 1)) @ rng.standard_normal((1, 3))
        stack = np.array([np.zeros((3, 3)), a, 1e-300 * a, np.eye(3), np.diag([1, 1e-11, 0])])
        s = np.linalg.svd(stack, compute_uv=False)
        for rel in (1e-15, 1e-10, 1 - 1e-12):
            with rank_threshold(rel):
                want = [numerical_rank(m) for m in stack]
                assert rank_from_singular_values(s).tolist() == want
        assert rank_from_singular_values(s).tolist() == [0, 1, 1, 3, 1]
        assert rank_from_singular_values(np.zeros((2, 0))).tolist() == [0, 0]


class TestNullSpaceBasis:
    def test_rank_plus_nullity(self):
        rng = np.random.default_rng(4)
        for rows, cols in [(2, 4), (4, 2), (3, 3), (1, 6)]:
            m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            b = null_space_basis(m)
            assert numerical_rank(m) + b.shape[1] == cols

    def test_residual_and_orthonormality_sweep(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(rows + 1, 9))
            m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            b = null_space_basis(m)
            assert b.shape == (cols, cols - rows)
            sigma_max = singular_values(m)[0]
            bound = 10 * RANK_RTOL * sigma_max * np.sqrt(cols)
            assert np.linalg.norm(m @ b) <= bound
            gram = b.conj().T @ b
            assert np.linalg.norm(gram - np.eye(b.shape[1])) <= 1e-10

    def test_full_column_rank_gives_empty_basis(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        b = null_space_basis(m)
        assert b.shape == (3, 0)

    def test_no_rows_gives_identity(self):
        b = null_space_basis(np.zeros((0, 4)))
        assert np.array_equal(b, np.eye(4))

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
        b1 = null_space_basis(m.copy())
        b2 = null_space_basis(m.copy())
        assert np.array_equal(b1, b2)

    def test_phase_normalization(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
        b = null_space_basis(m)
        for j in range(b.shape[1]):
            col = b[:, j]
            anchor = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert anchor.real > 0
            assert abs(anchor.imag) < 1e-14


class TestNullSpaceRescaling:
    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.integers(1, 5),
        cols=st.integers(1, 7),
        rank=st.integers(0, 5),
        scale=st.floats(1e-8, 1e8),
        phase=st.floats(0.0, 2 * np.pi),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_invariants_hold_under_rescaling(self, rows, cols, rank, scale, phase, seed):
        # a product of random factors has exactly rank min(rank, rows, cols);
        # rescaling by any nonzero complex factor keeps the null space
        rng = np.random.default_rng(seed)
        r = min(rank, rows, cols)
        m = (rng.standard_normal((rows, r)) + 1j * rng.standard_normal((rows, r))) @ (
            rng.standard_normal((r, cols)) + 1j * rng.standard_normal((r, cols))
        )
        base = null_space_basis(m)
        b = null_space_basis(scale * np.exp(1j * phase) * m)
        assert b.shape == base.shape == (cols, cols - r)
        assert np.linalg.norm(b.conj().T @ b - np.eye(cols - r)) <= 1e-10
        assert np.linalg.norm(m @ b) <= 1e-9 * max(np.linalg.norm(m), 1.0)
        # the same subspace: equal orthogonal projectors
        assert np.linalg.norm(b @ b.conj().T - base @ base.conj().T) <= 1e-9
        assert numerical_rank(scale * m) == numerical_rank(m) == r


def per_column_phases(b):
    """The phase normalization column by column: each column times
    |anchor| / anchor, with the modulus of the complex scalar anchor."""
    b = b.copy()
    for j in range(b.shape[1]):
        col = b[:, j]
        idx = np.flatnonzero(np.abs(col) > 1e-12)
        if idx.size == 0:
            continue
        anchor = col[idx[0]]
        b[:, j] = col * (abs(anchor) / anchor)
    return b


class TestStackedNullSpaces:
    def test_unallocatable_svd_is_a_typed_error(self, monkeypatch):
        # as numpy fails to allocate a huge SVD; the message counts the
        # bytes of the right factors, one M x M block per matrix
        def svd(a, full_matrices=True):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(np.linalg, "svd", svd)
        for call, a, count in ((null_space_basis, np.ones((2, 3)), 1),
                               (null_spaces, np.ones((5, 1, 3)), 5)):
            with pytest.raises(InvalidInputError) as exc:
                call(a)
            assert str(exc.value) == (
                f"null space of M=3 columns: cannot allocate {144 * count} bytes "
                f"of SVD right factors ({count} x 3 x 3)"
            )

    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.integers(1, 8),
        cols=st.integers(1, 9),
        batch=st.integers(1, 4),
        scale=st.floats(1e-6, 1e6),
        lead=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_phases_match_the_column_loop(self, rows, cols, batch, scale, lead, seed):
        rng = np.random.default_rng(seed)
        shape = (batch, rows, cols)
        m = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        vh = np.linalg.svd(m)[2]
        b = vh.conj().swapaxes(-1, -2)  # unit columns, not contiguous
        b[:, :lead] = 0.0  # anchors further down; a zero column when lead >= cols
        got = _normalize_phases(b)
        assert got.flags.c_contiguous
        for t in range(batch):
            want = per_column_phases(b[t])
            assert got[t].tobytes() == want.tobytes()
            assert _normalize_phases(b[t]).tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 6),
        cols=st.integers(1, 7),
        batch=st.integers(1, 4),
        deficient=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_null_spaces_match_per_matrix_bases(self, rows, cols, batch, deficient, seed):
        rng = np.random.default_rng(seed)
        shape = (batch, rows, cols)
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if deficient and rows > 1:
            m[0, -1] = m[0, 0]  # the first matrix loses its generic rank
        bases, at_rank = null_spaces(m)
        ranks = [numerical_rank(x) for x in m]
        assert bases.shape == (batch, cols, cols - max(ranks))
        for t in range(batch):
            # one 2-D SVD, the basis at the matrix's own rank, phases column by column
            vh = np.linalg.svd(m[t])[2]
            want = per_column_phases(vh[ranks[t]:].conj().T)
            assert at_rank[t] == (ranks[t] == max(ranks))
            for got in [null_space_basis(m[t]), null_spaces(m[t:t + 1])[0][0]] + [bases[t]] * int(at_rank[t]):
                assert got.strides == want.strides
                assert got.tobytes() == want.tobytes()


def test_package_import_leaves_scipy_out():
    # the package depends on numpy alone; scipy must not be imported
    code = "import sys, compound_bcc; print('scipy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(compound_bcc.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
