import cmath
import io
import math

import numpy as np
import pytest

from dyafact import operators
from dyafact.dyadic import dyadic_reciprocal_levels, dyadic_reciprocal_partial, ramified_partial
from dyafact.operators import (
    HermitianOperator,
    evolution,
    fractional_power_dyadic,
    inverse_dyadic,
    read_matrix_text,
    resolvent_dyadic,
    write_matrix_text,
)
from dyafact.scalar import DomainError, PoleError

EPS = np.finfo(float).eps


def random_hermitian(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermitianOperator.from_matrix((a + a.conj().T) / 2)


def random_spd(n, rng, eigs):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    a = (q * np.asarray(eigs)) @ q.conj().T
    return HermitianOperator.from_matrix((a + a.conj().T) / 2)


class TestConstruction:
    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            HermitianOperator.from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_finite_entries(self):
        for bad in (math.nan, math.inf):
            a = np.eye(3, dtype=complex)
            a[1, 1] = bad
            with pytest.raises(DomainError):
                HermitianOperator.from_matrix(a)

    def test_rejects_oversize(self):
        with pytest.raises(DomainError):
            HermitianOperator.from_matrix(np.eye(300))

    def test_spectral_reconstruction(self):
        op = random_hermitian(16, np.random.default_rng(0))
        v, w = op.eigenvectors, op.eigenvalues
        rec = (v * w) @ v.conj().T
        assert np.linalg.norm(rec - op.matrix, "fro") <= 1e-9 * np.linalg.norm(op.matrix, "fro")
        assert np.abs(v.conj().T @ v - np.eye(16)).max() < 1e-10


class TestEvolution:
    def test_identity_at_zero(self):
        op = random_hermitian(8, np.random.default_rng(1))
        assert np.abs(evolution(op, 0.0) - np.eye(8)).max() < 1e-14

    def test_scalar_case(self):
        op = HermitianOperator.from_matrix(np.array([[1.7 + 0j]]))
        u = evolution(op, 0.9)
        assert u[0, 0] == pytest.approx(np.exp(-1j * 0.9 * 1.7))

    def test_group_law(self):
        op = random_hermitian(8, np.random.default_rng(2))
        lhs = evolution(op, 0.6) @ evolution(op, 0.7)
        rhs = evolution(op, 1.3)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_unitary(self):
        op = random_hermitian(8, np.random.default_rng(3))
        u = evolution(op, 2.0)
        assert np.abs(u @ u.conj().T - np.eye(8)).max() < 1e-10


class TestResolvent:
    def test_scalar_zero_matrix(self):
        op = HermitianOperator.from_matrix(np.zeros((1, 1), dtype=complex))
        v = np.array([1.0 + 0j])
        res, _ = resolvent_dyadic(op, 1.0, 40, v)
        # (0 - i)^{-1} = i
        assert res[0] == pytest.approx(1j, abs=1e-10)

    def test_diagonal_componentwise(self):
        op = HermitianOperator.from_matrix(np.diag([1.0, 2.0, 5.0]).astype(complex))
        v = np.array([1.0, 1.0, 1.0], dtype=complex) / math.sqrt(3.0)
        res, _ = resolvent_dyadic(op, 0.7, 40, v)
        ref = v / (op.eigenvalues - 0.7j)
        assert np.abs(res - ref).max() < 1e-9

    def test_random_16(self):
        rng = np.random.default_rng(4)
        op = random_hermitian(16, rng)
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        v /= np.linalg.norm(v)
        res, report = resolvent_dyadic(op, 1.0, 40, v)
        ref = np.linalg.solve(op.matrix - 1j * np.eye(16), v)
        assert np.linalg.norm(res - ref) <= 1e-6
        errs = [e for _, e in report.error_curve]
        assert all(b <= a * 1.5 for a, b in zip(errs[:-1], errs[1:]))

    def test_uniform_over_vectors(self):
        # strong convergence realized vector-wise: error stays bounded
        # across directions (ratio within the lambda^{-1} uniform bound)
        rng = np.random.default_rng(5)
        op = random_hermitian(12, rng)
        errs = []
        for _ in range(20):
            v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
            v /= np.linalg.norm(v)
            res, _ = resolvent_dyadic(op, 1.0, 30, v)
            ref = np.linalg.solve(op.matrix - 1j * np.eye(12), v)
            errs.append(np.linalg.norm(res - ref))
        assert max(errs) / max(min(errs), 1e-300) <= 1e3

    def test_lambda_domain(self):
        op = random_hermitian(4, np.random.default_rng(6))
        for lam in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                resolvent_dyadic(op, lam, 10, np.ones(4, dtype=complex))


class TestInverse:
    def test_scalar_unit(self):
        op = HermitianOperator.from_matrix(np.array([[1.0 + 0j]]))
        inv, _ = inverse_dyadic(op, 40)
        assert inv[0, 0].real == pytest.approx(1.0, abs=1e-10)

    def test_diagonal(self):
        op = HermitianOperator.from_matrix(np.diag([0.5, 2.0, 8.0]).astype(complex))
        inv, _ = inverse_dyadic(op, 40)
        assert np.abs(np.diag(inv) - np.array([2.0, 0.5, 0.125])).max() < 1e-9

    def test_error_curve_slope(self):
        rng = np.random.default_rng(7)
        op = random_spd(16, rng, np.linspace(0.5, 8.0, 16))
        _, report = inverse_dyadic(op, 40)
        errs = dict(report.error_curve)
        for k in range(10, 30):
            slope = math.log2(errs[k] / errs[k + 1])
            assert 0.8 <= slope <= 1.2

    def test_rejects_indefinite(self):
        op = HermitianOperator.from_matrix(np.diag([1.0, -2.0]).astype(complex))
        with pytest.raises(DomainError):
            inverse_dyadic(op, 10)


class TestFractionalPower:
    def test_scalar_unit(self):
        op = HermitianOperator.from_matrix(np.array([[1.0 + 0j]]))
        pw, _ = fractional_power_dyadic(op, 0.5, 60)
        assert pw[0, 0].real == pytest.approx(math.pi, abs=1e-6)

    def test_diagonal(self):
        op = HermitianOperator.from_matrix(np.diag([0.5, 2.0]).astype(complex))
        pw, _ = fractional_power_dyadic(op, 0.5, 60)
        ref = math.pi * np.array([0.5**-0.5, 2.0**-0.5])
        assert np.abs(np.diag(pw).real - ref).max() < 1e-6

    def test_s_to_zero_limit_on_scalars(self):
        # s -> 0 continuity of the scalar ramified decomposition
        p = 2.0
        for s in (1e-3, -1e-3):
            assert abs(ramified_partial(s, p, 60) - p ** (s - 1.0)) < 1e-6

    def test_spectrum_guard(self):
        op = HermitianOperator.from_matrix(np.diag([1e-4, 1.0]).astype(complex))
        with pytest.raises(DomainError):
            fractional_power_dyadic(op, 0.5, 40)

    def test_non_finite_order(self):
        op = HermitianOperator.from_matrix(np.diag([0.5, 2.0]).astype(complex))
        for s in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                fractional_power_dyadic(op, s, 40)


class TestErrorTrace:
    # resolvent K = 16 is a multiple of its trace step 2 and K = 0 has no
    # level below it; power K = 21 is not a multiple of its step 2
    @pytest.mark.parametrize("mode, K", [("resolvent", 16), ("resolvent", 0),
                                         ("inverse", 16), ("power", 21)])
    def test_trace_ends_at_K_once(self, mode, K, monkeypatch):
        rng = np.random.default_rng(11)
        op = random_spd(8, rng, np.linspace(0.5, 8.0, 8))
        calls, tables = [], []
        raw = HermitianOperator.apply_scalar
        monkeypatch.setattr(HermitianOperator, "apply_scalar",
                            lambda self, f: calls.append(f) or raw(self, f))
        raw_levels = operators.dyadic_reciprocal_levels
        monkeypatch.setattr(operators, "dyadic_reciprocal_levels",
                            lambda p, k: tables.append(k) or raw_levels(p, k))
        if mode == "resolvent":
            v = np.ones(8, dtype=complex) / math.sqrt(8.0)
            partial, report = resolvent_dyadic(op, 1.0, K, v)
            err = np.linalg.norm(partial - np.linalg.solve(op.matrix - 1j * np.eye(8), v))
        elif mode == "inverse":
            partial, report = inverse_dyadic(op, K)
            err = np.linalg.norm(partial - np.linalg.inv(op.matrix), ord=2)
        else:
            partial, report = fractional_power_dyadic(op, 0.5, K)
            ref = (op.eigenvectors * (math.pi * op.eigenvalues**-0.5)) @ op.eigenvectors.conj().T
            err = np.linalg.norm(partial - ref, "fro") / np.linalg.norm(ref, "fro")
        levels = [k for k, _ in report.error_curve]
        assert all(a < b for a, b in zip(levels[:-1], levels[1:]))
        assert levels[-1] == K
        assert report.error_curve[-1][1] == pytest.approx(err, rel=1e-6)
        if mode == "power":
            # one reference plus one evaluation per traced level: the returned
            # partial is the last trace point, not a second evaluation
            assert len(calls) == len(levels) + 1
        else:
            # every traced level and the partial come from one level table
            assert tables == [K] and not calls


class TestLevelTable:
    """Resolvent and inverse take every level over the whole spectrum from
    one table; they must match the scalar identity eigenvalue by eigenvalue
    and the dense error norms."""

    @pytest.mark.parametrize("K", [0, 1, 16, 40])
    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_inverse_matches_the_scalar_identity(self, n, K):
        rng = np.random.default_rng(100 * n + K)
        op = random_spd(n, rng, np.exp(rng.uniform(math.log(0.05), math.log(20.0), n)))
        partial, report = inverse_dyadic(op, K)
        ref = op.apply_scalar(lambda t: dyadic_reciprocal_partial(t, K))
        assert np.abs(partial - ref).max() <= 1e-13 * np.abs(ref).max()
        exact = op.apply_scalar(lambda t: 1.0 / t)
        assert [k for k, _ in report.error_curve] == list(range(K + 1))
        # the dense norm resolves the error only down to its own rounding
        for k, err in report.error_curve:
            dense = np.linalg.norm(op.apply_scalar(lambda t: dyadic_reciprocal_partial(t, k)) - exact, 2)
            assert abs(err - dense) <= 1e-6 * dense + 4 * n * EPS * np.abs(exact).max()

    @pytest.mark.parametrize("K", [0, 1, 16, 40])
    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_resolvent_matches_the_scalar_identity(self, n, K):
        rng = np.random.default_rng(200 * n + K)
        op = random_hermitian(n, rng)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lam = 0.7
        partial, report = resolvent_dyadic(op, lam, K, v)
        ref = op.apply_scalar(lambda t: 1j * dyadic_reciprocal_partial(lam + 1j * t, K)) @ v
        assert np.abs(partial - ref).max() <= 1e-13 * np.abs(ref).max()
        exact = op.apply_scalar(lambda t: 1.0 / (t - 1j * lam)) @ v
        assert [k for k, _ in report.error_curve] == list(range(0, K, max(1, K // 8))) + [K]
        for k, err in report.error_curve:
            approx = op.apply_scalar(lambda t: 1j * dyadic_reciprocal_partial(lam + 1j * t, k)) @ v
            dense = np.linalg.norm(approx - exact)
            assert abs(err - dense) <= 1e-6 * dense + 4 * n * EPS * np.abs(exact).max()

    @pytest.mark.parametrize("K", [0, 1, 16, 40])
    def test_table_rows_are_the_scalar_partials(self, K):
        p = np.array([0.05, 1.0, 20.0, 0.7 + 3.0j, 0.7 - 0.01j])
        table = dyadic_reciprocal_levels(p, K)
        assert table.shape == (K + 1, len(p))
        for k in range(K + 1):
            closed = 1.0 / (2.0**k * -np.expm1(-p / 2.0**k))
            assert np.abs(table[k] - closed).max() <= 1e-13 * np.abs(closed).max()
            assert all(table[k, j] == dyadic_reciprocal_partial(pj, k) for j, pj in enumerate(p))

    @pytest.mark.parametrize("K", [0, 1, 16, 40])
    def test_eigenvalue_at_zero_is_a_pole(self, K):
        with pytest.raises(PoleError):
            dyadic_reciprocal_levels(np.array([1.0, 0.0, 2.0]), K)


class TestMasterOracleProperties:
    def test_spectral_mapping_on_diagonals(self):
        # every operation applied to a diagonal matrix acts componentwise
        d = np.array([0.7, 1.3, 3.1, 9.9])
        op = HermitianOperator.from_matrix(np.diag(d).astype(complex))
        inv, _ = inverse_dyadic(op, 45)
        assert np.abs(np.diag(inv) - 1.0 / d).max() < 1e-10
        pw, _ = fractional_power_dyadic(op, 0.5, 60)
        scalars = np.array([math.pi * ramified_partial(0.5, t, 60).real for t in d])
        assert np.abs(np.diag(pw).real - scalars).max() < 1e-12

    def test_unitary_invariance(self):
        rng = np.random.default_rng(8)
        d = np.linspace(0.5, 8.0, 10)
        op = HermitianOperator.from_matrix(np.diag(d).astype(complex))
        q, _ = np.linalg.qr(rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10)))
        conj = HermitianOperator.from_matrix(q @ op.matrix @ q.conj().T)
        a, _ = inverse_dyadic(op, 40)
        b, _ = inverse_dyadic(conj, 40)
        lhs = q @ a @ q.conj().T
        assert np.linalg.norm(lhs - b, "fro") <= 1e-9 * np.linalg.norm(b, "fro")


class TestDoubleSum:
    def test_runs_and_is_inferior(self):
        # the truncated double sum at J = 1000,
        #   i sum_{j<=J} e^{-j lam} U_j - i sum_{k<=K} sum_{j<=J} (-1)^j e^{-j lam/2^k} U_{j 2^-k},
        # with each inner geometric sum closed, is visibly worse than the
        # resolvent form at the same K: the limits do not interchange freely
        lam, K, J = 1.0, 12, 1000

        def double_sum(w):
            z1 = cmath.exp(-lam - 1j * w)
            total = 1j * (1.0 - z1 ** (J + 1)) / (1.0 - z1)
            for k in range(1, K + 1):
                zk = -cmath.exp((-lam - 1j * w) * 2.0**-k)
                total -= 1j * 2.0**-k * (1.0 - zk ** (J + 1)) / (1.0 - zk)
            return total

        op = HermitianOperator.from_matrix(np.diag([1.0, 2.0, 5.0]).astype(complex))
        ds = op.apply_scalar(double_sum)
        ref = op.apply_scalar(lambda w: 1.0 / (w - 1j))
        v = np.ones(3, dtype=complex) / math.sqrt(3)
        direct, _ = resolvent_dyadic(op, lam, K, v)
        err_ds = np.linalg.norm(ds @ v - ref @ v)
        err_direct = np.linalg.norm(direct - ref @ v)
        assert err_ds > err_direct


class TestMatrixIO:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        a = (a + a.conj().T) / 2
        buf = io.StringIO()
        write_matrix_text(a, buf)
        buf.seek(0)
        b = read_matrix_text(buf)
        np.testing.assert_array_equal(a, b)  # 17 significant digits round-trips binary64

    def test_bad_row(self):
        with pytest.raises(ValueError):
            read_matrix_text(io.StringIO("2\n1 0 0 0\n1 0\n"))
