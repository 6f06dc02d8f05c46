import ast
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import ghz_selftest
from ghz_selftest import backends
from ghz_selftest.errors import InvalidInput, NotHermitian
from ghz_selftest.fixtures import (
    computational_strategy,
    depolarized_strategy,
    ideal_strategy,
    literal_ideal_strategy,
)
from ghz_selftest.linalg import (
    I2,
    SIGMA_X,
    SIGMA_Z,
    contract_slot,
    dagger,
    fix_phase,
    herm_eig,
    herm_eigvals,
    op_norm,
    partial_transpose,
    projector,
    tensor,
)
from ghz_selftest.scenario import a_operators, witness_operators

SQRT2 = np.sqrt(2)
REAL_FIXTURES = {
    "ideal": ideal_strategy,
    "literal": literal_ideal_strategy,
    "computational": computational_strategy,
    "depolarized": lambda n: depolarized_strategy(n, 0.05),
}


def random_hermitian(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return m + m.conj().T


def random_density(rng, d=2):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return projector(v)


class TestTensor:
    def test_single_identity(self):
        assert np.array_equal(tensor([I2]), I2)

    def test_double_bit_flip(self):
        e00 = np.zeros(4)
        e00[0] = 1
        out = tensor([SIGMA_X, SIGMA_X]) @ e00
        assert np.abs(out - np.array([0, 0, 0, 1])).max() < 1e-15

    def test_z_on_first_of_three(self):
        vals = np.sort(np.linalg.eigvalsh(tensor([SIGMA_Z, I2, I2])))
        assert np.abs(vals - np.array([-1.0] * 4 + [1.0] * 4)).max() < 1e-12

    def test_associative(self):
        rng = np.random.default_rng(0)
        a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
        left = tensor([a, tensor([b, c])])
        right = tensor([tensor([a, b]), c])
        assert np.abs(left - right).max() < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            tensor([])

    def test_real_factors_stay_real(self):
        rng = np.random.default_rng(1)
        real = [rng.normal(size=(3, 2, 2)) for _ in range(3)]
        out = tensor(real)
        assert out.dtype == np.float64
        for k in range(3):
            mixed = real[:k] + [real[k].astype(complex)] + real[k + 1:]
            got = tensor(mixed)
            assert got.dtype == np.complex128
            # the same real parts, computed in the same order
            assert got.real.tobytes() == out.tobytes()
            assert not got.imag.any()


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestKronChain:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_matrices_match_np_kron_bytewise(self, n):
        rng = np.random.default_rng(n)
        mats = [random_complex(rng, (2, 2)) for _ in range(n)]
        assert backends.kron_chain(mats).tobytes() == reduce(np.kron, mats).tobytes()

    def test_stacks_match_per_point_kron_bytewise(self):
        rng = np.random.default_rng(11)
        stacks = [random_complex(rng, (5, k, k)) for k in (2, 3, 2)]
        out = backends.kron_chain(stacks)
        assert out.shape == (5, 12, 12)
        for p in range(5):
            want = reduce(np.kron, [s[p] for s in stacks])
            assert out[p].tobytes() == want.tobytes()

    def test_matrix_broadcasts_against_stack(self):
        rng = np.random.default_rng(12)
        a = random_complex(rng, (2, 2))
        b = random_complex(rng, (4, 3, 3))
        left, right = backends.kron_chain([a, b]), backends.kron_chain([b, a])
        assert left.shape == right.shape == (4, 6, 6)
        for p in range(4):
            assert left[p].tobytes() == np.kron(a, b[p]).tobytes()
            assert right[p].tobytes() == np.kron(b[p], a).tobytes()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            backends.kron_chain([])


class TestContractSlot:
    @staticmethod
    def traced(t, weights):
        for w in weights:
            t = contract_slot(t, w)
        return t[..., 0, 0]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_per_operator_weights_give_the_kronecker_trace(self, n):
        rng = np.random.default_rng(70 + n)
        d = 2**n
        t = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
        w = rng.normal(size=(n, 3, 2, 2)) + 1j * rng.normal(size=(n, 3, 2, 2))
        got = self.traced(t, w)
        for k in range(3):
            want = np.trace(t[k] @ reduce(np.kron, [w[j, k].T for j in range(n)]))
            assert abs(got[k] - want) <= 1e-12 * max(1, abs(want))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_shared_stacks_land_on_new_axes(self, n):
        # one stack of 2x2 weights per slot, each broadcast on a new axis
        rng = np.random.default_rng(80 + n)
        d = 2**n
        t = rng.normal(size=(2, d, d)) + 1j * rng.normal(size=(2, d, d))
        stacks = [rng.normal(size=(k, 2, 2)) + 1j * rng.normal(size=(k, 2, 2))
                  for k in (3, 1, 2, 2, 1)[:n]]
        got = t
        for st in stacks:
            got = contract_slot(got[..., None, :, :], st)
        assert got.shape == (2, *(len(st) for st in stacks), 1, 1)
        for m, *ks in np.ndindex(got.shape[:-2]):
            want = np.trace(t[m] @ reduce(np.kron, [st[k].T for st, k in zip(stacks, ks)]))
            assert abs(got[(m, *ks, 0, 0)] - want) <= 1e-12 * max(1, abs(want))

    def test_real_operands_stay_real(self):
        rng = np.random.default_rng(5)
        out = contract_slot(rng.normal(size=(8, 8)), rng.normal(size=(2, 2)))
        assert out.dtype == float and out.shape == (4, 4)


class TestHermEig:
    def test_sigma_z(self):
        es = herm_eig(SIGMA_Z)
        assert np.abs(es.values - np.array([-1.0, 1.0])).max() < 1e-14

    def test_xx_plus_zz(self):
        m = tensor([SIGMA_X, SIGMA_X]) + tensor([SIGMA_Z, SIGMA_Z])
        es = herm_eig(m)
        assert np.abs(es.values - np.array([-2.0, 0.0, 0.0, 2.0])).max() < 1e-12

    def test_zero_matrix(self):
        es = herm_eig(np.zeros((4, 4)))
        assert np.abs(es.values).max() == 0.0

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitian):
            herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 16, 64, 128])
    def test_reconstruction_and_orthonormality(self, d):
        rng = np.random.default_rng(d)
        m = random_hermitian(rng, d)
        es = herm_eig(m)
        scale = max(1.0, op_norm(m))
        recon = (es.vectors * es.values) @ es.vectors.conj().T
        assert np.abs(recon - m).max() <= 1e-9 * scale
        assert np.abs(es.vectors.conj().T @ es.vectors - np.eye(d)).max() <= 1e-10
        for k in range(d):
            resid = m @ es.vectors[:, k] - es.values[k] * es.vectors[:, k]
            assert np.linalg.norm(resid) <= 1e-10 * scale

    def test_eigvals_match_and_repeat_bitwise(self):
        rng = np.random.default_rng(7)
        for d in (2, 4, 8, 32):
            m = random_hermitian(rng, d)
            es = herm_eig(m)
            assert np.abs(herm_eigvals(m) - es.values).max() <= 1e-12 * max(1.0, op_norm(m))
            again = herm_eig(m)
            assert np.array_equal(again.values, es.values)
            assert np.array_equal(again.vectors, es.vectors)

    def test_stack_matches_single_solves_bitwise(self):
        rng = np.random.default_rng(8)
        for d in (2, 4, 32):
            stack = np.stack([random_hermitian(rng, d) for _ in range(6)]).reshape(2, 3, d, d)
            es = herm_eig(stack)
            for idx in np.ndindex(2, 3):
                one = herm_eig(stack[idx])
                assert es.values[idx].tobytes() == one.values.tobytes()
                assert es.vectors[idx].tobytes() == one.vectors.tobytes()

    def test_stack_with_one_non_hermitian_matrix_rejected(self):
        rng = np.random.default_rng(9)
        stack = np.stack([random_hermitian(rng, 4) for _ in range(5)])
        stack[3, 0, 1] += 1e-6
        with pytest.raises(NotHermitian):
            herm_eig(stack)
        with pytest.raises(NotHermitian):
            herm_eigvals(stack)
        stack[3, 0, 1] -= 1e-6
        herm_eig(stack)

    def test_solver_failure_is_retried_in_a_rotated_basis(self, monkeypatch):
        # LAPACK's divide-and-conquer eigh can fail on highly degenerate
        # spectra; a stand-in failure exercises the per-matrix retry
        rng = np.random.default_rng(10)
        stack = np.stack([random_hermitian(rng, 8) for _ in range(3)])
        real_eigh = np.linalg.eigh
        bad = stack[1]

        def flaky_eigh(m, *args, **kwargs):
            if m.ndim > 2 or np.array_equal(m, bad):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real_eigh(m, *args, **kwargs)

        monkeypatch.setattr(backends.np.linalg, "eigh", flaky_eigh)
        w, v = backends.eigh(stack)
        monkeypatch.undo()
        for k in (0, 2):
            want = np.linalg.eigh(stack[k])
            assert w[k].tobytes() == want[0].tobytes() and v[k].tobytes() == want[1].tobytes()
        assert np.abs(w[1] - np.linalg.eigvalsh(bad)).max() <= 1e-12 * np.abs(w[1]).max()
        assert np.abs(bad @ v[1] - v[1] * w[1]).max() <= 1e-12 * np.abs(w[1]).max()
        assert np.abs(v[1].conj().T @ v[1] - np.eye(8)).max() <= 1e-13

    def test_eigenvalue_sum_is_trace(self):
        rng = np.random.default_rng(5)
        for d in (2, 4, 8):
            m = random_hermitian(rng, d)
            es = herm_eig(m)
            tr = float(np.trace(m).real)
            assert abs(es.values.sum() - tr) <= 1e-9 * max(1.0, abs(tr))


def complex_eigvalsh(m):
    """The complex solve of the symmetrized stack, as herm_eigvals runs it
    on a stack with an imaginary part."""
    m = np.asarray(m, dtype=complex)
    return np.linalg.eigvalsh((m + dagger(m)) / 2)


class TestRealSolve:
    @staticmethod
    def assert_agree(m, got):
        scale = max(1.0, float(np.abs(m).max()))
        assert np.abs(got - complex_eigvalsh(m)).max() <= 1e-13 * scale

    @pytest.mark.parametrize("d", [2, 4, 8, 16, 32, 64, 128])
    def test_real_valued_complex_stack_matches_the_complex_solve(self, d):
        rng = np.random.default_rng(d)
        g = rng.normal(size=(5, d, d))
        m = (g + g.swapaxes(1, 2)).astype(complex)
        self.assert_agree(m, herm_eigvals(m))
        self.assert_agree(m, backends.eigvalsh(m))

    @pytest.mark.parametrize("n", range(2, 8))
    @pytest.mark.parametrize("fixture", sorted(REAL_FIXTURES))
    def test_witnesses_of_real_fixtures_match_the_complex_solve(self, fixture, n):
        ws = witness_operators(a_operators(REAL_FIXTURES[fixture](n)))
        assert ws.dtype == complex and not ws.imag.any()
        self.assert_agree(ws, herm_eigvals(ws))

    def test_one_imaginary_entry_keeps_the_complex_solve_bitwise(self):
        rng = np.random.default_rng(12)
        g = rng.normal(size=(4, 8, 8))
        m = (g + g.swapaxes(1, 2)).astype(complex)
        m[2, 0, 1] += 1e-3j
        m[2, 1, 0] -= 1e-3j
        assert herm_eigvals(m).tobytes() == complex_eigvalsh(m).tobytes()
        assert backends.eigvalsh(m).tobytes() == np.linalg.eigvalsh(m).tobytes()

    def test_solver_sees_real_input_only_for_real_stacks(self, monkeypatch):
        seen = []
        real_eigvalsh = np.linalg.eigvalsh

        def recording_eigvalsh(m):
            seen.append(m.dtype)
            return real_eigvalsh(m)

        monkeypatch.setattr(backends.np.linalg, "eigvalsh", recording_eigvalsh)
        m = np.stack([np.eye(4), np.diag([1.0, 2, 3, 4])]).astype(complex)
        herm_eigvals(m)
        m[1, 0, 1] += 1e-300j
        m[1, 1, 0] -= 1e-300j
        herm_eigvals(m)
        assert seen == [np.dtype(float), np.dtype(complex)]

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_real_gate_rejects_what_the_complex_gate_rejects(self, dtype):
        stack = np.stack([np.eye(3), np.diag([1.0, -2, 3]), np.full((3, 3), 3.0)]).astype(dtype)
        stack[2, 0, 1] += 0.5e-10 * 3  # within atol times the matrix's scale
        herm_eigvals(stack)
        stack[2, 0, 1] += 1.5e-10 * 3
        with pytest.raises(NotHermitian):
            herm_eigvals(stack)


class TestFixPhase:
    def test_first_large_entry_made_real_positive(self):
        v = np.array([1e-13, -2j, 1 + 1j])
        out = fix_phase(v)
        assert out[1] == 2 and abs(np.abs(out) - np.abs(v)).max() == 0

    def test_negligible_vector_unchanged(self):
        v = np.array([1e-13, -1e-14j])
        assert np.array_equal(fix_phase(v), v)

    def test_stack_matches_single_vectors_bitwise(self):
        rng = np.random.default_rng(11)
        vs = rng.normal(size=(4, 5, 3)) + 1j * rng.normal(size=(4, 5, 3))
        vs[0, :, 0] = 0
        vs[1, 2] = 1e-13
        out = fix_phase(vs)
        for idx in np.ndindex(4, 5):
            assert out[idx].tobytes() == fix_phase(vs[idx]).tobytes()


class TestPartialTranspose:
    def test_identity_fixed(self):
        for target in (0, 1):
            assert np.abs(partial_transpose(np.eye(4), [2, 2], target) - np.eye(4)).max() == 0

    def test_bell_state_min_eig(self):
        phi = np.zeros(4)
        phi[0] = phi[3] = 1 / SQRT2
        rho = projector(phi)
        # independent oracle: swap indices of the second factor by hand
        manual = np.zeros((4, 4), dtype=complex)
        for i1 in range(2):
            for j1 in range(2):
                for i2 in range(2):
                    for j2 in range(2):
                        manual[2 * i1 + i2, 2 * j1 + j2] = rho[2 * i1 + j2, 2 * j1 + i2]
        pt = partial_transpose(rho, [2, 2], 1)
        assert np.abs(pt - manual).max() < 1e-15
        assert abs(np.linalg.eigvalsh(pt).min() - (-0.5)) < 1e-12

    def test_product_state_stays_psd(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            rho = np.kron(random_density(rng), random_density(rng))
            for target in (0, 1):
                pt = partial_transpose(rho, [2, 2], target)
                assert np.linalg.eigvalsh(pt).min() >= -1e-12

    def test_involutive_and_trace_preserving(self):
        rng = np.random.default_rng(4)
        m = random_hermitian(rng, 8)
        pt = partial_transpose(m, [2, 2, 2], 1)
        assert np.abs(partial_transpose(pt, [2, 2, 2], 1) - m).max() < 1e-14
        assert abs(np.trace(pt) - np.trace(m)) < 1e-12
        assert np.abs(pt - pt.conj().T).max() < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            partial_transpose(np.eye(4), [2, 3], 0)
        with pytest.raises(InvalidInput):
            partial_transpose(np.eye(4), [2, 2], 2)


class TestOpNorm:
    def test_sigma_x(self):
        assert abs(op_norm(SIGMA_X) - 1.0) < 1e-14

    def test_two_qubit_witness_value(self):
        m = SQRT2 * (tensor([SIGMA_X, SIGMA_X]) + tensor([SIGMA_Z, SIGMA_Z]))
        assert abs(op_norm(m) - 2 * SQRT2) < 1e-12

    def test_scaled_identity(self):
        assert abs(op_norm(4 * SQRT2 * np.eye(8)) - 4 * SQRT2) < 1e-12

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitian):
            op_norm(np.array([[0, 1], [0, 0]], dtype=complex))


EIG_NAMES = {"eigh", "eigvalsh", "eig", "eigvals"}
# where a NumPy eigensolve may be called: the backend only
EIG_ALLOWED = {("backends.py", None)}


def eig_calls(path):
    """``(file, enclosing top-level definition, line)`` of every NumPy
    eigensolver call in a module."""
    found = []
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            func = node.func if isinstance(node, ast.Call) else None
            if (isinstance(func, ast.Attribute) and func.attr in EIG_NAMES
                    and isinstance(func.value, ast.Attribute) and func.value.attr == "linalg"):
                found.append((path.name, owner, node.lineno))
    return found


class TestEigensolverPath:
    def test_eigensolves_go_through_backends(self):
        calls = [c for path in sorted(Path(ghz_selftest.__file__).parent.glob("*.py"))
                 for c in eig_calls(path)]
        stray = [c for c in calls
                 if (c[0], None) not in EIG_ALLOWED and (c[0], c[1]) not in EIG_ALLOWED]
        assert stray == []
        # the walk sees the backend's own solves
        assert {"eigh", "_eigh_retry", "eigvalsh"} <= {c[1] for c in calls if c[0] == "backends.py"}


def budget_names(tree):
    """Line numbers of every mention of ``BLOCK_ENTRIES`` in a module: a
    name, an attribute, an imported name or a string."""
    return [node.lineno for node in ast.walk(tree) if "BLOCK_ENTRIES" in (
        getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None),
        getattr(node, "value", None))]


class TestChunkBudget:
    """Every streamed loop takes its slices from ``linalg.chunks``, so the
    chunk budget is decided in one module."""

    def test_only_linalg_names_the_budget(self):
        trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
                 for path in Path(ghz_selftest.__file__).parent.glob("*.py")}
        named = {name for name, tree in trees.items() if budget_names(tree)}
        assert named == {"linalg.py"}
        (chunks,) = [stmt for stmt in trees["linalg.py"].body
                     if isinstance(stmt, ast.FunctionDef) and stmt.name == "chunks"]
        args = chunks.args
        assert [a.arg for a in args.posonlyargs + args.args] == ["count", "entries"]
        assert not (args.vararg or args.kwonlyargs or args.kwarg or args.defaults)
        # the walk sees the constant and the one read of it, in chunks
        assert len(budget_names(trees["linalg.py"])) == 2
        assert budget_names(chunks) != []
