import ast
import re
import tracemalloc
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ghz_selftest
from ghz_selftest import backends, linalg, states
from ghz_selftest.errors import InvalidBloch, InvalidInput
from ghz_selftest.fixtures import (
    computational_strategy,
    depolarized_strategy,
    ideal_strategy,
    literal_ideal_strategy,
)
from ghz_selftest.linalg import (I2, SIGMA_A, SIGMA_X, SIGMA_Z, chunks, dagger, outer, projector,
                                 tensor)
from ghz_selftest.rng import make_rng
from ghz_selftest.scenario import a_operators, witness_operator
from ghz_selftest.selftest import antipodality_gap
from ghz_selftest.states import (
    POVM_ATOL,
    POVM_PSD_ATOL,
    Povm,
    SenderStates,
    aligned_sender_states,
    basis_index,
    bloch_to_state,
    ghz_basis,
    ghz_basis_state,
    ghz_kets,
    ghz_povm,
    ideal_sender_states,
    outcome_bits,
    outcome_index,
    outcome_label,
    outcome_table,
    random_antipodal_strategy,
    random_mixed_strategy,
    random_projectors,
    random_strategy,
)

SQRT2 = np.sqrt(2)


class TestBloch:
    def test_north_pole(self):
        assert np.abs(bloch_to_state([0, 0, 1]) - np.diag([1.0, 0.0])).max() < 1e-15

    def test_center(self):
        assert np.abs(bloch_to_state([0, 0, 0]) - I2 / 2).max() < 1e-15

    def test_plus_state(self):
        rho = bloch_to_state([1, 0, 0])
        assert abs(rho[0, 1] - 0.5) < 1e-15
        assert np.abs(rho - projector([1, 1])).max() < 1e-15

    def test_too_long(self):
        with pytest.raises(InvalidBloch):
            bloch_to_state([1.0, 1e-5, 0])

    @pytest.mark.parametrize("v", [[np.nan, 0, 0], [0, 0.5, np.nan], [np.inf, 0, 0]])
    def test_non_finite(self, v):
        with pytest.raises(InvalidBloch):
            bloch_to_state(v)


class TestOutcomes:
    def test_roundtrip(self):
        for n in (2, 3, 4):
            for m in range(2**n):
                bits = outcome_bits(m, n)
                assert outcome_index(bits, n) == m
                assert outcome_index(outcome_label(m, n), n) == m

    def test_sign_bit_first_in_labels(self):
        # s_1 = 1, s_2 = 0 -> label "10", index 1
        assert outcome_label(1, 2) == "10"
        assert outcome_bits("10", 2) == (1, 0)

    def test_bad_words(self):
        with pytest.raises(InvalidInput):
            outcome_bits("012", 3)
        with pytest.raises(InvalidInput):
            outcome_bits(8, 3)

    # int() would truncate the bit lists' 0.5 to 0 and 1.9 to 1
    @pytest.mark.parametrize("s", [1.5, None, 2.0, ["0", "x"], [0.5, 1], [True, 1.9]])
    def test_non_integer_outcomes_name_the_value(self, s):
        with pytest.raises(InvalidInput, match=re.escape(repr(s))):
            outcome_bits(s, 2)

    @pytest.mark.parametrize("s, bits", [([0, 1], (0, 1)), ([np.int64(1), 0], (1, 0))])
    def test_integer_bit_lists(self, s, bits):
        assert outcome_bits(s, 2) == bits


class TestIdealStates:
    def test_second_sender_assignments(self):
        st = ideal_sender_states(2, 2)
        assert np.abs(st.rho[0, 0] - np.diag([1.0, 0.0])).max() < 1e-15
        assert np.abs(st.rho[1, 1] - projector([1, -1])).max() < 1e-15

    def test_first_sender_orthogonal_pairs(self):
        st = ideal_sender_states(1, 2)
        for x in range(2):
            assert abs(np.trace(st.rho[0, x] @ st.rho[1, x])) < 1e-14

    def test_first_sender_difference_operator(self):
        st = ideal_sender_states(1, 3)
        a0 = st.rho[0, 0] - st.rho[1, 0]
        assert np.abs(a0 - (SIGMA_X + SIGMA_Z) / SQRT2).max() < 1e-12
        a1 = st.rho[0, 1] - st.rho[1, 1]
        assert np.abs(a1 - (SIGMA_X - SIGMA_Z) / SQRT2).max() < 1e-12

    def test_aligned_frame(self):
        st = aligned_sender_states(3, 3)
        assert np.abs((st.rho[0, 0] - st.rho[1, 0]) - SIGMA_X).max() < 1e-14
        assert np.abs((st.rho[0, 1] - st.rho[1, 1]) - SIGMA_Z).max() < 1e-14

    def test_out_of_range(self):
        with pytest.raises(InvalidInput):
            ideal_sender_states(0, 2)
        with pytest.raises(InvalidInput):
            ideal_sender_states(4, 3)

    def test_states_validate(self):
        for j in (1, 2):
            ideal_sender_states(j, 2).validate()
            aligned_sender_states(j, 2).validate()

    @pytest.mark.parametrize("make", [ideal_strategy, literal_ideal_strategy,
                                      computational_strategy, depolarized_strategy])
    @pytest.mark.parametrize("n", [0, 1])
    def test_reference_strategies_need_two_senders(self, make, n):
        args = (n, 0.1) if make is depolarized_strategy else (n,)
        with pytest.raises(InvalidInput, match=f"^need at least two senders, got n={n}$"):
            make(*args)


class TestGhzBasis:
    def test_plus_bell_state(self):
        v = ghz_basis_state(0, 2)
        want = np.zeros(4)
        want[0] = want[3] = 1 / SQRT2
        assert np.abs(v - want).max() < 1e-15

    def test_minus_bell_state(self):
        # s_1 = 1, s_2 = 0
        v = ghz_basis_state((1, 0), 2)
        want = np.zeros(4)
        want[0], want[3] = 1 / SQRT2, -1 / SQRT2
        assert np.abs(v - want).max() < 1e-15

    def test_orthonormal_basis_n3(self):
        vecs = ghz_basis(3)
        for m in range(8):
            assert np.array_equal(vecs[:, m], ghz_basis_state(m, 3))
        assert np.abs(vecs.conj().T @ vecs - np.eye(8)).max() < 1e-12

    def test_wrong_length(self):
        with pytest.raises(InvalidInput):
            ghz_basis_state("01", 3)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_closed_form_is_the_stacked_states(self, n):
        want = np.stack([ghz_basis_state(m, n) for m in range(2**n)], axis=1)
        got = ghz_basis(n)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_closed_form_needs_a_positive_n(self):
        with pytest.raises(InvalidInput):
            ghz_basis(0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_witness_expectation_at_ghz_vectors(self, n):
        # canonical-frame reference operators
        from ghz_selftest.robustness import parametrized_a_operators

        ops = parametrized_a_operators([np.pi / 4] * n)
        for m in range(2**n):
            xi = ghz_basis_state(m, n)
            w = witness_operator(n, m, ops)
            val = float((xi.conj() @ (w @ xi)).real)
            assert abs(val - 2 * SQRT2 * (n - 1)) < 1e-10


BIT_OPS = (ast.RShift, ast.LShift, ast.BitXor)
# the one place the outcome convention is computed: the scalar parsers of
# user input, the outcome-bit table and the ket index; besides them only the
# strategy-file writer shifts bits, those of IEEE doubles and their products
BIT_ALLOWED = {("states.py", name)
               for name in ("outcome_bits", "outcome_index", "outcome_table", "basis_index")}
BIT_ALLOWED |= {("arraytext.py", "_digits"), ("arraytext.py", "_quotient")}
# the readers of the table and the ket rule, which keep no bit arithmetic
BIT_READERS = {("states.py", "ghz_basis"), ("states.py", "ghz_basis_state"),
               ("robustness.py", "_slot_factors"), ("scenario.py", "witness_signs"),
               ("scenario.py", "witness_orbits"), ("scenario.py", "flip_characters"),
               ("scenario.py", "flip_eigenbasis"), ("fixtures.py", "computational_strategy")}


def bit_ops(path, ops):
    """``(file, enclosing top-level definition, line)`` of every binary
    operation of a type in ``ops`` in a module."""
    found = []
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ops):
                found.append((path.name, owner, node.lineno))
    return found


class TestOutcomeConvention:
    def test_outcome_bits_are_derived_only_in_states(self):
        modules = sorted(Path(ghz_selftest.__file__).parent.glob("*.py"))
        found = [c for path in modules for c in bit_ops(path, BIT_OPS)]
        assert [c for c in found if c[:2] not in BIT_ALLOWED] == []
        # the walk sees the table's own derivation
        assert ("states.py", "outcome_table") in {c[:2] for c in found}
        readers = [c for path in modules for c in bit_ops(path, BIT_OPS + (ast.BitAnd,))
                   if c[:2] in BIT_READERS]
        assert readers == []

    @pytest.mark.parametrize("n", range(1, 8))
    def test_table_rows_are_the_parsed_outcomes(self, n):
        table = outcome_table(n)
        assert table.shape == (2**n, n) and not table.flags.writeable
        assert [tuple(row) for row in table.tolist()] == [outcome_bits(m, n) for m in range(2**n)]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_kets_are_0_s2_sn_and_1_not_s2_sn(self, n):
        a, b = ghz_kets(outcome_table(n))
        for m in range(2**n):
            rest = outcome_bits(m, n)[1:]
            want_a, want_b = (0, *rest), (1, *(1 - x for x in rest))
            assert (tuple(a[m]), tuple(b[m])) == (want_a, want_b)
            assert basis_index(a[m]) == int("".join(map(str, want_a)), 2)
            assert basis_index(b[m]) == int("".join(map(str, want_b)), 2)

    def test_one_ghz_vector_needs_no_square_array(self):
        n = 20
        tracemalloc.start()
        try:
            v = ghz_basis_state(2**n - 1, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * v.nbytes
        assert np.flatnonzero(v).tolist() == [2**(n - 1) - 1, 2**(n - 1)]


class TestRandomStrategies:
    def test_deterministic(self):
        s1 = random_strategy(3, 42)
        s2 = random_strategy(3, 42)
        assert all(
            np.array_equal(a.rho, b.rho) for a, b in zip(s1.senders, s2.senders)
        )
        assert np.array_equal(s1.povm.elements, s2.povm.elements)
        s3 = random_strategy(3, 43)
        assert not np.array_equal(s1.povm.elements, s3.povm.elements)

    def test_invariants_hold(self):
        for seed in range(5):
            random_strategy(2, seed).validate()
            random_antipodal_strategy(3, seed).validate()
            random_mixed_strategy(2, seed).validate()

    def test_projective_elements_have_unit_trace(self):
        s = random_strategy(2, 7)
        for m in s.povm.elements:
            assert abs(np.trace(m).real - 1) < 1e-10

    def test_antipodal_variant_is_antipodal(self):
        for seed in range(5):
            assert antipodality_gap(random_antipodal_strategy(2, seed)) < 1e-12

    def test_ghz_povm_validates(self):
        ghz_povm(3).validate()

    @pytest.mark.parametrize("n", range(2, 8))
    def test_ghz_povm_is_the_per_outcome_projector_stack(self, n):
        want = np.stack([projector(ghz_basis_state(m, n)) for m in range(2**n)])
        assert ghz_povm(n).elements.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", range(2, 8))
    def test_literal_povm_is_the_conjugated_per_outcome_stack(self, n):
        h = tensor([I2] + [SIGMA_A] * (n - 1))
        want = np.stack([h @ projector(ghz_basis_state(m, n)) @ h for m in range(2**n)])
        assert literal_ideal_strategy(n).povm.elements.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", range(2, 8))
    def test_literal_povm_in_real_arithmetic_has_the_complex_bits(self, n):
        h = tensor([I2] + [SIGMA_A] * (n - 1))
        want = h @ ghz_povm(n).elements @ h
        got = literal_ideal_strategy(n).povm.elements
        assert got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("count", [1, 2, 5, 12])
    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_stacked_draw_is_the_state_by_state_loop(self, seed, count):
        rng, loop_rng = make_rng(seed), make_rng(seed)
        want = np.stack([projector(loop_rng.normal(size=2) + 1j * loop_rng.normal(size=2))
                         for _ in range(count)])
        assert random_projectors(rng, count).tobytes() == want.tobytes()
        assert rng.normal() == loop_rng.normal()  # the same draws were taken

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("seed", [0, 4, 11])
    def test_stacked_variants_are_the_per_sender_loops(self, n, seed):
        base = random_strategy(n, seed)
        rng = make_rng(seed, stream=1)
        antipodal, mixed = [], []
        for st in base.senders:
            rho, mix = st.rho.copy(), st.rho.copy()
            for x in range(2):
                _, v = backends.eigh(rho[0, x])
                rho[0, x] = projector(v[:, -1])
                rho[1, x] = projector(v[:, 0])
            for a in range(2):
                for x in range(2):
                    r = rng.uniform(0.0, 1.0)
                    mix[a, x] = r * mix[a, x] + (1 - r) * I2 / 2
            antipodal.append(rho)
            mixed.append(mix)
        for got, want in ((random_antipodal_strategy(n, seed), antipodal),
                          (random_mixed_strategy(n, seed), mixed)):
            assert [st.rho.tobytes() for st in got.senders] == [r.tobytes() for r in want]
            assert got.povm.elements.tobytes() == base.povm.elements.tobytes()

    def test_a_operators_of_random_are_contractions(self):
        ops = a_operators(random_mixed_strategy(2, 3))
        for j in range(2):
            for x in range(2):
                ev = np.linalg.eigvalsh(ops[j, x])
                assert ev.min() >= -1 - 1e-12 and ev.max() <= 1 + 1e-12


@cache
def povm_elements(n: int, kind: str) -> np.ndarray:
    """Rank-1 projective POVM elements: the GHZ basis (real) or a random
    basis (complex)."""
    if kind == "real":
        return ghz_povm(n).elements
    return random_strategy(n, 5).povm.elements


class TestRng:
    @pytest.mark.parametrize("seed, stream", [
        (1.5, 0), (2.0, 0), (True, 0), (np.float64(1), 0), ("1", 0), (0, -1), (0, 2**64),
        (-1, 0), (2**64, 0), (0, 1.0),
    ])
    def test_non_integer_or_out_of_range_keys_are_refused(self, seed, stream):
        with pytest.raises(InvalidInput):
            make_rng(seed, stream=stream)

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint64(7), np.uint64(2**64 - 1)])
    def test_numpy_integers_are_accepted(self, seed):
        want = make_rng(int(seed), stream=3).integers(2**62, size=4)
        assert np.array_equal(make_rng(seed, stream=np.int64(3)).integers(2**62, size=4), want)


class TestValidation:
    """Stacked validation names the first element with a non-finite entry,
    else the first failing element and its first failing check, whatever the
    chunk size."""

    @pytest.mark.parametrize("n", [2, 7])  # one chunk; eight chunks of 16 elements
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("defect", ["Hermitian", "positive semidefinite"])
    def test_povm_names_the_failing_element(self, n, kind, where, defect):
        el = povm_elements(n, kind).copy()
        d = 2**n
        k = {"first": 0, "middle": d // 2 + 1, "last": d - 1}[where]
        if defect == "Hermitian":
            el[k, 0, 1] += 1e-6
        else:
            el[k] -= 2e-10 * el[(k + 1) % d]
        with pytest.raises(InvalidInput) as exc:
            Povm(el).validate()
        assert str(exc.value) == f"POVM element {k} is not {defect}"

    @pytest.mark.parametrize("n", [2, 7])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_povm_psd_threshold(self, n, kind):
        el = povm_elements(n, kind).copy()
        el[1] -= 0.5e-10 * el[0]  # least eigenvalue -0.5e-10
        Povm(el).validate()
        el[1] -= 1.5e-10 * el[0]  # -2e-10
        with pytest.raises(InvalidInput, match="POVM element 1 is not positive semidefinite"):
            Povm(el).validate()

    @pytest.mark.parametrize("n", [2, 7])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_povm_magnitude_bound(self, n, kind):
        el = povm_elements(n, kind).copy()
        d = el.shape[1]
        bound = 1 + 2 * (d * POVM_ATOL + d * POVM_PSD_ATOL)
        # a diagonal entry at the bound fails only the identity sum
        el[2, 1, 1] = bound
        with pytest.raises(InvalidInput) as exc:
            Povm(el).validate()
        assert str(exc.value) == "POVM elements do not sum to the identity"
        el[2, 1, 1] = np.nextafter(bound, 2)
        with pytest.raises(InvalidInput) as exc:
            Povm(el).validate()
        assert str(exc.value).startswith(f"{TOO_LARGE} element 2 has an entry of magnitude 1 ")
        assert f"at (1, 1) in its Hermitian part, above the {bound:.12g}" in str(exc.value)

    def test_povm_magnitude_is_each_elements_first_check(self):
        el = povm_elements(2, "complex").copy()
        el[1, 0, 1] += 1e-6  # not Hermitian
        el[2, 3, 3] = 1e300
        with pytest.raises(InvalidInput, match="^POVM element 1 is not Hermitian$"):
            Povm(el).validate()
        el[1, 0, 1] -= 1e-6
        el[1, 0, 3] += 5.0  # not Hermitian, and (M + M^dag)/2 gains 2.5 at (0, 3)
        with pytest.raises(InvalidInput, match=f"^{TOO_LARGE} element 1 has an entry"):
            Povm(el).validate()
        # an anti-Hermitian pair leaves (M + M^dag)/2 alone: the gate names it
        el = povm_elements(2, "real").copy()
        el[0, 0, 1], el[0, 1, 0] = 1e308, -1e308
        with pytest.raises(InvalidInput, match="^POVM element 0 is not Hermitian$"):
            Povm(el).validate()

    def test_povm_reports_the_earlier_element_and_its_first_check(self):
        el = povm_elements(2, "complex").copy()
        el[2] -= 2e-10 * el[0]
        el[3, 0, 1] += 1e-6
        with pytest.raises(InvalidInput, match="element 2 is not positive"):
            Povm(el).validate()
        el = povm_elements(2, "real").copy()
        el[1, 0, 1] += 1.0  # neither Hermitian nor positive semidefinite
        with pytest.raises(InvalidInput, match="element 1 is not Hermitian"):
            Povm(el).validate()

    @pytest.mark.parametrize("n", [2, 7])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0, np.nan)])
    def test_povm_rejects_non_finite_entries(self, n, kind, entry):
        el = povm_elements(n, kind).copy()
        el[1, 2, 2] = entry
        el[3, 0, 1] += 1e-6  # a later defect never masks the earlier one
        with pytest.raises(InvalidInput) as exc:
            Povm(el).validate()
        assert str(exc.value) == "POVM element 1 has a non-finite entry"

    @pytest.mark.parametrize("n", [2, 7])
    @pytest.mark.parametrize("one_per_chunk", [False, True])
    def test_povm_names_a_non_finite_entry_first_at_any_chunk_size(
            self, monkeypatch, n, one_per_chunk):
        # as for sender states: a non-finite entry anywhere is named before an
        # earlier element's other defect, however the elements are chunked
        el = povm_elements(n, "complex").copy()
        el[0, 0, 1] += 1e-6
        el[3, 2, 2] = np.nan
        if one_per_chunk:
            monkeypatch.setattr(linalg, "BLOCK_ENTRIES", 4**n)
        with pytest.raises(InvalidInput) as exc:
            Povm(el).validate()
        assert str(exc.value) == "POVM element 3 has a non-finite entry"

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("entry", [np.nan, -np.inf])
    @pytest.mark.parametrize("k, where", [(0, (1, 1)), (2, (0, 1))])
    def test_sender_states_reject_non_finite_entries(self, kind, entry, k, where):
        if kind == "real":
            rho = ideal_sender_states(2, 2).rho.copy()
        else:
            rho = random_strategy(2, 5).senders[1].rho.copy()
        a, x = divmod(k, 2)
        rho[(a, x) + where] = entry
        with pytest.raises(InvalidInput) as exc:
            SenderStates(rho).validate()
        assert str(exc.value) == f"state ({a}|{x}) has a non-finite entry"

    @pytest.mark.parametrize("k", range(4))
    @pytest.mark.parametrize("defect", ["Hermitian", "trace", "positive semidefinite"])
    def test_sender_states_name_the_failing_state(self, k, defect):
        rho = ideal_sender_states(2, 2).rho.copy()
        a, x = divmod(k, 2)
        if defect == "Hermitian":
            rho[a, x, 0, 1] += 1e-6j
            want = f"state ({a}|{x}) is not Hermitian"
        elif defect == "trace":
            rho[a, x] = np.diag([1.0, 0.5])
            want = f"state ({a}|{x}) has trace 1.5"
        else:
            rho[a, x] = np.diag([1.0 + 1e-9, -1e-9])
            want = f"state ({a}|{x}) is not positive semidefinite"
        if k < 3:
            rho[1, 1, 1, 0] += 1e-6  # a later defect never masks an earlier one
        with pytest.raises(InvalidInput) as exc:
            SenderStates(rho).validate()
        assert str(exc.value) == want


# the message of an element whose (m + m^dag)/2 has an entry above the bound
TOO_LARGE = "POVM elements do not sum to the identity as positive semidefinite operators:"


def eigvalsh_rule(povm: Povm):
    """``Povm.validate``'s message without the Cholesky screen, or None for a
    valid POVM: every chunk decided by ``eigvalsh``, the rule as it was, after
    the magnitude check on the entries of ``(m + m^dag)/2``."""
    bad = ~np.isfinite(povm.elements).all(axis=(-2, -1))
    if bad.any():
        return f"POVM element {int(bad.argmax())} has a non-finite entry"
    bound = 1 + 2 * (povm.dim * POVM_ATOL + len(povm) * POVM_PSD_ATOL)
    for part in chunks(len(povm), povm.dim**2):
        m = backends.real_if_real(povm.elements[part])
        herm = np.abs((m + dagger(m)) / 2)
        failed = np.array([
            herm.max(axis=(1, 2)) > bound,
            np.abs(m - dagger(m)).max(axis=(1, 2)) > POVM_ATOL,
            backends.eigvalsh((m + dagger(m)) / 2)[:, 0] < -POVM_PSD_ATOL,
        ])
        if failed.any():
            k = int(failed.any(axis=0).argmax())
            check = int(failed[:, k].argmax())
            if check == 0:
                i, j = np.unravel_index(herm[k].argmax(), herm[k].shape)
                return (f"{TOO_LARGE} element {part.start + k} has an entry of magnitude "
                        f"{herm[k, i, j]:.6g} at ({i}, {j}) in its Hermitian part, above the "
                        f"{bound:.12g} that bounds every entry of such elements")
            reason = ("Hermitian", "positive semidefinite")[check - 1]
            return f"POVM element {part.start + k} is not {reason}"
    if np.abs(povm.elements.sum(axis=0) - np.eye(povm.dim)).max() > POVM_ATOL:
        return "POVM elements do not sum to the identity"
    return None


def validate_message(povm: Povm):
    try:
        povm.validate()
    except InvalidInput as exc:
        return str(exc)
    return None


class TestCholeskyScreen:
    """The Cholesky screen clears valid POVMs without an eigensolve and
    leaves every verdict and message to the eigenvalue rule."""

    @pytest.mark.parametrize("n", [2, 7])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("least", [-0.4, -0.5, -0.6, -1.0, -2.0])  # x 1e-10
    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_verdicts_match_the_eigenvalue_rule(self, n, kind, least, scale):
        el = povm_elements(n, kind).copy()
        # element 1 gains the eigenvalue `least` along element 0's vector and,
        # for scale 1e6, entries of order 1e6 along element 2's
        el[1] += least * 1e-10 * el[0] + (scale - 1) * el[2]
        povm = Povm(el)
        want = eigvalsh_rule(povm)
        assert validate_message(povm) == want
        if scale == 1.0 and least >= -0.6:
            assert want is None
        if scale == 1.0 and least <= -2.0:
            assert want == "POVM element 1 is not positive semidefinite"
        if scale > 1.0:
            # entries of order 1e6: no element of a POVM holds them
            assert want.startswith(f"{TOO_LARGE} element 1 has an entry of magnitude")

    @pytest.mark.parametrize("n", [2, 7])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("earlier_psd_defect", [False, True])
    def test_a_non_hermitian_chunk_is_decided_by_the_eigenvalue_rule(
            self, n, kind, earlier_psd_defect):
        el = povm_elements(n, kind).copy()
        # an anti-Hermitian defect leaves (m + m^dag)/2, and the screen's
        # verdict on it, unchanged
        el[2, 0, 1] += 1e-6
        el[2, 1, 0] -= 1e-6
        if earlier_psd_defect:
            el[1] -= 2e-10 * el[0]
        povm = Povm(el)
        want = eigvalsh_rule(povm)
        assert validate_message(povm) == want
        assert want == f"POVM element {1 if earlier_psd_defect else 2} is not " + (
            "positive semidefinite" if earlier_psd_defect else "Hermitian")

    @pytest.mark.parametrize("povm", [ideal_strategy(7).povm, random_strategy(6, 5).povm],
                             ids=["ideal7", "random6"])
    def test_valid_povm_runs_no_eigensolve(self, monkeypatch, povm):
        def no_solve(m):
            raise AssertionError("eigensolve called")

        monkeypatch.setattr(backends, "eigvalsh", no_solve)
        povm.validate()

    def test_ideal_elements_are_contiguous_matrices(self):
        assert ghz_povm(7).elements.flags["C_CONTIGUOUS"]


def random_basis_povm(n: int, seed: int, real: bool) -> np.ndarray:
    """Projectors onto the columns of a random orthonormal basis of C^(2**n),
    or of R^(2**n) when ``real``."""
    rng = np.random.default_rng(seed)
    d = 2**n
    g = rng.normal(size=(d, d)) if real else rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(g)
    return projector(q.T.copy())


def refuse(*args, **kwargs):
    raise AssertionError("called")


PATH_POVMS = {
    "ideal7": lambda: ideal_strategy(7).povm,
    "ideal7-dense": lambda: Povm(ideal_strategy(7).povm.elements),
    "computational7": lambda: computational_strategy(7).povm,
    "random6": lambda: random_strategy(6, 5).povm,
    "literal5": lambda: literal_ideal_strategy(5).povm,
}


class TestRankOneScreen:
    """The rank-1 screen clears projective POVMs without the Hermiticity gate,
    a Cholesky factorization or an eigensolve, and leaves every verdict and
    message to the rules after it."""

    @given(n=st.sampled_from([2, 3, 4]), real=st.booleans(), seed=st.integers(0, 2**32 - 1),
           defect=st.sampled_from(["none", "negative rank-1", "anti-Hermitian pair",
                                   "mixed with I/d", "zeroed", "scaled by 1e6"]),
           exponent=st.floats(-12, -8), k=st.integers(0, 15))
    def test_verdicts_match_the_eigenvalue_rule(self, n, real, seed, defect, exponent, k):
        el = random_basis_povm(n, seed, real)
        d, size = len(el), 10.0**exponent
        k %= d
        if defect == "negative rank-1":
            el[k] -= size * el[(k + 1) % d]  # least eigenvalue -size
        elif defect == "anti-Hermitian pair":
            el[k, 0, 1] += size
            el[k, 1, 0] -= size
        elif defect == "mixed with I/d":
            el = (1 - size) * el + size * np.eye(d) / d
        elif defect == "zeroed":
            el[k] = 0
        elif defect == "scaled by 1e6":
            el[k] *= 1e6
        povm = Povm(el)
        assert validate_message(povm) == eigvalsh_rule(povm)

    @pytest.mark.parametrize("name", PATH_POVMS)
    def test_projective_povm_skips_the_gate_cholesky_and_eigensolve(self, monkeypatch, name):
        povm = PATH_POVMS[name]()
        for owner, attr in ((np.linalg, "cholesky"), (states, "_cholesky_clears"),
                            (backends, "eigvalsh"), (states, "dagger")):
            monkeypatch.setattr(owner, attr, refuse)
        povm.validate()

    def test_depolarized_povm_clears_by_cholesky_without_an_eigensolve(self, monkeypatch):
        povm = depolarized_strategy(7, 0.05).povm
        results = {"_rank_one_clears": [], "_cholesky_clears": []}
        for attr, got in results.items():
            screen = getattr(states, attr)
            monkeypatch.setattr(states, attr, lambda m, s=screen, g=got: g.append(s(m)) or g[-1])
        monkeypatch.setattr(backends, "eigvalsh", refuse)
        povm.validate()
        count = len(list(chunks(len(povm), povm.dim**2)))
        assert results == {"_rank_one_clears": [False] * count,
                           "_cholesky_clears": [True] * count}

    @pytest.mark.parametrize("entries", [
        [(0, 0, 0, 1e308)],
        [(0, 0, 1, 1e308), (0, 1, 0, -1e308)],
        [(2, 0, 0, 1e308), (3, 0, 0, 1e308)],
        [(0, 1, 1, 1e308)],
    ])
    def test_huge_entries_are_refused_without_a_warning(self, entries):
        # the POVM entries of the CLI's huge-entry files: a NumPy overflow
        # warning fails the test
        el = ideal_strategy(2).povm.elements.copy()
        for k, i, j, value in entries:
            el[k, i, j] = value
        assert not states._rank_one_clears(backends.real_if_real(el))


def computational_scatter(n: int) -> np.ndarray:
    """The computational measurement's elements scattered into a zero stack."""
    d = 2**n
    bits = outcome_table(n)
    a, b = ghz_kets(bits)
    idx = basis_index(np.where(bits[:, :1], b, a))
    els = np.zeros((d, d, d), dtype=complex)
    els[np.arange(d), idx, idx] = 1.0
    return els


def ghz_rows(n: int) -> np.ndarray:
    return linalg.normalized(ghz_basis(n).T.copy())


class TestBasisForm:
    """A POVM held as its basis builds the dense stack byte for byte, and its
    validation gives the dense form's verdict and message."""

    @pytest.mark.parametrize("n", range(2, 8))
    @pytest.mark.parametrize("name", ["ideal", "computational"])
    def test_elements_are_the_dense_constructions(self, name, n):
        if name == "ideal":
            got, want = ideal_strategy(n).povm.elements, projector(ghz_basis(n).T.copy())
        else:
            got, want = computational_strategy(n).povm.elements, computational_scatter(n)
        assert (got.dtype, got.shape, got.strides) == (want.dtype, want.shape, want.strides)
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable

    @pytest.mark.parametrize("n", [2, 7])
    @pytest.mark.parametrize("defect, message", [
        ("NaN entry", "POVM element 1 has a non-finite entry"),
        ("row scaled by 1 + 1e-6", "POVM elements do not sum to the identity"),
        ("two equal rows", "POVM elements do not sum to the identity"),
    ])
    def test_a_corrupted_basis_gets_the_dense_message(self, n, defect, message):
        rows = ghz_rows(n)
        if defect == "NaN entry":
            rows[1, 0] = np.nan
        elif defect == "row scaled by 1 + 1e-6":
            rows[2] *= 1 + 1e-6
        else:
            rows[3] = rows[2]
        povm = Povm.from_basis(rows)
        got = validate_message(povm)  # before the stack is built
        assert got == validate_message(Povm(povm.elements.copy())) == message

    @pytest.mark.parametrize("n", [2, 7])
    @pytest.mark.parametrize("excess", [-1e-12, -5e-14, 0.0, 5e-14, 1e-12])
    def test_verdicts_at_the_sum_bound_are_the_dense_rules(self, n, excess):
        # row 0 scaled by sqrt(1 + x) moves entries of the sum by x/2 = POVM_ATOL + excess;
        # within the screen's rounding allowance the dense rules decide
        rows = ghz_rows(n)
        rows[0] *= np.sqrt(1 + 2 * (POVM_ATOL + excess))
        povm = Povm.from_basis(rows)
        assert validate_message(povm) == validate_message(Povm(outer(rows)))

    def test_rows_are_copied_and_must_be_square(self):
        rows = ghz_rows(2)
        povm = Povm.from_basis(rows)
        rows[0] = 0
        povm.validate()
        with pytest.raises(InvalidInput, match=r"square \(d, d\) stack of rows, got \(2, 4\)"):
            Povm.from_basis(np.eye(4)[:2])
