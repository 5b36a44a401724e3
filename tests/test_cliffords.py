import hashlib
import itertools

import numpy as np
import pytest

from rbsim import cliffords
from rbsim.cliffords import (
    MAX_SAMPLED_QUBITS,
    CliffordElement,
    GeneratorGate,
    clifford_to_matrix,
    compose,
    conjugate_pauli,
    inverse,
    parse_circuit,
    random_clifford,
    random_clifford_rows,
    stabilizer_group,
    symplectic_rows,
)
from rbsim.paulis import PauliString, packed_phase_exponent, pauli_multiply
from rbsim.seeding import seed_plans, stream_words

from conftest import (
    _phase_exponents,
    circuit_unitary,
    clifford_group_order,
    equal_up_to_global_phase,
    gate_unitary,
    pauli_bits,
    pauli_from_bits,
    pauli_matrix,
    seed_with_word,
    stream_seeds,
    symplectic_group_order,
)


def elem(n, text):
    return CliffordElement.from_gates(n, parse_circuit(text))


# register sizes for the packed core, beyond the dense oracle's n <= 6
PACKED_SIZES = (1, 2, 3, 5, 8)


def random_pauli(n, rng):
    bits = rng.integers(0, 2, size=2 * n)
    return pauli_from_bits(bits[:n], bits[n:], int(rng.integers(0, 4)))


def random_gate_word(n, length, rng):
    names = ["H", "P", "PDAG", "X"] + (["CNOT"] if n > 1 else [])
    word = []
    for _ in range(length):
        name = names[int(rng.integers(0, len(names)))]
        qubits = rng.choice(n, size=2 if name == "CNOT" else 1, replace=False)
        word.append(GeneratorGate(name, tuple(qubits)))
    return word


ALL_GATE_CASES = [
    ("H", (0,), 1), ("P", (0,), 1), ("PDAG", (0,), 1), ("X", (0,), 1),
    ("H", (1,), 2), ("P", (1,), 2), ("CNOT", (0, 1), 2), ("CNOT", (1, 0), 2),
    ("CNOT", (2, 0), 3), ("PDAG", (1,), 3),
]


@pytest.mark.parametrize("name,qubits,n", ALL_GATE_CASES)
def test_gate_conjugation_matches_dense_oracle(name, qubits, n):
    gate = GeneratorGate(name, qubits)
    c = CliffordElement.from_gates(n, [gate])
    u = gate_unitary(name, qubits, n)
    for bits in itertools.product([0, 1], repeat=2 * n):
        s = pauli_from_bits(bits[:n], bits[n:])
        expected = u @ s.to_matrix() @ u.conj().T
        assert np.allclose(conjugate_pauli(c, s).to_matrix(), expected, atol=1e-12)


def test_conjugate_pauli_examples():
    h0 = elem(1, "H 0")
    assert conjugate_pauli(h0, PauliString.from_label("Z")) == PauliString.from_label("X")
    cnot = elem(2, "CNOT 0 1")
    assert conjugate_pauli(cnot, PauliString.from_label("XI")) == PauliString.from_label("XX")
    ident = CliffordElement.identity(2)
    for label in ("XI", "-iYZ", "+ZZ"):
        s = PauliString.from_label(label)
        assert conjugate_pauli(ident, s) == s


def test_conjugation_preserves_phase_linearity(rng):
    c = random_clifford(2, rng)
    s = PauliString.from_label("XZ")
    base = conjugate_pauli(c, s)
    for extra in range(4):
        shifted = conjugate_pauli(c, PauliString(s.n, s.bits, s.phase + extra))
        assert shifted == PauliString(base.n, base.bits, base.phase + extra)


def test_dimension_mismatch_raises(rng):
    with pytest.raises(ValueError):
        conjugate_pauli(random_clifford(2, rng), PauliString.from_label("X"))


def test_inverse_of_hadamard_is_hadamard():
    h0 = elem(1, "H 0")
    assert inverse(h0) == h0


def test_p_squared_is_z_conjugation():
    pp = compose(elem(1, "P 0"), elem(1, "P 0"))
    u = clifford_to_matrix(pp)
    assert equal_up_to_global_phase(u, pauli_matrix("Z"))


def test_compose_inverse_identity(rng):
    # equality compares every packed row and phase
    for _ in range(100):
        n = PACKED_SIZES[int(rng.integers(0, len(PACKED_SIZES)))]
        c = random_clifford(n, rng)
        assert compose(c, inverse(c)) == CliffordElement.identity(n)
        assert compose(inverse(c), c) == CliffordElement.identity(n)


def test_compose_order_matches_unitaries(rng):
    for _ in range(20):
        c1, c2 = random_clifford(2, rng), random_clifford(2, rng)
        u = clifford_to_matrix(compose(c1, c2))
        assert equal_up_to_global_phase(u, clifford_to_matrix(c2) @ clifford_to_matrix(c1))


def test_gate_touches_only_its_columns(rng):
    # O(n) bit updates per gate: columns away from the gate's qubits unchanged
    n = 5
    c = random_clifford(n, rng)
    for gate in (GeneratorGate("H", (2,)), GeneratorGate("CNOT", (1, 3))):
        c2 = compose(c, CliffordElement.from_gates(n, [gate]))
        untouched = [q for q in range(n) if q not in gate.qubits]
        mask = sum((1 << q) | (1 << (n + q)) for q in untouched)
        assert c2 != c
        assert [v & mask for v in c2.rows] == [v & mask for v in c.rows]


class TestPackedCore:
    @pytest.mark.parametrize("n", PACKED_SIZES)
    def test_operations_keep_elements_valid(self, n, rng):
        for _ in range(10):
            a = CliffordElement.from_gates(n, random_gate_word(n, 4 * n, rng))
            b = random_clifford(n, rng)
            for c in (a, b, compose(a, b), inverse(a), inverse(b)):
                assert c.is_valid()

    @pytest.mark.parametrize("n", PACKED_SIZES)
    def test_conjugation_is_a_homomorphism(self, n, rng):
        # both sides use the packed phase rule, checked per qubit below
        for _ in range(20):
            a, b = random_clifford(n, rng), random_clifford(n, rng)
            s, t = random_pauli(n, rng), random_pauli(n, rng)
            assert conjugate_pauli(a, pauli_multiply(s, t)) == pauli_multiply(
                conjugate_pauli(a, s), conjugate_pauli(a, t))
            assert conjugate_pauli(compose(a, b), s) == conjugate_pauli(b, conjugate_pauli(a, s))

    @pytest.mark.parametrize("n", PACKED_SIZES)
    def test_packed_phase_rule_matches_per_qubit_rule(self, n, rng):
        for _ in range(300):
            s, t = random_pauli(n, rng), random_pauli(n, rng)
            expected = int(np.sum(_phase_exponents(*pauli_bits(s), *pauli_bits(t)))) % 4
            assert packed_phase_exponent(s.bits, t.bits, n) == expected

    @pytest.mark.parametrize("n", PACKED_SIZES)
    def test_packed_round_trip_and_bit_views(self, n, rng):
        # the packed value is the only form: images are the rows themselves
        s = random_pauli(n, rng)
        assert PauliString(n, s.bits, s.phase) == s
        x, z = pauli_bits(s)
        assert pauli_from_bits(x, z, s.phase) == s
        c = random_clifford(n, rng)
        for r in range(2 * n):
            img = c.image_of_x(r) if r < n else c.image_of_z(r - n)
            assert (img.n, img.bits, img.phase) == (n, c.rows[r], c.phases[r])
        assert not hasattr(c, "x_bits") and not hasattr(c, "z_bits")
        with pytest.raises(AttributeError):
            c.rows = CliffordElement.identity(n).rows

    def test_invalid_tableaux_detected(self):
        n = 3
        rows = list(CliffordElement.identity(n).rows)
        assert CliffordElement(n, rows, [0] * 6).is_valid()
        assert not CliffordElement(n, rows, [0, 1, 0, 0, 0, 0]).is_valid()
        swapped = [rows[n]] + rows[1:n] + [rows[0]] + rows[n + 1:]  # X_0 <-> Z_0 images
        assert CliffordElement(n, swapped, [0] * 6).is_valid()
        same = list(rows)
        same[0] = same[n] = rows[0] | rows[n]  # X_0 and Z_0 both map to Y_0: they commute
        assert not CliffordElement(n, same, [0] * 6).is_valid()
        with pytest.raises(ValueError):
            CliffordElement(n, rows[:-1], [0] * 5)
        with pytest.raises(ValueError):
            CliffordElement(n, rows[:-1] + [1 << (2 * n)], [0] * 6)


def element_keys(n, rng, size):
    """Rows and phases of ``size`` elements drawn as one batch from a stream
    seeded by ``rng``, one row each."""
    rows, phases = random_clifford_rows(n, stream_seeds(rng), size)
    return np.concatenate([rows[:, 0], phases[:, 0]], axis=1)


def scalar_level_draws(n, words):
    """One element's level draws and signs from its 2n + 1 words, read one
    chunk at a time with Python ints."""
    draws = []
    for k in range(n):
        chunk = 2 * (n - k)
        chunks = [(words[2 * k] >> (chunk * j)) % (1 << chunk) for j in range(64 // chunk)]
        draws += [next(c for c in chunks if c), words[2 * k + 1] % (1 << (chunk - 1))]
    return draws, [(words[2 * n] >> r) & 1 for r in range(2 * n)]


class TestRandomClifford:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_single_draw_is_row_zero_of_the_batch(self, n):
        streams = range(6)
        # random_clifford seeds its stream with one 64-bit draw from its Generator
        seeds = [stream_seeds(np.random.default_rng(s))[0] for s in streams]
        rows, phases = random_clifford_rows(n, seeds, 1)
        for s in streams:
            c = random_clifford(n, np.random.default_rng(s))
            assert (c.rows, c.phases) == (tuple(rows[0, s]), tuple(phases[0, s]))
        # a stream's elements do not depend on the other streams of the batch
        rows, phases = random_clifford_rows(n, seeds, 7)
        for s in streams:
            alone = random_clifford_rows(n, seeds[s:s + 1], 7)
            assert np.array_equal(alone[0][:, 0], rows[:, s])
            assert np.array_equal(alone[1][:, 0], phases[:, s])
        assert len({tuple(r) for r in rows.reshape(-1, 2 * n)}) > 1

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_stream_draws_follow_the_documented_order(self, n):
        # element i reads words i(2n+1) .. (i+1)(2n+1) - 1 of its stream: per
        # level k the first nonzero 2(n-k)-bit chunk of one word and the low
        # 2(n-k) - 1 bits of the next, then the signs from the low 2n bits
        m, seed = 5, 3
        rows, phases = random_clifford_rows(n, [seed], m)
        words = stream_words([seed], 0, m * (2 * n + 1))[0].tolist()
        per_element = [scalar_level_draws(n, words[i * (2 * n + 1):(i + 1) * (2 * n + 1)])
                       for i in range(m)]
        draws = [np.array(level) for level in zip(*[d for d, _ in per_element])]
        signs = np.array([s for _, s in per_element])
        assert np.array_equal(phases[:, 0], 2 * signs)
        assert np.array_equal(rows[:, 0], symplectic_rows(n, draws))

    @pytest.mark.parametrize("w", [1, 2, 3, 4])
    def test_level_draw_is_exactly_uniform(self, w):
        # every word whose two low 2w-bit chunks take all values and whose
        # other bits are zero, but for the all-zero word, which is refilled:
        # each f in [1, 4^w) comes from 4^w words with it in the low chunk
        # and from one with a zero low chunk
        n, size = 4, 1 << (2 * w)
        k = n - w
        low, high = np.divmod(np.arange(1, size * size, dtype=np.uint64), np.uint64(size))
        words = np.ones((len(low), 2 * n + 1), dtype=np.uint64)
        words[:, 2 * k] = low | (high << np.uint64(2 * w))
        words[:, 2 * k + 1] = np.arange(len(low), dtype=np.uint64)
        draws, _ = cliffords._level_draws(n, words)
        values, counts = np.unique(draws[2 * k], return_counts=True)
        assert values.tolist() == list(range(1, size))
        assert np.all(counts == size + 1)
        # the second draw keeps the low 2w - 1 bits
        assert np.array_equal(draws[2 * k + 1], np.arange(len(low)) % (size // 2))

    @pytest.mark.parametrize("n, value, index, refilled", [
        (2, 0, 5, True),             # element 1, level 0 word: all chunks zero
        (2, 0, 7, True),             # element 1, level 1 word
        (2, 0, 6, False),            # a second draw: zero is a valid value
        (3, 1 << 62, 0, True),       # 6-bit chunks cover bits 0..59 only
        (3, 1 << 59, 0, False),      # chunk 9 is the first nonzero one
    ])
    def test_rejected_level_word_is_refilled_past_the_budget(self, n, value, index, refilled):
        size = 3
        budget = size * (2 * n + 1)
        seed = seed_with_word(value, index)
        words = stream_words([seed], 0, budget + 1)[0]
        assert words[index] == value
        if refilled:
            words[index] = words[budget]
        draws, signs = cliffords._level_draws(n, words[:budget].reshape(size, 2 * n + 1))
        rows, phases = random_clifford_rows(n, [seed], size)
        assert np.array_equal(rows[:, 0], symplectic_rows(n, draws))
        assert np.array_equal(phases[:, 0], 2 * signs)
        assert all(CliffordElement(n, r, p).is_valid() for r, p in zip(rows[:, 0], phases[:, 0]))
        # the refill comes from the unit's own stream, whatever its batch
        batch = random_clifford_rows(n, [7, seed, 8], size)
        assert np.array_equal(batch[0][:, 1], rows[:, 0])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tail_table_is_the_symplectic_group_of_the_last_two_qubits(self, n):
        # the last two levels alone, from the identity, reach each element
        # of Sp(4, 2) (Sp(2, 2) at n = 1) exactly once and leave the other
        # qubits alone; checked on the table, not on the level code
        table = cliffords._tail_table(n)
        tail = min(n, 2)
        assert table.shape == (symplectic_group_order(tail), 2 * n)
        assert len(np.unique(table, axis=0)) == len(table)
        assert all(CliffordElement(n, rows, [0] * (2 * n)).is_valid() for rows in table)
        for r in [*range(n - tail), *range(n, 2 * n - tail)]:
            assert np.all(table[:, r] == 1 << r)

    # sha256 of the little-endian int64 rows then phases of
    # random_clifford_rows(n, seed_plans(7, range(200)), 50), recorded from the
    # sampler before its last two levels became a table lookup
    PINNED_STREAM_DIGESTS = {
        1: "17aad65e16c7d4cb6dc1bfd89903ecc93978ec1c9f3e22dba11afd204d9b314a",
        2: "129a1379855f6a6e341f2ecd8ad45a029c6a85f995ded959b3fd90cf8b7e03a8",
        3: "7baa4b5627ffaf31ee28a852277e228b3092f3e9a5b4bc651770161aa537758d",
        4: "561f116ef20fedfd3869b09bd2dd231e1e58cea005d616513694b219a0a48504",
        5: "e9cb17cb76209365da4392a4f0f9da80e5a6a840358c65324f30a6e54852229b",
        6: "1b6abf483a086007eee13d42b9d5858f40367b282d535cc4df0c5b09d877c1d2",
        31: "f4e9c1e180212a6fe29cc6182124e017230dd146877015e3693a0a184bd49a6e",
    }

    @pytest.mark.parametrize("n", sorted(PINNED_STREAM_DIGESTS))
    def test_sampler_stream_is_pinned(self, n):
        # every element, and so every CSV of a fixed master seed, stays
        # byte-identical across changes to how the sampler computes its rows
        rows, phases = random_clifford_rows(n, seed_plans(7, range(200)), 50)
        digest = hashlib.sha256()
        for a in (rows, phases):
            digest.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
        assert digest.hexdigest() == self.PINNED_STREAM_DIGESTS[n]

    def test_sampler_register_limit(self):
        with pytest.raises(ValueError):
            random_clifford_rows(0, [1], 1)
        with pytest.raises(ValueError):
            random_clifford_rows(MAX_SAMPLED_QUBITS + 1, [1], 1)
        rows, _ = random_clifford_rows(MAX_SAMPLED_QUBITS, [1, 2], 1)
        n = MAX_SAMPLED_QUBITS
        assert CliffordElement(n, rows[0, 0], [0] * (2 * n)).is_valid()

    def test_single_qubit_uniformity_chi_square(self):
        rng = np.random.default_rng(991)
        n_samples = 24_000
        counts = np.unique(element_keys(1, rng, n_samples), axis=0, return_counts=True)[1]
        assert len(counts) == 24 == clifford_group_order(1)
        expected = n_samples / 24
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        # chi-square critical value for df=23 at alpha=0.01
        assert chi2 < 41.638

    def test_two_qubit_samples_are_valid(self, rng):
        for _ in range(200):
            assert random_clifford(2, rng).is_valid()

    def test_two_qubit_coverage_approaches_group_order(self):
        rng = np.random.default_rng(7)
        seen = np.unique(element_keys(2, rng, 60_000), axis=0)
        order = clifford_group_order(2)
        assert order == 11520
        # coupon-collector expectation at 60k draws leaves < ~70 unseen
        assert len(seen) > 0.98 * order

    def test_group_order_by_generator_closure(self):
        gens = [CliffordElement.from_gates(2, [GeneratorGate(nm, qs)])
                for nm, qs in [("H", (0,)), ("H", (1,)), ("P", (0,)), ("P", (1,)),
                               ("CNOT", (0, 1)), ("CNOT", (1, 0))]]
        seen = {CliffordElement.identity(2).key()}
        frontier = [CliffordElement.identity(2)]
        while frontier:
            nxt = []
            for e in frontier:
                for g in gens:
                    c = compose(e, g)
                    if c.key() not in seen:
                        seen.add(c.key())
                        nxt.append(c)
            frontier = nxt
        assert len(seen) == 11520
        assert symplectic_group_order(2) == 720


class TestStabilizerGroup:
    def test_identity_group_matches_zero_state(self):
        group = {s.label() for s in stabilizer_group(CliffordElement.identity(2))}
        assert group == {"+II", "+IZ", "+ZI", "+ZZ"}

    def test_hadamard_group(self):
        group = {s.label() for s in stabilizer_group(elem(2, "H 0"))}
        assert group == {"+II", "+XI", "+IZ", "+XZ"}

    def test_generator_circuit_group(self):
        # H then P then P then H on one qubit of two, final group from the
        # tableau equals the dense-eigenspace result below
        group = {s.label() for s in stabilizer_group(elem(2, "H 1"))}
        assert group == {"+II", "+ZI", "+IX", "+ZX"}

    def test_bell_state_group(self):
        group = {s.label() for s in stabilizer_group(elem(2, "H 0\nCNOT 0 1"))}
        assert group == {"+II", "+XX", "+ZZ", "-YY"}

    def test_group_closure_and_stabilization(self, rng):
        for n in (1, 2, 3):
            c = random_clifford(n, rng)
            group = stabilizer_group(c)
            assert len(group) == 2 ** n
            keys = set(group)
            assert len(keys) == 2 ** n
            assert PauliString.identity(n) in keys
            for a in group[:4]:
                for b in group[:4]:
                    assert pauli_multiply(a, b) in keys
            # every element stabilizes C|0...0> with eigenvalue +1
            psi = clifford_to_matrix(c)[:, 0]
            for s in group:
                assert np.allclose(s.to_matrix() @ psi, psi, atol=1e-12)


class TestDenseOracle:
    def test_identity_matrix(self):
        assert np.allclose(clifford_to_matrix(CliffordElement.identity(2)), np.eye(4))

    def test_hadamard_matrix(self):
        u = clifford_to_matrix(elem(1, "H 0"))
        assert equal_up_to_global_phase(u, gate_unitary("H", (0,), 1))

    def test_circuit_matches_dense_oracle(self, rng):
        gates = parse_circuit("H 0\nCNOT 0 1\nP 1\nX 0\nCNOT 1 0\nPDAG 0")
        u = clifford_to_matrix(CliffordElement.from_gates(2, gates))
        assert equal_up_to_global_phase(u, circuit_unitary(gates, 2))

    def test_random_element_self_consistency(self, rng):
        c = random_clifford(2, rng)
        u = clifford_to_matrix(c)
        assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-10)
        for bits in itertools.product([0, 1], repeat=4):
            if not any(bits):
                continue
            s = pauli_from_bits(bits[:2], bits[2:])
            expected = u @ s.to_matrix() @ u.conj().T
            assert np.allclose(conjugate_pauli(c, s).to_matrix(), expected, atol=1e-10)

    def test_too_many_qubits_rejected(self):
        with pytest.raises(ValueError):
            clifford_to_matrix(CliffordElement.identity(7))


class TestCircuitFormat:
    def test_parse_gates_and_comments(self):
        gates = parse_circuit("# header\nH 0\nP 1 # inline\nPDAG 0\nCNOT 0 1\nX 1\n\n")
        assert [g.name for g in gates] == ["H", "P", "PDAG", "CNOT", "X"]
        assert gates[3].qubits == (0, 1)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_circuit("H 0\nFOO 1")
        with pytest.raises(ValueError):
            parse_circuit("CNOT 1 1")
        with pytest.raises(ValueError):
            parse_circuit("H zero")


def test_generator_gate_validation():
    with pytest.raises(ValueError):
        GeneratorGate("H", (0, 1))
    with pytest.raises(ValueError):
        GeneratorGate("CNOT", (2, 2))
    with pytest.raises(ValueError):
        GeneratorGate("P", (-1,))


def test_gate_words_preserve_tableau_validity(rng):
    from rbsim.rb import generator_gate_set

    gates = generator_gate_set(3)
    c = random_clifford(3, rng)
    for _ in range(60):
        c = compose(c, CliffordElement.from_gates(3, [gates[int(rng.integers(0, len(gates)))]]))
        assert c.is_valid()


def test_elements_in_a_set_survive_operations(rng):
    # values are frozen: compose and inverse return new elements and leave
    # their arguments, and so their hashes, untouched
    n = 3
    elems = [random_clifford(n, rng) for _ in range(20)]
    seen = set(elems)
    for a, b in zip(elems, elems[1:]):
        compose(a, b)
        inverse(a)
        CliffordElement.from_gates(n, [GeneratorGate("H", (0,))])
    assert all(e in seen for e in elems)
    assert all(CliffordElement(n, e.rows, e.phases) in seen for e in elems)
