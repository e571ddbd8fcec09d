"""Core string operations and position masks: examples and randomized properties."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from centerstring import (
    BINARY,
    DNA,
    Alphabet,
    Seq,
    StringInstance,
    SubstringInstance,
    agreement_positions,
    cost_string,
    cost_substring,
    hamming,
    rho0_diagnostic,
)
from centerstring.errors import (
    AlphabetMismatch,
    DomainError,
    EmptyInput,
    LengthMismatch,
    WindowTooLong,
)


def seq(text, alphabet=DNA):
    return Seq.from_text(alphabet, text)


def bseq(text):
    return Seq.from_text(BINARY, text)


class TestAlphabet:
    def test_index_round_trip(self):
        a = Alphabet.of("ACGT")
        for i, s in enumerate(a.symbols):
            assert a.index(s) == i

    def test_rejects_single_symbol(self):
        with pytest.raises(DomainError):
            Alphabet.of("A")

    def test_rejects_duplicates(self):
        with pytest.raises(DomainError):
            Alphabet.of("AAB")

    def test_unknown_symbol_is_hard_error(self):
        with pytest.raises(AlphabetMismatch):
            Seq.from_text(BINARY, "012")

    def test_one_byte_per_symbol_limits_size_to_256(self):
        symbols = [chr(0x100 + i) for i in range(257)]
        widest = Alphabet.of(symbols[:256])
        assert Seq(widest, (255, 0)).text == symbols[255] + symbols[0]
        with pytest.raises(DomainError):
            Alphabet.of(symbols)


class TestSeqInput:
    @pytest.mark.parametrize(
        "dtype", [np.int8, np.uint8, np.int16, np.uint16, np.int32, np.int64, np.uint64]
    )
    def test_integer_array_of_any_dtype_equals_its_list(self, dtype):
        arr = np.array([1, 0, 3, 2], dtype=dtype)
        s = Seq(DNA, arr)
        assert s == Seq(DNA, arr.tolist()) == seq("CATG")
        assert s.data == b"\x01\x00\x03\x02"
        assert len(s) == 4

    @pytest.mark.parametrize(
        "data",
        [
            (2,),
            (0, 256),
            (-1,),
            b"\x00\x02",
            np.array([-1, 0]),
            np.array([0, 2], dtype=np.uint8),
            (0.5,),
            (1.0,),
            np.array([0.0, 1.0]),
            "01",
            3,
            np.int64(2),
            np.array(1),
            np.zeros((2, 2), dtype=np.int64),
            (None,),
        ],
    )
    def test_rejects_indices_outside_the_alphabet_or_not_integers(self, data):
        with pytest.raises(DomainError):
            Seq(BINARY, data)

    def test_bytes_give_equality_hash_and_order(self):
        a = Seq(DNA, (0, 3, 1))
        b = Seq(DNA, b"\x00\x03\x01")
        assert a == b and hash(a) == hash(b)
        assert Seq(DNA, (0, 1)).data < Seq(DNA, (0, 1, 0)).data < Seq(DNA, (1,)).data

    def test_arr_is_a_read_only_uint8_view(self):
        s = seq("GATTACA")
        assert s.arr.dtype == np.uint8 and not s.arr.flags.writeable
        assert s.arr.tolist() == list(s.data)
        assert np.shares_memory(s.arr, np.frombuffer(s.data, dtype=np.uint8))

    def test_instance_views_are_computed_once(self):
        inst = StringInstance.from_texts(BINARY, ["0101", "0011"])
        assert inst.matrix is inst.matrix
        assert inst.matrix.tolist() == [[0, 1, 0, 1], [0, 0, 1, 1]]
        assert not inst.matrix.flags.writeable
        sub = SubstringInstance.from_texts(BINARY, ["0101", "001"], 2)
        assert sub.windows is sub.windows
        assert [w.tolist() for w in sub.windows] == [[[0, 1], [1, 0], [0, 1]], [[0, 0], [0, 1]]]
        assert not any(w.flags.writeable for w in sub.windows)

    def test_concurrent_first_use_of_views_agrees(self):
        texts = ["ACGT" * 40, "TTGA" * 40, "CAGA" * 40]
        inst = StringInstance.from_texts(DNA, texts)
        sub = SubstringInstance.from_texts(DNA, texts, 7)
        workers = 8  # more threads than cores
        barrier = threading.Barrier(workers)

        def first_use(_):
            barrier.wait(timeout=10)
            return inst.matrix.tolist(), [w.tolist() for w in sub.windows]

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(workers) as pool:
                seen = list(pool.map(first_use, range(workers), timeout=30))
        finally:
            sys.setswitchinterval(old)
        expected = (
            [list(s.data) for s in inst.strings],
            [[list(s.data[o:o + 7]) for o in range(len(s) - 6)] for s in sub.strings],
        )
        assert all(views == expected for views in seen)
        assert (inst.matrix.tolist(), [w.tolist() for w in sub.windows]) == expected


class TestHamming:
    @pytest.mark.parametrize(
        "a,b,expected",
        [("ACGT", "ACGT", 0), ("ACGT", "ACGA", 1)],
    )
    def test_examples_dna(self, a, b, expected):
        assert hamming(seq(a), seq(b)) == expected

    def test_all_positions_differ(self):
        assert hamming(bseq("0000"), bseq("1111")) == 4

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            hamming(bseq("00"), bseq("000"))

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            hamming(bseq("01"), seq("AC"))

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            m = int(rng.integers(1, 12))
            a, b, c = (
                Seq(BINARY, tuple(int(v) for v in rng.integers(0, 2, m)))
                for _ in range(3)
            )
            assert hamming(a, b) == hamming(b, a)
            assert hamming(a, c) <= hamming(a, b) + hamming(b, c)
            assert (hamming(a, b) == 0) == (a == b)

    def test_partition_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            m = int(rng.integers(1, 14))
            a = Seq(BINARY, tuple(int(v) for v in rng.integers(0, 2, m)))
            b = Seq(BINARY, tuple(int(v) for v in rng.integers(0, 2, m)))
            p = rng.random(m) < 0.5
            a_p, b_p = Seq(BINARY, a.arr[p]), Seq(BINARY, b.arr[p])
            a_q, b_q = Seq(BINARY, a.arr[~p]), Seq(BINARY, b.arr[~p])
            assert hamming(a, b) == hamming(a_p, b_p) + hamming(a_q, b_q)


class TestAgreement:
    def test_examples(self):
        a = Alphabet.of("ABCXYZ")
        assert agreement_positions(
            [Seq.from_text(a, "AAB"), Seq.from_text(a, "AAC")]
        ).tolist() == [True, True, False]
        assert agreement_positions([Seq.from_text(a, "XYZ")]).tolist() == [True, True, True]
        assert agreement_positions([bseq("01"), bseq("10")]).tolist() == [False, False]

    def test_returns_read_only_bool_mask(self):
        q = agreement_positions([bseq("0110"), bseq("0100")])
        assert q.dtype == bool and q.shape == (4,)
        assert not q.flags.writeable
        with pytest.raises(ValueError):
            q[0] = False
        assert not agreement_positions([bseq("01")]).flags.writeable

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            agreement_positions([])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            agreement_positions([bseq("0"), bseq("00")])

    def test_size_bound_against_any_center(self):
        # |P| <= sum of distances to any center, so |Q| >= m - r*cost; and
        # a position where two strings differ is free, so |Q| <= m - d(s, t)
        rng = np.random.default_rng(23)
        for _ in range(50):
            m = int(rng.integers(4, 12))
            n = int(rng.integers(2, 5))
            strs = [Seq(BINARY, tuple(int(v) for v in rng.integers(0, 2, m))) for _ in range(n)]
            inst = StringInstance(BINARY, tuple(strs))
            center = Seq(BINARY, tuple(int(v) for v in rng.integers(0, 2, m)))
            q = agreement_positions(strs)
            assert int(q.sum()) >= m - n * cost_string(inst, center)
            assert int(q.sum()) <= m - max(hamming(s, t) for s in strs for t in strs)


class TestCosts:
    def test_cost_string_examples(self):
        assert cost_string(StringInstance.from_texts(BINARY, ["00", "00"]), bseq("00")) == 0
        assert cost_string(StringInstance.from_texts(BINARY, ["00", "11"]), bseq("01")) == 1
        inst = StringInstance.from_texts(BINARY, ["000", "011", "101"])
        assert cost_string(inst, bseq("001")) == 1

    def test_cost_substring_examples(self):
        a = Alphabet.of("AB")
        inst = SubstringInstance.from_texts(a, ["AAAA", "BAAB"], 2)
        assert cost_substring(inst, Seq.from_text(a, "AA")) == (0, (0, 1))
        inst2 = SubstringInstance.from_texts(BINARY, ["01"], 2)
        assert cost_substring(inst2, bseq("01")) == (0, (0,))
        inst3 = SubstringInstance.from_texts(BINARY, ["0000", "1111"], 2)
        assert cost_substring(inst3, bseq("01")) == (1, (0, 0))

    def test_window_too_long(self):
        with pytest.raises(WindowTooLong):
            SubstringInstance.from_texts(BINARY, ["01", "0"], 2)

    def test_cost_substring_full_window_equals_cost_string(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = int(rng.integers(1, 10))
            n = int(rng.integers(1, 5))
            texts = ["".join(str(int(v)) for v in rng.integers(0, 2, m)) for _ in range(n)]
            center = Seq(BINARY, tuple(int(v) for v in rng.integers(0, 2, m)))
            s_inst = StringInstance.from_texts(BINARY, texts)
            sub_inst = SubstringInstance.from_texts(BINARY, texts, m)
            radius, offsets = cost_substring(sub_inst, center)
            assert radius == cost_string(s_inst, center)
            assert offsets == (0,) * n


class TestRho0:
    def test_examples(self):
        assert rho0_diagnostic([bseq("00"), bseq("11")], 1) == 2
        a = Alphabet.of("ab")
        assert rho0_diagnostic([Seq.from_text(a, "ab"), Seq.from_text(a, "ab")], 5) == 0
        assert rho0_diagnostic([bseq("000"), bseq("011"), bseq("110")], 2) == 1

    def test_rejects_nonpositive_reference(self):
        with pytest.raises(DomainError):
            rho0_diagnostic([bseq("00")], 0)


def test_every_public_name_resolves():
    import centerstring

    missing = [name for name in centerstring.__all__ if not hasattr(centerstring, name)]
    assert missing == []
