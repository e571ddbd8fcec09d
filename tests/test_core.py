"""Core string operations and position masks: examples and randomized properties."""

import numpy as np
import pytest

from centerstring import (
    BINARY,
    DNA,
    Alphabet,
    Seq,
    StringInstance,
    SubstringConfig,
    SubstringInstance,
    agreement_positions,
    cost_string,
    cost_substring,
    solve_closest_string,
    solve_substring,
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


INTEGER_DTYPES = [np.int8, np.uint8, np.int16, np.uint16, np.int32, np.int64, np.uint64]
# one string's indices that a binary Seq or instance row must refuse
BAD_BINARY_INDICES = [
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
]


class TestSeqInput:
    @pytest.mark.parametrize("dtype", INTEGER_DTYPES)
    def test_integer_array_of_any_dtype_equals_its_list(self, dtype):
        arr = np.array([1, 0, 3, 2], dtype=dtype)
        s = Seq(DNA, arr)
        assert s == Seq(DNA, arr.tolist()) == seq("CATG")
        assert s.data == b"\x01\x00\x03\x02"
        assert len(s) == 4

    @pytest.mark.parametrize("data", BAD_BINARY_INDICES)
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


class TestInstanceInput:
    @pytest.mark.parametrize("dtype", INTEGER_DTYPES)
    def test_integer_rows_of_any_dtype_equal_the_texts(self, dtype):
        rows = np.array([[1, 0, 3, 2], [0, 0, 1, 3]], dtype=dtype)
        texts = ["CATG", "AACT"]
        assert StringInstance(DNA, rows).matrix.tolist() == StringInstance.from_texts(DNA, texts).matrix.tolist()
        sub = SubstringInstance(DNA, list(rows), 2)
        assert [s.tolist() for s in sub.strings] == rows.tolist()
        assert [s.dtype for s in sub.strings] == [np.uint8, np.uint8]

    @pytest.mark.parametrize("data", BAD_BINARY_INDICES)
    def test_rejects_rows_outside_the_alphabet_or_not_integers(self, data):
        with pytest.raises(DomainError):
            StringInstance(BINARY, [(0,), data])
        with pytest.raises(DomainError):
            SubstringInstance(BINARY, [(0,), data], 1)

    def test_rows_of_mixed_dtypes_are_checked_together(self):
        # int64 and uint64 join as float64: the negative index must still be seen
        with pytest.raises(DomainError):
            StringInstance(BINARY, [np.array([1], dtype=np.uint64), np.array([-1])])
        mixed = StringInstance(BINARY, [np.array([1], dtype=np.uint64), np.array([0], dtype=np.int8)])
        assert mixed.matrix.dtype == np.uint8 and mixed.matrix.tolist() == [[1], [0]]

    @pytest.mark.parametrize("matrix", [3, None, np.array([0, 1]), "01"])
    def test_rejects_a_matrix_that_is_no_sequence_of_rows(self, matrix):
        with pytest.raises(DomainError):
            StringInstance(BINARY, matrix)

    def test_ragged_rows_raise_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            StringInstance(BINARY, [(0, 1), (1,)])
        with pytest.raises(LengthMismatch):
            StringInstance.from_texts(BINARY, ["01", "0"])

    def test_no_rows_and_no_columns(self):
        for empty in ([], (), np.zeros((0, 3), dtype=np.uint8)):
            with pytest.raises(EmptyInput):
                StringInstance(BINARY, empty)
            with pytest.raises(EmptyInput):
                SubstringInstance(BINARY, empty, 1)
        with pytest.raises(EmptyInput):
            StringInstance.from_texts(BINARY, [])
        for no_columns in ([(), ()], np.zeros((2, 0), dtype=np.uint8)):
            with pytest.raises(DomainError):
                StringInstance(BINARY, no_columns)

    def test_window_longer_than_a_string(self):
        with pytest.raises(WindowTooLong):
            SubstringInstance(BINARY, [(0, 1, 0), (1, 1)], 3)
        with pytest.raises(WindowTooLong):
            SubstringInstance(BINARY, [(0, 1), ()], 1)
        with pytest.raises(DomainError):
            SubstringInstance(BINARY, [(0, 1)], 0)

    def test_from_texts_rejects_a_foreign_symbol(self):
        with pytest.raises(AlphabetMismatch):
            StringInstance.from_texts(BINARY, ["01", "02"])
        with pytest.raises(AlphabetMismatch):
            SubstringInstance.from_texts(BINARY, ["01", "2"], 1)

    def test_arrays_and_views_exist_from_construction_read_only(self):
        inst = StringInstance.from_texts(BINARY, ["0101", "0011"])
        assert "matrix" in vars(inst) and inst.matrix.dtype == np.uint8
        assert inst.matrix.tolist() == [[0, 1, 0, 1], [0, 0, 1, 1]]
        assert (inst.n, inst.m) == (2, 4)
        sub = SubstringInstance.from_texts(BINARY, ["0101", "001"], 2)
        assert "windows" in vars(sub)
        assert [w.tolist() for w in sub.windows] == [[[0, 1], [1, 0], [0, 1]], [[0, 0], [0, 1]]]
        for arr in (inst.matrix, *sub.strings, *sub.windows):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1

    def test_caller_arrays_are_copied(self):
        rows = np.array([[0, 1, 1, 0, 1, 0], [1, 1, 0, 0, 1, 1], [0, 0, 1, 1, 1, 0]])
        inst = StringInstance(BINARY, rows)
        sub = SubstringInstance(BINARY, list(rows), 4)
        before = (
            inst.matrix.tolist(), [w.tolist() for w in sub.windows],
            solve_closest_string(inst), solve_substring(sub, SubstringConfig()),
        )
        rows[:] = 1 - rows
        after = (
            inst.matrix.tolist(), [w.tolist() for w in sub.windows],
            solve_closest_string(inst), solve_substring(sub, SubstringConfig()),
        )
        assert after == before
        assert not any(np.shares_memory(rows, a) for a in (inst.matrix, *sub.strings))


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
            rows = [rng.integers(0, 2, m) for _ in range(n)]
            inst = StringInstance(BINARY, rows)
            center = Seq(BINARY, tuple(int(v) for v in rng.integers(0, 2, m)))
            q = agreement_positions([Seq(BINARY, row) for row in rows])
            assert int(q.sum()) >= m - n * cost_string(inst, center)
            assert int(q.sum()) <= m - max(int((s != t).sum()) for s in rows for t in rows)


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


def test_every_public_name_resolves():
    import centerstring

    missing = [name for name in centerstring.__all__ if not hasattr(centerstring, name)]
    assert missing == []
