import warnings

import numpy as np
import pytest

from crbkit import InvalidInput, dump_matrix, load_matrix, parse_matrix, save_matrix
from crbkit.matx import format_float, format_row

EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, np.inf, -np.inf]


def random_doubles(seed, size):
    """Doubles from uniformly random bit patterns: every exponent, subnormals, infinities and nans of either sign."""
    return np.random.default_rng(seed).integers(0, 2**64, size=size, dtype=np.uint64).view(float)


def test_header_then_rows():
    text = dump_matrix(np.array([[1.5, -2.0], [0.25, 1e-3]]))
    lines = text.splitlines()
    assert lines[0] == "2 2"
    assert len(lines) == 3


def test_roundtrip_is_exact():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 7)) * np.logspace(-12, 12, 7)
    assert np.array_equal(parse_matrix(dump_matrix(a)), a)


def test_vector_becomes_single_row():
    assert parse_matrix(dump_matrix(np.array([1.0, 2.0]))).shape == (1, 2)


def test_special_values_roundtrip(tmp_path):
    path = tmp_path / "m.matx"
    a = np.array([[1.0 / 3.0, 2.0 / 7.0], [-1e-300, 6.02214076e23]])
    save_matrix(path, a)
    assert np.array_equal(load_matrix(path), a)


def test_zero_row_block_is_legal():
    assert parse_matrix("0 2\n").shape == (0, 2)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2\n1 2",
        "1 2\n1",
        "2 2\n1 2\n3 x",
        "1 1\n5\nextra",
        "2 2\n1 2\n",
        "-1 2\n",
    ],
)
def test_malformed_text_rejected(text):
    with pytest.raises(InvalidInput):
        parse_matrix(text)


def test_blank_lines_before_the_header_are_skipped():
    assert np.array_equal(parse_matrix("\n  \n2 2\n1 0\n0 1\n"), np.eye(2))


def test_blank_lines_after_the_block_are_not_trailing_content():
    assert np.array_equal(parse_matrix("2 2\n1 0\n0 1\n\n \t\n"), np.eye(2))


def test_dump_refuses_a_3d_array_and_parse_a_header_of_words():
    with pytest.raises(InvalidInput) as info:
        dump_matrix(np.ones((2, 2, 2)))
    assert str(info.value) == "matx supports 2-d matrices, got ndim=3"
    with pytest.raises(InvalidInput) as info:
        parse_matrix("a b\n")
    assert str(info.value) == "matx: non-integer header 'a b'"


def test_missing_file_rejected(tmp_path):
    with pytest.raises(InvalidInput):
        load_matrix(tmp_path / "absent.matx")


def test_format_float_and_format_row_give_the_bytes_of_the_17_digit_format_spec():
    values = random_doubles(4, 20_000).tolist() + EDGE_VALUES + [np.nan, -np.nan]
    expected = ["{:.17g}".format(v) for v in values]
    assert [format_float(v) for v in values] == expected
    assert format_row(values) == " ".join(expected)
    assert format_row([]) == ""


def test_32_column_matrix_round_trips_bit_for_bit():
    values = random_doubles(5, 32 * 31)
    a = np.concatenate([np.where(np.isnan(values), 1.0, values), EDGE_VALUES * 4]).reshape(32, 32)
    assert np.array_equal(parse_matrix(dump_matrix(a)).view(np.uint64), a.view(np.uint64))


def test_a_complex_array_is_refused_and_no_file_is_written(tmp_path):
    # numpy's cast to float warned (ComplexWarning) and wrote the real part, diag(0, 1) here
    path = tmp_path / "c.matx"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        complex_j = np.array([[1j, 0], [0, 1]])
        for call in (lambda: dump_matrix(complex_j), lambda: save_matrix(path, complex_j)):
            with pytest.raises(InvalidInput) as info:
                call()
            assert str(info.value) == "matrix has complex entries; only real numbers are accepted"
    assert not path.exists()
    assert dump_matrix(np.array([[1.0, 0.0]])) == "1 2\n1 0\n"
