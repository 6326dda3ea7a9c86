"""summary.json's writer: the stdlib's bytes as an oracle, the types it refuses, and the
memory it holds while it writes a file."""

import enum
import io
import json
import math
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from semdrift.report import _Table, write_summary

from helpers import DATA

NAN, INF = float("nan"), float("inf")


class Label(str, enum.Enum):
    # each value holds U+E000, which the drawn text never does, so no member equals a
    # drawn key: the stdlib would then sort two equal keys by their values
    PLAIN = "label\ue000"
    ESCAPED = "\"\\\n\u2028ж\ue000"


def stdlib_summary_json(value) -> str:
    """The oracle: the stdlib's indenting encoder, after non-finite floats become their repr."""
    def strict(value):
        if isinstance(value, float) and not math.isfinite(value):
            return repr(value)
        if isinstance(value, dict):
            return {k: strict(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [strict(v) for v in value]
        return value
    return json.dumps(strict(value), ensure_ascii=False, indent=2, sort_keys=True) + "\n"


def summary_json(value) -> str:
    out = io.StringIO()
    write_summary(out, value)
    return out.getvalue()


_text = st.text(st.one_of(
    st.sampled_from('"\\\x00\x08\x1f\x7f\u2028\u2029жЁщ\U0001f600\U00010348'),
    st.characters(blacklist_characters="\ue000")))
_keys = st.one_of(_text, st.sampled_from(Label))
_scalars = st.one_of(
    st.none(), st.booleans(), _keys,
    st.integers(), st.sampled_from([2**64, -2**64, 10**40 + 1, -(10**40) - 1]),
    st.floats(), st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, NAN, INF, -INF]))


def _containers(children):
    return st.one_of(st.lists(children, max_size=5), st.tuples(children, children),
                     st.dictionaries(_keys, children, max_size=5))


_values = st.recursive(_scalars, _containers, max_leaves=30)


@given(_containers(_values))
@example({"anova": [{"f_stat": NAN, "p_value": INF, "levene_stat": -INF}], "pca": {}})
@example([[], {}, (), [[]], {"": {"": []}}])
def test_writes_the_stdlib_bytes(value):
    assert summary_json(value) == stdlib_summary_json(value)


@pytest.mark.parametrize("value", [
    {1: "a"}, {None: "a"}, {"a": {2.5: 1}}, {"a": [{True: 1}]}, {"a": 1, 2: "b"},
    {"a": {1, 2}}, {"a": frozenset()}, {"a": b"x"}, [bytearray(b"x")], {"a": [set()]},
    {"a": 1j}, [{"a": ({"b": b""},)}],
], ids=repr)
def test_refuses_a_non_str_key_and_a_non_json_value(value):
    with pytest.raises(TypeError):
        summary_json(value)


def test_summary_records_are_the_tables_own_unless_a_key_is_csv_only():
    records = [{"a": 1, "groups": 2}]
    assert _Table("t", ["a"], records=records).to_summary() is records
    assert _Table("t", ["a"], csv_only=("groups",), records=records).to_summary() == [{"a": 1}]
    assert records == [{"a": 1, "groups": 2}]


def test_writing_the_summary_holds_less_than_a_quarter_of_its_file(tmp_path):
    golden = (DATA / "expected_bundle" / "summary.json").read_text(encoding="utf-8")
    summary = json.loads(golden)
    assert summary_json(summary) == stdlib_summary_json(summary) == golden
    # the file object holds up to 8 KiB of written text and its encoded copy, about a third
    # of the golden file; eight copies of it show that the peak does not follow the size
    summary = {f"copy{i}": summary for i in range(8)}
    path = tmp_path / "summary.json"
    with path.open("w", encoding="utf-8") as out:
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            write_summary(out, summary)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
    assert path.read_text(encoding="utf-8") == stdlib_summary_json(summary)
    size = path.stat().st_size
    assert peak < size / 4, (peak, size)
