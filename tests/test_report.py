"""summary.json's writer: the stdlib's bytes as an oracle, the types it refuses, and the
memory it saves over the stdlib's indenting encoder."""

import enum
import json
import math
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from semdrift.report import _Table, summary_json

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


def _peak_bytes(render, summary) -> int:
    """tracemalloc's peak while `render(summary)` runs, above what was held before it."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        text = render(summary)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert text
    return peak


def test_rendering_the_summary_peaks_below_three_quarters_of_the_stdlib(monkeypatch):
    text = (DATA / "expected_bundle" / "summary.json").read_text(encoding="utf-8")
    summary = json.loads(text)
    assert summary_json(summary) == stdlib_summary_json(summary) == text
    peak = _peak_bytes(summary_json, summary)
    # from Python 3.13 the stdlib's C encoder indents too, and peaks far lower than its
    # Python encoder, which is the one that indents on 3.10-3.12
    assert peak < _peak_bytes(stdlib_summary_json, summary)
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    ratio = peak / _peak_bytes(stdlib_summary_json, summary)
    assert ratio < 0.75, ratio
