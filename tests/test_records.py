"""Value semantics of every record class: equality and repr over the constructor's
parameters, positional, keyword and default construction, immutability of the frozen
records, and identity equality for the two vector records."""

import inspect
from collections import Counter
from pathlib import Path

import pytest

from semdrift.cli import RunConfig, ValidationReport
from semdrift.errors import FrozenRecord, Record, ValidationError
from semdrift.freq import ClassDeviation, ClassFrequencyStats, TokensPerLemma
from semdrift.ingest import CorpusStratum, Document, LangProfile, LemmaDict
from semdrift.inputs import ChannelKind, DeviationMode, FrequencyTable, TranslationKind
from semdrift.lexicon import (Concept, ConceptMap, RawLexiconEntry, SentimentClass,
                              SentimentLexicon)
from semdrift.report import _Table
from semdrift.semfield import FieldWidthReport, VariantProfile
from semdrift.stats import AnovaResult, GroupSample, PairComparison, TukeyResult
from semdrift.synth import DEFAULT_LENGTH_INFLATION, DEFAULT_MACHINE_FACTOR, ChannelParams
from semdrift.vectors import ConceptVector, Projection2D

from helpers import make_stratum

POS, NEG = SentimentClass.POSITIVE, SentimentClass.NEGATIVE


def concept() -> Concept:
    return Concept("say", POS, ("сказать",), ("say", "tell"))


def pair() -> PairComparison:
    return PairComparison("a", "b", 1.5, 3.2, 0.04, True)


def table_rows():
    return iter([[1]])


# Each record class with a function of its full positional arguments: every call builds
# new argument objects, so equal records never share them.
FULL_ARGS = {
    RunConfig: lambda: (None, "ru", "en", {"en": []}, None, {}, (POS, NEG), ["term"], 0.1,
                        DeviationMode.RATIO, 3, None, {"words": 10}, {}),
    ValidationReport: lambda: (["e"], ["w"], {}, None, {}, []),
    _Table: lambda: ("t", ["a"], table_rows, "# end\n"),
    FrequencyTable: lambda: ("en", {"say": 12.5}),
    TokensPerLemma: lambda: (1.5, {1: 2, 2: 1}),
    ClassDeviation: lambda: (DeviationMode.DIFFERENCE, {"say": 0.3}, {"say": 0.1},
                             {"say": 0.2}, ("tell",), 0.2, 0.2),
    ClassFrequencyStats: lambda: (2, 3, 1.5, {"say": 0.3}),
    LangProfile: lambda: ("en", ((97, 122),), False),
    LemmaDict: lambda: ("en", {"said": "say"}),
    Document: lambda: ("doc-1", Counter({"say": 2}), ("say", "say")),
    CorpusStratum: lambda: ("en", TranslationKind.HUMAN, {"term": "1"},
                            [Document.from_lemmas("doc-1", ["say"])]),
    RawLexiconEntry: lambda: ("say", POS, "core"),
    SentimentLexicon: lambda: ("en", {POS: frozenset({"say"})}, {"say": ("core",)}),
    Concept: lambda: ("say", POS, ("сказать",), ("say", "tell")),
    ConceptMap: lambda: ("ru", "en", {"say": concept()}),
    VariantProfile: lambda: ("say", POS, frozenset({"say"}), 4),
    FieldWidthReport: lambda: (1.5, 0.75, ("think",)),
    GroupSample: lambda: ("G8", (1.0, 2.0)),
    AnovaResult: lambda: (2.5, 1, 4, 0.2, {"a": 1.0, "b": 2.0}, 1.0, 2.0, True, 0.5, 0.6),
    PairComparison: lambda: ("a", "b", 1.5, 3.2, 0.04, True),
    TukeyResult: lambda: ((pair(),), 4, True),
    ChannelParams: lambda: (ChannelKind.HUMAN, 1.3, 0.25, 1.19, 7),
    ConceptVector: lambda: ("en/human", ("say", "think"), (1.0, 2.0)),
    Projection2D: lambda: (("a", "b"), ((1.0, 0.0), (-1.0, 0.0)), (1.0, 0.0),
                           ((1.0, 0.0), (0.0, 1.0)), (2.0, 0.0)),
}
# The classes with defaults: the fewest arguments, and the same with every default spelled
# out.
DEFAULTS = {
    RunConfig: ((), (None, None, None, {}, None, {}, (SentimentClass.EPISTEMIC, NEG, POS), [],
                     0.05, DeviationMode.DIFFERENCE, 5, Path("out"), {}, {})),
    ValidationReport: ((), ([], [], {}, None, {}, [])),
    _Table: (("t", ["a"], table_rows), ("t", ["a"], table_rows, "")),
    TokensPerLemma: ((None,), (None, {})),
    LangProfile: (("en", ((97, 122),)), ("en", ((97, 122),), True)),
    LemmaDict: (("en",), ("en", {})),
    Document: (("doc-1", Counter({"say": 1})), ("doc-1", Counter({"say": 1}), None)),
    CorpusStratum: (("en", TranslationKind.SOURCE), ("en", TranslationKind.SOURCE, {}, [])),
    SentimentLexicon: (("en", {}), ("en", {}, {})),
    ConceptMap: (("ru", "en"), ("ru", "en", {})),
    AnovaResult: ((2.5, 1, 4, 0.2, {}, 1.0, 2.0),
                  (2.5, 1, 4, 0.2, {}, 1.0, 2.0, False, 0.0, 1.0)),
    TukeyResult: (((), 4), ((), 4, False)),
    ChannelParams: ((ChannelKind.MACHINE, 0.4), (ChannelKind.MACHINE, 0.4, 0.0, 1.0, 0)),
}
BY_IDENTITY = {ConceptVector, Projection2D}
FROZEN = [cls for cls in FULL_ARGS if issubclass(cls, FrozenRecord)]
MUTABLE = [cls for cls in FULL_ARGS if not issubclass(cls, FrozenRecord)]
BY_VALUE = [cls for cls in FULL_ARGS if cls not in BY_IDENTITY]


def test_every_record_class_is_listed():
    found, bases = set(), [Record]
    while bases:
        subclasses = bases.pop().__subclasses__()
        found.update(subclasses)
        bases += subclasses
    assert found - {FrozenRecord} == set(FULL_ARGS)
    assert len(FULL_ARGS) == 24
    assert set(MUTABLE) == {RunConfig, ValidationReport, _Table, CorpusStratum}


@pytest.mark.parametrize("cls", BY_VALUE, ids=lambda c: c.__name__)
def test_equal_arguments_give_equal_records_with_equal_repr(cls):
    a, b = cls(*FULL_ARGS[cls]()), cls(*FULL_ARGS[cls]())
    assert a == b and not a != b
    assert repr(a) == repr(b)


@pytest.mark.parametrize("cls", list(FULL_ARGS), ids=lambda c: c.__name__)
def test_repr_shows_each_constructor_field_in_order(cls):
    record = cls(*FULL_ARGS[cls]())
    assert cls._fields == tuple(inspect.signature(cls).parameters)
    shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in cls._fields)
    assert repr(record) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls", BY_VALUE, ids=lambda c: c.__name__)
def test_records_differing_in_one_field_are_unequal(cls):
    record = cls(*FULL_ARGS[cls]())
    assert record != object()
    for i, name in enumerate(cls._fields):
        args = list(FULL_ARGS[cls]())
        if type(args[i]) not in (str, int, float):
            continue  # numbers and strings are enough to show that each field counts
        args[i] = args[i] + ("x" if isinstance(args[i], str) else 0.5)
        assert cls(*args) != record, name


@pytest.mark.parametrize("cls", list(FULL_ARGS), ids=lambda c: c.__name__)
def test_keyword_construction_equals_positional(cls):
    args = FULL_ARGS[cls]()
    positional, keyword = cls(*args), cls(**dict(zip(cls._fields, args)))
    assert keyword._values() == positional._values()
    assert repr(keyword) == repr(positional)


@pytest.mark.parametrize("cls", list(DEFAULTS), ids=lambda c: c.__name__)
def test_defaults_equal_their_spelled_out_values(cls):
    fewest, spelled = DEFAULTS[cls]
    assert cls(*fewest) == cls(*spelled)
    assert repr(cls(*fewest)) == repr(cls(*spelled))


@pytest.mark.parametrize("cls", list(DEFAULTS), ids=lambda c: c.__name__)
def test_default_containers_are_fresh_per_instance(cls):
    fewest = DEFAULTS[cls][0]
    a, b = cls(*fewest), cls(*fewest)
    for name in cls._fields[len(fewest):]:
        if isinstance(getattr(a, name), (dict, list)):
            assert getattr(a, name) is not getattr(b, name), name


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_frozen_records_refuse_assignment_and_deletion(cls):
    record = cls(*FULL_ARGS[cls]())
    before = repr(record)
    for name in cls._fields:
        with pytest.raises(AttributeError, match=name):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=name):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.new_attribute = 1
    assert repr(record) == before


HASHABLE = [RawLexiconEntry, Concept, VariantProfile, FieldWidthReport, GroupSample,
            PairComparison, TukeyResult, ChannelParams, LangProfile]


@pytest.mark.parametrize("cls", HASHABLE, ids=lambda c: c.__name__)
def test_equal_frozen_records_hash_equal(cls):
    a, b = cls(*FULL_ARGS[cls]()), cls(*FULL_ARGS[cls]())
    assert a is not b and hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls", [FrequencyTable, Document, SentimentLexicon, ConceptMap],
                         ids=lambda c: c.__name__)
def test_frozen_records_holding_a_dict_are_unhashable(cls):
    with pytest.raises(TypeError, match="unhashable"):
        hash(cls(*FULL_ARGS[cls]()))


@pytest.mark.parametrize("cls", MUTABLE, ids=lambda c: c.__name__)
def test_mutable_records_take_assignment_and_are_unhashable(cls):
    record = cls(*FULL_ARGS[cls]())
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)
    name = cls._fields[0]
    setattr(record, name, "changed")
    assert getattr(record, name) == "changed"
    assert record != cls(*FULL_ARGS[cls]())


@pytest.mark.parametrize("cls", sorted(BY_IDENTITY, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_vector_records_are_equal_only_to_themselves(cls):
    a, b = cls(*FULL_ARGS[cls]()), cls(*FULL_ARGS[cls]())
    assert a == a and a != b
    assert repr(a) == repr(b)
    assert len({a, b}) == 2


def test_cached_attributes_take_no_part_in_equality():
    computed, fresh = make_stratum(["say", "say", "tell"]), make_stratum(["say", "say", "tell"])
    assert computed.lemma_counts() == Counter({"say": 2, "tell": 1})
    assert computed.label == "en/source"
    assert computed == fresh and repr(computed) == repr(fresh)
    lexicon = SentimentLexicon("en", {POS: frozenset({"say"})})
    assert lexicon.class_of("say") is POS  # read from the cache that __init__ builds
    assert lexicon == SentimentLexicon("en", {POS: frozenset({"say"})})
    assert "_class_of" not in repr(lexicon)
    assert "_word_run" not in repr(LangProfile("en", ((97, 122),)))


def test_derived_document_total_is_set_at_construction():
    document = Document("doc-1", Counter({"say": 2, "tell": 1}))
    assert document.total_word_count == 3
    assert "total_word_count" not in Document._fields
    with pytest.raises(AttributeError):
        document.total_word_count = 4


def test_constructors_still_validate_and_normalise():
    with pytest.raises(ValidationError, match="non-finite"):
        GroupSample("g", (1.0, float("nan")))
    assert GroupSample("g", [1, 2]).values == (1.0, 2.0)
    assert ChannelParams("human", 1.0).kind is ChannelKind.HUMAN
    assert LangProfile("en", ((97, 99), (98, 122))).letter_classes == ((97, 122),)
    assert SentimentLexicon("en", {}).lists == {cls: frozenset() for cls in SentimentClass}


class TestChannelParamsPresets:
    def test_machine_overrides_are_validated(self):
        with pytest.raises(ValidationError, match="norm_pull"):
            ChannelParams.machine(norm_pull=2)
        with pytest.raises(ValidationError, match="seed"):
            ChannelParams.human(-1)

    def test_presets_equal_the_constructor_call(self):
        assert ChannelParams.machine(3, norm_pull=0.5) == ChannelParams(
            ChannelKind.MACHINE, DEFAULT_MACHINE_FACTOR, 0.5, DEFAULT_LENGTH_INFLATION, 3)
        assert ChannelParams.human(narrow_widen_factor=2.0, kind="machine") == ChannelParams(
            ChannelKind.MACHINE, 2.0, 0.0, DEFAULT_LENGTH_INFLATION, 0)

    def test_unknown_override_is_a_type_error(self):
        with pytest.raises(TypeError, match="pull"):
            ChannelParams.machine(pull=0.5)
