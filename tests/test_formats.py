"""Every input file format against one mutation of a valid file.

Each case writes a valid file of one format (sets, measures, profiles,
families, sweep configs), applies one mutation and loads the result: it
must load ``==`` to the original or raise a one-line FormatError naming
the file.  Any other exception fails, and so does a silent change.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadic import (
    BranchingProfile,
    DeltaSet,
    ExperimentConfig,
    Interval,
    IntervalFamily,
    ParameterSet,
    ScaleSpec,
    counting_measure,
    gen_ap,
    load_family,
    load_measure,
    load_profile,
    load_set,
    product_measure,
    save_family,
    save_measure,
    save_profile,
    save_set,
)
from dyadic.experiments import write_json
from dyadic.grid import FormatError

DEEP = 100_000

# Every optional key of the config holds its default, so dropping one reads
# the same config; a required key dropped is refused.
CONFIG = ExperimentConfig(
    params=ParameterSet(Fraction(3, 4), Fraction(1, 2), Fraction(1), Fraction(1, 2),
                        Fraction(1, 2), Fraction(1, 16), 16),
    scales=(ScaleSpec(1, 8, 1), ScaleSpec(2, 4, 1)),
    gammas=(Fraction(1, 2), Fraction(3, 4)),
)

FORMATS = {
    "set": (gen_ap(6, 5, step=7, start=3), save_set, load_set),
    "measure": (
        product_measure(counting_measure(gen_ap(4, 3)), counting_measure(gen_ap(4, 2, step=5))),
        save_measure,
        load_measure,
    ),
    "profile": (BranchingProfile(2, (4, 1, 2)), save_profile, load_profile),
    "family": (
        IntervalFamily((Interval(0, 1, "trivial"), Interval(2, 4, "case_a"),
                        Interval(6, 6, "low"))),
        save_family,
        load_family,
    ),
    "config": (CONFIG, lambda cfg, path: write_json(cfg.to_dict(), path), ExperimentConfig.load),
}

MUTATIONS = ("retype", "drop-key", "repeat-key", "unknown-key", "nest", "0xff", "truncate")


class Raw(str):
    """Text that ``dump`` writes as it is."""


class Pairs(list):
    """``(key, value)`` pairs that ``dump`` writes as one object, a repeated
    key and all."""


def dump(value) -> str:
    """JSON text of ``value``, with ``Raw`` and ``Pairs`` as above."""
    if isinstance(value, Raw):
        return value
    if isinstance(value, Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {dump(v)}" for k, v in value) + "}"
    if isinstance(value, dict):
        return dump(Pairs(value.items()))
    if isinstance(value, list):
        return "[" + ", ".join(map(dump, value)) + "]"
    return json.dumps(value)


def nodes(value, path=()):
    """The path of every value in a parsed JSON document, the root first."""
    yield path
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from nodes(child, (*path, key))


def replaced(value, path, new):
    """``value`` with the node at ``path`` replaced by ``new``."""
    if not path:
        return new
    head, *rest = path
    if isinstance(value, dict):
        return {k: replaced(v, rest, new) if k == head else v for k, v in value.items()}
    return [replaced(v, rest, new) if i == head else v for i, v in enumerate(value)]


def node_at(value, path):
    for key in path:
        value = value[key]
    return value


def retyped(value) -> list:
    """The same content spelled in other JSON types."""
    if value is None:
        return [False, 0, []]
    if isinstance(value, bool):
        return [int(value), str(value).lower()]
    if isinstance(value, int):
        return [float(value), str(value), value != 0, [value]]
    if isinstance(value, str):
        return [[value], None, {value: value}]
    if isinstance(value, list):
        return [Pairs((str(i), v) for i, v in enumerate(value)), json.dumps(value), None]
    return [list(map(list, value.items())), json.dumps(value), None]


def mutate_json(text: str, mutation: str, data) -> bytes:
    doc = json.loads(text)
    paths = list(nodes(doc))
    objects = [p for p in paths if isinstance(node_at(doc, p), dict)]
    if mutation == "retype":
        path = data.draw(st.sampled_from(paths))
        new = data.draw(st.sampled_from(retyped(node_at(doc, path))))
        return dump(replaced(doc, path, new)).encode()
    if mutation == "nest":
        path = data.draw(st.sampled_from(paths))
        deep = Raw("[" * DEEP + dump(node_at(doc, path)) + "]" * DEEP)
        return dump(replaced(doc, path, deep)).encode()
    path = data.draw(st.sampled_from(objects))
    obj = node_at(doc, path)
    if mutation == "drop-key":
        key = data.draw(st.sampled_from(sorted(obj)))
        return dump(replaced(doc, path, {k: v for k, v in obj.items() if k != key})).encode()
    if mutation == "repeat-key":
        key = data.draw(st.sampled_from(sorted(obj)))
        twice = Pairs([*obj.items(), (key, data.draw(st.sampled_from([obj[key], 0, "x"])))])
        return dump(replaced(doc, path, twice)).encode()
    key = data.draw(st.sampled_from(["x", "N", "alpha_", "lo ", ""]))  # unknown-key
    return dump(replaced(doc, path, {**obj, key: 0})).encode()


def mutate_set(text: str, mutation: str, data) -> bytes:
    header, *lines = text.split("\n")
    if mutation == "retype":
        i = data.draw(st.integers(0, len(lines) - 2))
        lines[i] = data.draw(st.sampled_from([f"{lines[i]}.0", f'"{lines[i]}"', f"[{lines[i]}]"]))
    elif mutation == "nest":
        i = data.draw(st.integers(0, len(lines) - 2))
        lines[i] = "[" * DEEP + lines[i] + "]" * DEEP
    else:
        fields = header.split()
        if mutation == "drop-key":
            fields.pop(data.draw(st.integers(0, 1)))
        elif mutation == "repeat-key":
            fields.append(data.draw(st.sampled_from([*fields, "n=7", "W=2"])))
        else:  # unknown-key
            fields.append(data.draw(st.sampled_from(["x=1", "N=6", "w=1"])))
        header = " ".join(fields)
    return "\n".join([header, *lines]).encode()


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("fmt", FORMATS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_a_mutated_file_loads_the_same_or_is_refused_in_one_line(
    tmp_path_factory, fmt, mutation, data
):
    original, save, load = FORMATS[fmt]
    path = tmp_path_factory.mktemp(fmt) / "file"
    save(original, path)
    raw = path.read_bytes()
    if mutation == "0xff":
        at = data.draw(st.integers(0, len(raw)))
        mutated = raw[:at] + b"\xff" + raw[at:]
    elif mutation == "truncate":
        mutated = raw[: data.draw(st.integers(0, len(raw) - 1))]
    elif fmt == "set":
        mutated = mutate_set(raw.decode(), mutation, data)
    else:
        mutated = mutate_json(raw.decode(), mutation, data)
    path.write_bytes(mutated)
    try:
        loaded = load(path)
    except FormatError as exc:
        assert str(exc).startswith(f"{path}") and len(str(exc).splitlines()) == 1
        assert len(str(exc)) < 300  # a long value is shortened, not echoed whole
        if fmt == "set" and mutation == "nest":
            assert str(exc).startswith(f"{path}:{exc.line}: not an index: '[[[")
        return
    assert loaded == original


@pytest.mark.parametrize(
    "text, load, reason",
    [
        ("n=6 W=1\n" + "1" * 5000 + "x\n", load_set, "not an index: '111"),
        ("n=6 W=1 " + "x" * 5000 + "\n3\n", load_set, "header must read"),
        (json.dumps({"dim": 2, "n": 4, "atoms": {str(i): [[i, 0], 1] for i in range(2000)}}),
         load_measure, "'atoms' must be a list, not {"),
        (json.dumps({"m": 2, "R": [[2] * 3000]}), load_profile, "must be an integer, not [2, 2"),
        (json.dumps({"m": 2, "R": [2], "z" * 5000: 0}), load_profile, "unknown key 'zzz"),
    ],
)
def test_a_long_value_is_shortened_in_the_error(tmp_path, text, load, reason):
    path = tmp_path / "file"
    path.write_text(text)
    with pytest.raises(FormatError) as info:
        load(path)
    message = str(info.value)
    assert reason in message and len(message) < 300 and "chars)" in message


def test_a_set_header_without_a_count_is_read(tmp_path):
    # as files written before the header carried one are
    path = tmp_path / "old.txt"
    path.write_text("n=6 W=1\n3\n10\n")
    assert load_set(path) == DeltaSet.from_indices(6, [3, 10])


@pytest.mark.parametrize(
    "text, reason",
    [
        ("n=6 W=1 N=3\n3\n10\n", "header says N=3, the file holds 2 points"),
        ("n=6 W=1 N=1\n3\n\n10\n", "header says N=1, the file holds 2 points"),
        ("n=6 W=1 N=0", "no newline ends the file: it may be cut short"),
    ],
)
def test_a_set_file_that_its_count_does_not_match_is_refused(tmp_path, text, reason):
    path = tmp_path / "set.txt"
    path.write_text(text)
    with pytest.raises(FormatError) as info:
        load_set(path)
    assert str(info.value) == f"{path}:1: {reason}"
