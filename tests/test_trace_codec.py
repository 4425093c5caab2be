"""The canonical trace record codec: encoder, strict parser, one-pass export.

The encoder writes a record through one ``%d`` format string instead of
``json.dumps``; the reader parses canonical record lines with one strict
pattern and leaves every other line to ``json.loads``.  These tests pin
that the bytes on disk, the digests, and what the reader accepts and
returns are exactly what the json-only codec gave.
"""

import builtins
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.discipline.racelab import race_specs, run_race_scenario
from repro.dtp.messages import MessageType
from repro.faultlab.campaign import run_scenario
from repro.faultlab.scenarios import BUILTIN_SCENARIOS, builtin_specs
from repro.observe.health import HealthRecorder
from repro.telemetry import Telemetry, TraceIndex, TraceRecorder, dump_flight
from repro.telemetry.events import EV_RX, EV_TX
from repro.telemetry.export import (
    _canonical,
    encode_record,
    file_sha256,
    parse_record,
    read_trace_jsonl,
    trace_chunks,
    trace_digest,
    write_trace_jsonl,
)

ints = st.integers(min_value=-(2**80), max_value=2**80)
fields = st.one_of(ints, st.sampled_from(list(MessageType)))
records = st.tuples(fields, fields, fields, fields, fields)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("codec")


def _json_line(record) -> str:
    time_fs, kind, subject, a, b = record
    return _canonical({"a": a, "b": b, "k": kind, "s": subject, "t": time_fs})


def _write_lines(directory, lines) -> str:
    """A trace file: the given lines after a minimal header."""
    path = str(directory / "lines.trace.jsonl")
    with open(path, "wb") as handle:
        handle.write(b'{"record":"trace-header"}\n')
        for line in lines:
            handle.write(line.encode("utf-8") + b"\n")
    return path


def _json_reader(path):
    """The json-only reader the codec replaced (reference semantics)."""
    header, out = {}, []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle):
            obj = json.loads(line)
            if lineno == 0:
                if "record" not in obj:
                    raise ValueError(f"{path}: first line is not a header")
                header = obj
                continue
            if "record" in obj:
                continue
            out.append((obj["t"], obj["k"], obj["s"], obj["a"], obj["b"]))
    return header, out


def _outcome(reader, path):
    try:
        return ("ok", reader(path))
    except Exception as exc:  # the exception type is the outcome
        return ("raise", type(exc))


# ----------------------------------------------------------------------
# Encoder and parser properties
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(records)
def test_encoded_line_equals_canonical_json(record):
    assert encode_record(record) == _json_line(record)


@pytest.mark.parametrize("mtype", list(MessageType))
def test_every_message_type_encodes_as_json_does(mtype):
    record = (123, mtype, 4, mtype, -mtype)
    assert encode_record(record) == _json_line(record)


@settings(max_examples=300, deadline=None)
@given(records)
def test_parser_round_trips_every_encoded_line(record):
    expected = tuple(int(field) for field in record)
    line = encode_record(record)
    assert parse_record(line) == expected
    assert parse_record(line + "\n") == expected


@settings(max_examples=100, deadline=None)
@given(
    records,
    st.permutations(["a", "b", "k", "s", "t"]),
    st.sampled_from([(", ", ": "), (",", ": "), (", ", ":")]),
    st.sampled_from(["", " ", "\t"]),
)
def test_respaced_line_falls_back_to_json(scratch, record, order, separators, pad):
    expected = tuple(int(field) for field in record)
    values = dict(zip("tksab", expected))
    line = pad + json.dumps({key: values[key] for key in order}, separators=separators)
    assert parse_record(line) is None
    path = _write_lines(scratch, [line])
    assert read_trace_jsonl(path)[1] == [expected]
    assert _json_reader(path)[1] == [expected]


@settings(max_examples=200, deadline=None)
@given(records, st.data())
def test_truncated_line_raises_as_json_does(scratch, record, data):
    line = encode_record(record)
    cut = data.draw(st.integers(min_value=0, max_value=len(line) - 1))
    path = _write_lines(scratch, [line[:cut]])
    assert parse_record(line[:cut]) is None
    with pytest.raises(ValueError):
        read_trace_jsonl(path)


_garbage = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40
)


@st.composite
def _mutated_line(draw):
    line = encode_record(draw(records))
    at = draw(st.integers(min_value=0, max_value=len(line)))
    edit = draw(st.sampled_from(["insert", "delete", "replace"]))
    text = draw(st.text(alphabet='0123456789-+ .e{}":,abkstx٠', min_size=1, max_size=3))
    if edit == "insert":
        return line[:at] + text + line[at:]
    if edit == "delete":
        return line[:at] + line[at + len(text):]
    return line[:at] + text + line[at + len(text):]


def _spelled(a: str) -> str:
    return '{"a":%s,"b":0,"k":2,"s":0,"t":7}' % a


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_garbage, _mutated_line()), min_size=1, max_size=4))
@example([_spelled("01")])
@example([_spelled("-0")])
@example([_spelled("+1")])
@example([_spelled("1.0")])
@example([_spelled("true")])
@example([_spelled("\u0661")])
@example([_spelled("1") + " "])
@example([_spelled("1") + "}"])
def test_reader_agrees_with_json_reader_on_any_line(scratch, lines):
    path = _write_lines(scratch, lines)
    assert _outcome(read_trace_jsonl, path) == _outcome(_json_reader, path)


# ----------------------------------------------------------------------
# One-pass write and digest
# ----------------------------------------------------------------------
def _recorder(capacity: int, count: int) -> TraceRecorder:
    tracer = TraceRecorder(capacity=capacity)
    sid = tracer.subject_id("n0->n1")
    for i in range(count):
        kind = EV_TX if i % 3 else EV_RX
        tracer.record(i * 1_000_003, kind, sid, MessageType(i % 6), i * 7919 - 5)
    return tracer


@pytest.mark.parametrize(
    "capacity,count",
    [(16, 0), (16, 40), (20_000, 9_000)],
    ids=["empty", "dropped", "several-chunks"],
)
def test_write_returns_digest_of_file_bytes(tmp_path, capacity, count):
    tracer = _recorder(capacity, count)
    path = str(tmp_path / "t.trace.jsonl")
    digest = write_trace_jsonl(path, tracer)
    assert digest == trace_digest(tracer) == file_sha256(path)
    assert (tracer.dropped > 0) == (count > capacity)
    with open(path, "rb") as handle:
        raw = handle.read()
    assert raw == b"".join(trace_chunks(tracer))
    records = list(tracer.records)
    assert raw.split(b"\n", 1)[1] == "".join(
        _json_line(record) + "\n" for record in records
    ).encode("utf-8")
    assert read_trace_jsonl(path)[1] == records


def test_run_scenario_digest_same_with_and_without_trace_dir(tmp_path):
    (spec,) = builtin_specs(["link-flap"], quick=True)
    written = run_scenario(spec, seed=2, trace_dir=str(tmp_path), telemetry=Telemetry())
    (spec,) = builtin_specs(["link-flap"], quick=True)
    hashed = run_scenario(spec, seed=2, telemetry=Telemetry())
    digest = written["telemetry"]["trace_digest"]
    assert digest == hashed["telemetry"]["trace_digest"]
    assert digest == file_sha256(str(tmp_path / "link-flap.trace.jsonl"))


# ----------------------------------------------------------------------
# The encoder's precondition: record fields are ints, never bool or float
# ----------------------------------------------------------------------
def _assert_int_fields(tracer: TraceRecorder) -> None:
    assert len(tracer.records) > 0
    kinds = set()
    for record in tracer.records:
        for field in record:
            kinds.add(type(field))
            assert isinstance(field, int) and not isinstance(field, bool), record
    assert kinds <= {int, MessageType}, kinds


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_builtin_trace_fields_are_ints(name):
    telemetry = Telemetry()
    (spec,) = builtin_specs([name], quick=True)
    run_scenario(spec, seed=0, telemetry=telemetry)
    _assert_int_fields(telemetry.tracer)


def test_racelab_entry_trace_fields_are_ints():
    telemetry = Telemetry()
    (spec,) = race_specs(["oscillator-glitch"], quick=True)
    run_race_scenario(spec, "pi", seed=0, telemetry=telemetry)
    _assert_int_fields(telemetry.tracer)


def test_health_recorder_trace_fields_are_ints():
    rec = HealthRecorder(source="supervisor")
    rec.shard_grant(1, 1_000_000, 500_000)
    rec.shard_service(1_000_000, 0, 12, 250_000)
    rec.shard_stall(1_000_000, 1, 8)
    rec.task_state("baseline", "running", 1)
    rec.task_retry("baseline", 1, 2)
    rec.task_quarantine("baseline", "crash", 3)
    _assert_int_fields(rec.tracer)


# ----------------------------------------------------------------------
# TraceIndex.load reads its file once
# ----------------------------------------------------------------------
def test_index_load_opens_each_artifact_once(tmp_path, monkeypatch):
    telemetry = Telemetry(trace_capacity=64)
    tracer = telemetry.tracer
    sid = tracer.subject_id("n0->n1")
    tracer.record(5, EV_TX, sid, 2, 11)
    trace_path = str(tmp_path / "x.trace.jsonl")
    flight_path = str(tmp_path / "x.flight.jsonl")
    write_trace_jsonl(trace_path, tracer)
    dump_flight(flight_path, telemetry, "x", 3, 7, context={})

    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    assert TraceIndex.load(trace_path).records == [(5, EV_TX, 0, 2, 11)]
    assert TraceIndex.load(flight_path).header["scenario"] == "x"
    assert opened == [trace_path, flight_path]

