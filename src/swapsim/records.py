"""The record wire schema, its labels and its JSONL line form, on the standard library alone.

Every record file carries the same fields: trial id, ordering, the two
setting indices with their analyzer angles, the two +-1 outcomes, the joint
label and the event order.  This module owns those fields, their value sets
(orderings, Bell outcomes, analyzer angles) and both forms of a record: the
dict (``to_json_dict``) and the line (``write_records``,
``read_record_chunks`` and its counting form ``read_record_counts``, whose
fast path depends on ``_wire_doc`` putting ``trial_id`` first).  So record
files are read, written and tallied without numerical code or the
command-line parser.  ``measure``, ``qstate``, ``protocol`` and
``classical`` re-export the same objects.  The classes are NamedTuples and
``__slots__`` classes on ``_Frozen``, as are the engine's value classes, so
no command imports ``dataclasses`` and ``analyze`` does not import the
``inspect`` behind it either.
"""

from __future__ import annotations

import json
import math
import re
import sys
from enum import Enum
from typing import Callable, NamedTuple, Sequence, Union

# Trials per chunk: every batch path, blind-check included, draws, samples
# and renders this many trials at a time, and the reader parses this many
# records at a time, so memory stays flat and per-trial Python work is small.
CHUNK = 4096

# The four setting cells (setting0 index, setting3 index), in the order every
# table, tally and kind table lists them.  Cell roles in S = E(a,b) - E(a,b')
# + E(a',b) + E(a',b'): the minus sign sits on the (a, b') cell.
_SETTING_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))

# The default analyzer angles in degrees, (a, a') for photon 0 and (b, b')
# for photon 3: the canonical CHSH settings of both engines and the CLI.
_DEFAULT_ANGLES = ((0.0, 45.0), (22.5, 67.5))


class InsufficientDataError(ValueError):
    """A requested estimate has an empty setting cell after filtering.

    Defined here, beside the records, so the CLI maps it to its exit code
    without loading ``analysis``, which re-exports the same class.
    """


class RecordFormatError(ValueError):
    """A record line could not be parsed; carries its 1-based line number."""

    def __init__(self, line_number: int, message: str) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class BellKind(Enum):
    """The four maximally entangled two-qubit states.

    Declaration order is the package's canonical enumeration order wherever
    Bell outcomes are listed or sampled.
    """

    PSI_MINUS = "psi-minus"
    PSI_PLUS = "psi-plus"
    PHI_MINUS = "phi-minus"
    PHI_PLUS = "phi-plus"


class BsmMode(Enum):
    """Bell-state analyzer capability: all four outcomes, or the two-resolving optical version."""

    FULL = "full"
    PARTIAL = "partial"


class BsmOutcome(Enum):
    """Result label of a joint Bell measurement.

    OTHER is the coarse-grained bucket of a partial analyzer that cannot
    split phi- from phi+.
    """

    PSI_MINUS = "psi-minus"
    PSI_PLUS = "psi-plus"
    PHI_MINUS = "phi-minus"
    PHI_PLUS = "phi-plus"
    OTHER = "other"

    @property
    def bell_kind(self) -> Union[BellKind, None]:
        """Matching BellKind, or None for the unresolved bucket."""
        if self is BsmOutcome.OTHER:
            return None
        return BellKind(self.value)


_FULL_OUTCOMES = (
    BsmOutcome.PSI_MINUS,
    BsmOutcome.PSI_PLUS,
    BsmOutcome.PHI_MINUS,
    BsmOutcome.PHI_PLUS,
)
_PARTIAL_OUTCOMES = (BsmOutcome.PSI_MINUS, BsmOutcome.PSI_PLUS, BsmOutcome.OTHER)


def bsm_outcomes(mode: BsmMode) -> tuple[BsmOutcome, ...]:
    """Outcome labels of a Bell analyzer in canonical sampling order."""
    return _FULL_OUTCOMES if BsmMode(mode) is BsmMode.FULL else _PARTIAL_OUTCOMES


class _Frozen:
    """Immutable fields named, in order, by ``__slots__``, compared, hashed and shown as a frozen dataclass's.

    A subclass's ``__init__`` validates and hands the fields, in order, to
    ``_set``; one holding arrays takes object's ``__eq__`` and ``__hash__``.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class AnalyzerAngle(_Frozen):
    """Polarizer orientation in degrees, canonicalized to [0, 180).

    A polarization analyzer is invariant under a half turn, so angles are
    stored mod 180; 181 degrees and 1 degree are the same setting.
    """

    __slots__ = __match_args__ = ("degrees",)

    def __init__(self, degrees: float) -> None:
        value = float(degrees)
        if not math.isfinite(value):
            raise ValueError(f"angle must be finite, got {value!r}")
        self._set(value % 180.0)

    @property
    def radians(self) -> float:
        # one multiplication by pi/180, the same double as np.deg2rad
        return math.radians(self.degrees)


def as_angle(value: Union[AnalyzerAngle, float]) -> AnalyzerAngle:
    if isinstance(value, AnalyzerAngle):
        return value
    return AnalyzerAngle(float(value))


def setting_pair(name: str, value) -> tuple[AnalyzerAngle, AnalyzerAngle]:
    """A station's two candidate settings as angles; ValueError unless they differ mod 180."""
    first, second = value
    pair = (as_angle(first), as_angle(second))
    if pair[0].degrees == pair[1].degrees:
        raise ValueError(f"{name} must hold two distinct settings, got {pair}")
    return pair


class Ordering(Enum):
    """Temporal placement of the joint measurement relative to the outer ones."""

    BSM_FIRST = "bsm-first"
    POLARIZATIONS_FIRST = "pol-first"


def _wire_doc(record, ordering: str, label: str, events: list) -> dict:
    """The wire form of either record class: the shared fields around the class's ordering, label and events."""
    return {
        "trial_id": record.trial_id,
        "ordering": ordering,
        "setting0_index": record.setting0_index,
        "setting0_deg": float(f"{record.setting0_deg:.12g}"),
        "setting3_index": record.setting3_index,
        "setting3_deg": float(f"{record.setting3_deg:.12g}"),
        "outcome0": record.outcome0,
        "outcome3": record.outcome3,
        "bsm": label,
        "events": events,
    }


def _wire_int(doc: dict, name: str) -> int:
    """doc[name] as an int; ValueError for a string, a bool or a number with a fractional part."""
    value = doc[name]
    if type(value) is int or type(value) is float and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _wire_outcomes_and_id(doc: dict) -> tuple[int, int, int]:
    """outcome0, outcome3 (checked to be +-1) and trial_id of a wire document, parsed in that order."""
    outcome0, outcome3 = _wire_int(doc, "outcome0"), _wire_int(doc, "outcome3")
    if outcome0 not in (-1, +1) or outcome3 not in (-1, +1):
        raise ValueError(f"outcomes must be +-1, got {outcome0}, {outcome3}")
    return outcome0, outcome3, _wire_int(doc, "trial_id")


def _wire_degrees(doc: dict, name: str) -> float:
    """doc[name] as a float; ValueError unless it is a finite JSON number (a bool or a string is not)."""
    value = doc[name]
    if type(value) is float and math.isfinite(value) or type(value) is int and abs(value) <= sys.float_info.max:
        return float(value)
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def _wire_settings(doc: dict) -> tuple[int, float, int, float]:
    """setting0_index, setting0_deg, setting3_index, setting3_deg; each index is checked to be 0 or 1."""
    index0, index3 = _wire_int(doc, "setting0_index"), _wire_int(doc, "setting3_index")
    if index0 not in (0, 1) or index3 not in (0, 1):
        raise ValueError(f"setting indices must be 0 or 1, got {index0}, {index3}")
    return index0, _wire_degrees(doc, "setting0_deg"), index3, _wire_degrees(doc, "setting3_deg")


def _wire_events(doc: dict) -> tuple[str, ...]:
    """doc["events"] as a tuple; ValueError unless it is a list of strings."""
    events = doc["events"]
    if type(events) is not list or not all(type(event) is str for event in events):
        raise ValueError(f"events must be a list of strings, got {events!r}")
    return tuple(events)


class TrialRecord(NamedTuple):
    """One simulated run, complete enough to redo any analysis."""

    trial_id: int
    ordering: Ordering
    setting0_index: int
    setting0_deg: float
    setting3_index: int
    setting3_deg: float
    outcome0: int
    outcome3: int
    bsm: BsmOutcome
    events: tuple[str, ...]

    @property
    def bsm_label(self) -> str:
        return self.bsm.value

    def to_json_dict(self) -> dict:
        return _wire_doc(self, self.ordering.value, self.bsm.value, list(self.events))

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TrialRecord":
        outcome0, outcome3, trial_id = _wire_outcomes_and_id(doc)
        return cls(trial_id, Ordering(doc["ordering"]), *_wire_settings(doc), outcome0, outcome3,
                   BsmOutcome(doc["bsm"]), _wire_events(doc))


class ClassicalRecord(NamedTuple):
    """One hidden-variable trial; same wire schema as a quantum record."""

    trial_id: int
    setting0_index: int
    setting0_deg: float
    setting3_index: int
    setting3_deg: float
    outcome0: int
    outcome3: int
    marker: str

    @property
    def bsm_label(self) -> str:
        """The marker plays the role a joint-measurement outcome plays upstream."""
        return self.marker

    def to_json_dict(self) -> dict:
        return _wire_doc(self, "classical", self.marker, [])

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ClassicalRecord":
        if doc.get("ordering") != "classical":
            raise ValueError(f"not a classical record: ordering={doc.get('ordering')!r}")
        outcome0, outcome3, trial_id = _wire_outcomes_and_id(doc)
        if _wire_events(doc):  # none are kept, so a rewritten record would lose them
            raise ValueError(f"a classical record's events must be empty, got {doc['events']!r}")
        marker = doc["bsm"]
        if type(marker) is not str:
            raise ValueError(f"bsm must be a string, got {marker!r}")
        return cls(trial_id, *_wire_settings(doc), outcome0, outcome3, marker)


def kind_index(i0, i3, o0, o3, label, label_count: int):
    """Index of a record's fields but trial_id among 16 * label_count kinds.

    Operators only, so it takes ints or numpy arrays alike; ``label``
    indexes the record family's labels, and kind_templates is the inverse.
    """
    return ((i0 * 2 + i3) * 4 + (o0 < 0) * 2 + (o3 < 0)) * label_count + label


def kind_templates(angles0: Sequence[AnalyzerAngle], angles3: Sequence[AnalyzerAngle], labels: Sequence,
                   make: Callable) -> tuple:
    """The kind table of a batch: ``make(i0, deg0, i3, deg3, o0, o3, label)`` for every kind, in kind_index order.

    deg0 and deg3 are the degrees of angles0[i0] and angles3[i3], and label
    runs over ``labels``: the record's fields from setting0_index to its
    label, in wire order, so ``make`` only adds what its record family adds.
    """
    deg0, deg3 = [angle.degrees for angle in angles0], [angle.degrees for angle in angles3]
    return tuple(
        make(i0, deg0[i0], i3, deg3[i3], o0, o3, label)
        for i0, i3 in _SETTING_PAIRS
        for o0 in (+1, -1)
        for o3 in (+1, -1)
        for label in labels
    )


class RecordChunk(_Frozen):
    """Consecutive records, as columns: the one form from sampler to file to tally.

    Row r is ``templates[kinds[r]]`` with trial_id ``trial_ids[r]``, so rows
    of one kind differ in trial_id alone.  A sampler's chunks share one
    kind table (kind_templates) for the whole batch; a reader's chunk holds
    the kinds it met, numbered by first appearance.
    """

    __slots__ = __match_args__ = ("trial_ids", "kinds", "templates")

    def __init__(self, trial_ids: list[int], kinds: list[int], templates: Sequence) -> None:
        self._set(trial_ids, kinds, templates)

    def records(self):
        """The rows as records, in row order."""
        rows = {}  # kind -> (the record class's _make, the template's fields after trial_id), for kinds met
        for trial_id, kind in zip(self.trial_ids, self.kinds):
            row = rows.get(kind)
            if row is None:
                template = self.templates[kind]
                row = rows[kind] = (template._make, template[1:])
            yield row[0]((trial_id, *row[1]))


# A line as write_records writes it: the prefix of _wire_doc's leading trial_id,
# the id (at most 18 digits fit in int64) and a tail the other fields fix.
_TRIAL_ID_PREFIX = '{"trial_id":'
_CANONICAL_LINE = re.compile(re.escape(_TRIAL_ID_PREFIX) + r"(0|[1-9][0-9]{0,17})(,.*)")

# What surrogateescape makes of the bytes 0x80-0xff that do not decode as UTF-8.
_NOT_UTF8 = re.compile("[\udc80-\udcff]")

# Tails remembered per file.  Past this many, a new tail takes the full
# parse, so memory stays flat on files whose lines share no tails.
_MAX_TAILS = 4096


def _record_line(record) -> str:
    return json.dumps(record.to_json_dict(), separators=(",", ":")) + "\n"


def _parse_line(text: str, line_number: int):
    """The record of one stripped line, by json.loads; RecordFormatError if it has none.

    The reader decodes with surrogateescape, so a byte that is not UTF-8
    arrives as a lone surrogate, which is refused here.
    """
    try:
        bad = _NOT_UTF8.search(text)
        if bad:
            raise ValueError(f"byte 0x{ord(bad[0]) - 0xDC00:02x} is not UTF-8")
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise TypeError(f"a record must be a JSON object, not {type(doc).__name__}")
        if doc.get("ordering") == "classical":
            return ClassicalRecord.from_json_dict(doc)
        return TrialRecord.from_json_dict(doc)
    except (ValueError, KeyError, TypeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise RecordFormatError(line_number, str(exc)) from exc


def _check_angles(angles: dict, record, line_number: int) -> None:
    """Note the record's setting angles in ``angles``; RecordFormatError if an index had another angle.

    A record file comes from one experiment, so each setting index of each
    station carries one analyzer angle throughout.  The wire check has
    rejected every non-finite angle on its own line, so no NaN, which
    equals no angle, reaches the comparison.
    """
    for station, index, degrees in ((0, record.setting0_index, record.setting0_deg),
                                    (3, record.setting3_index, record.setting3_deg)):
        seen = angles.setdefault((station, index), degrees)
        if seen != degrees:
            raise RecordFormatError(line_number, f"setting{station}_index {index} has angle {degrees!r} "
                                                 f"here but {seen!r} above: not one experiment")


def _new_kind(stripped: str, tail, line_number: int, known: dict, angles: dict):
    """A line's record by _parse_line and _check_angles, and its tail, now in ``known``, or None for a kind of its own.

    A tail is remembered while ``known`` holds fewer than _MAX_TAILS, unless
    it has a "trial_id" key, escaped or not, which json.loads would let
    override the leading id: with null in that id's place such a key shows
    as a value that is not None (a null one failed the line's own parse).
    """
    record = _parse_line(stripped, line_number)
    _check_angles(angles, record, line_number)
    if tail is None or len(known) >= _MAX_TAILS or json.loads(_TRIAL_ID_PREFIX + "null" + tail)["trial_id"] is not None:
        return record, None
    known[tail] = record
    return record, tail


def read_record_chunks(path: str):
    """Yield a JSONL record file as RecordChunks of up to CHUNK records.

    A line in the writers' form costs a match and a dict lookup: json.loads
    runs on its tail's first line only.  Any other line (other spacing or
    key order, an id that is not a plain non-negative integer) is parsed
    whole and becomes a kind of its own.  The records, and the line number
    and message of a RecordFormatError, are those of parsing every line
    with _parse_line and _check_angles; before the error, the records above
    the bad line are yielded.  Blank lines are skipped.
    """
    known: dict[str, object] = {}  # remembered tail -> its record
    angles: dict[tuple[int, int], float] = {}  # (station, setting index) -> degrees
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        trial_ids, kinds, templates, local = [], [], [], {}
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            match = _CANONICAL_LINE.fullmatch(stripped)
            tail = match[2] if match else None
            kind = local.get(tail)
            if kind is None:  # the first line of its kind in this chunk
                template = known.get(tail)
                if template is None:  # a new tail, or not the writers' form: the full parse
                    try:
                        template, tail = _new_kind(stripped, tail, line_number, known, angles)
                    except RecordFormatError:
                        if trial_ids:
                            yield RecordChunk(trial_ids, kinds, templates)
                        raise
                kind = len(templates)
                templates.append(template)
                if tail is not None:
                    local[tail] = kind
            trial_ids.append(int(match[1]) if tail is not None else template.trial_id)
            kinds.append(kind)
            if len(trial_ids) == CHUNK:
                yield RecordChunk(trial_ids, kinds, templates)
                trial_ids, kinds, templates, local = [], [], [], {}
        if trial_ids:
            yield RecordChunk(trial_ids, kinds, templates)


def read_record_counts(path: str):
    """Yield (record, count) pairs of a JSONL record file: read_record_chunks's lines, checks and errors, no ids.

    A line with a known tail costs one count.  A kind of its own is yielded
    at once as (record, 1), and each known tail's (record, count) at the end.
    """
    known, angles, counts = {}, {}, {}  # as in read_record_chunks; known tail -> its lines
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            match = _CANONICAL_LINE.fullmatch(stripped)
            tail = match[2] if match else None
            if tail not in counts:
                record, tail = _new_kind(stripped, tail, line_number, known, angles)
                if tail is None:
                    yield record, 1
                    continue
                counts[tail] = 0
            counts[tail] += 1
    yield from ((known[tail], count) for tail, count in counts.items())


def _tails(records) -> list[str]:
    """Each record's line after _TRIAL_ID_PREFIX and its trial_id, cut from its _record_line."""
    tails = []
    for record in records:
        line = _record_line(record)
        head = f"{_TRIAL_ID_PREFIX}{record.trial_id}"
        if not line.startswith(head):
            raise RuntimeError(f"record line does not start with its trial_id: {line!r}")
        tails.append(line[len(head):])
    return tails


def write_records(handle, chunks) -> int:
    """Write RecordChunks as JSONL to ``handle``; returns the record count.

    Row r is the line _TRIAL_ID_PREFIX + trial_ids[r] + the tail of
    templates[kinds[r]].  Tails are cut by _tails once per templates list,
    so once per file for a sampler's shared kind table, and every line
    equals _record_line of its record by construction.
    """
    count = 0
    templates = tails = None
    for chunk in chunks:
        if chunk.templates is not templates:
            templates, tails = chunk.templates, _tails(chunk.templates)
        handle.writelines(f"{_TRIAL_ID_PREFIX}{trial_id}{tails[kind]}"  # streamed: no chunk-long list of lines
                          for trial_id, kind in zip(chunk.trial_ids, chunk.kinds))
        count += len(chunk.trial_ids)
    return count
