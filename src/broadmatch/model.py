"""Data model for budget-constrained keyword auction markets.

An instance is a bipartite market between advertisers (each with a daily
budget) and keywords (each with a daily query volume).  An edge carries the
advertiser's effective score on that keyword.  Edges are tagged ``base`` or
``extension`` so that a market and its broad-match extension can live in a
single document; the base graph is the sub-market restricted to base edges.

All monetary scalars are exact ``fractions.Fraction`` values.  Drop-out
times involve floor(budget / price), which is discontinuous, so floating
point is never used anywhere in the engine; rationals enter as JSON strings
like ``"2.3"`` or ``"23/10"`` (or plain integers) and are canonicalized on
load.  Loaders read record lists by column; digests hash ``instance_text``.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring_ascii
from operator import attrgetter, gt, itemgetter, sub
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

BASE = "base"
EXTENSION = "extension"
_TAGS = (BASE, EXTENSION)
ZERO = Fraction(0)


class ModelError(ValueError):
    """Raised when a document fails schema or consistency validation.

    ``errors`` is a list of ``{"path": ..., "message": ...}`` dicts naming
    every offending location, so callers can render a structured report.
    """

    def __init__(self, errors: List[dict]):
        self.errors = list(errors)
        lines = ["%s: %s" % (e["path"], e["message"]) for e in self.errors]
        super().__init__("; ".join(lines))


def _err(errors: List[dict], path: str, message: str) -> None:
    errors.append({"path": path, "message": message})


def digit_limit_error(text: str) -> Optional[str]:
    """Why ``Fraction(text)`` is refused unbuilt, or None: its mantissa
    digits plus its exponent's magnitude pass the interpreter's limit on
    int-string digits (``sys.get_int_max_str_digits()``, no bound at 0), so
    building it could take unbounded time and writing it would fail."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    mantissa, _, power = text.lower().partition("e")
    power = power.strip().lstrip("+-").replace("_", "").lstrip("0") or "0"
    if not limit or not power.isdecimal():
        return None  # ``Fraction`` reads or refuses it as it is
    digits = sum(c.isdecimal() for c in mantissa)
    if len(power) > len(str(limit)) or digits + int(power) > limit:
        return ("too many digits: mantissa and exponent pass the "
                "interpreter's limit of %d" % limit)
    return None


def _rational(value):
    """An exact rational read from a JSON scalar: its ``Fraction``, or the
    message of the error it is refused with.

    Accepts integers and strings such as ``"2.3"``, ``"23/10"`` or ``"45"``.
    JSON floats are refused: a decimal literal in the source text must be
    quoted to stay exact.  A string of ASCII digits, with an optional
    leading minus and an optional ``/`` and ASCII-digit denominator, is read
    with ``int``; any other string goes to ``Fraction(str)``, so both ways
    accept and refuse the same strings, unless ``digit_limit_error``
    refuses it first.  A loader records a refused value as an error at its
    field, and reads it as 0.
    """
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        try:
            if (digits.isascii() and digits.isdigit()
                    and (not slash or den.isascii() and den.isdigit())):
                return (Fraction(int(num), int(den)) if slash
                        else Fraction(int(num)))
            return digit_limit_error(value) or Fraction(value)
        except (ValueError, ZeroDivisionError):
            return "not a rational: %r" % value
    if isinstance(value, bool):
        return "expected integer or rational string, got boolean"
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return "floats are not exact; quote the value, e.g. \"2.3\""
    return "expected integer or rational string, got %s" % type(value).__name__


def format_rational(x: Fraction) -> str:
    """Canonical text form: ``"45"`` for integers, else ``"p/q"`` in lowest terms."""
    return str(x)


def _check_keys(obj: dict, path: str, required: Sequence[str],
                optional: Sequence[str], errors: List[dict]) -> None:
    for key in required:
        if key not in obj:
            _err(errors, path, "missing key %r" % key)
    for key in obj:
        if key not in required and key not in optional:
            _err(errors, path, "unknown key %r" % key)


def _decode(document, kind: str) -> dict:
    """The object a loader reads: ``document`` parsed if it is JSON text,
    as given otherwise; anything but a JSON object, bytes that do not
    decode as text, text nested too deep to parse, and an integer literal
    past Python's int-to-string digit limit are refused."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except UnicodeDecodeError as exc:
            raise ModelError([{"path": "$",
                               "message": "invalid text encoding: %s" % exc}])
        except (ValueError, RecursionError) as exc:  # JSONDecodeError too
            raise ModelError([{"path": "$", "message": "invalid JSON: %s" % exc}])
    if not isinstance(document, dict):
        raise ModelError([{"path": "$",
                           "message": "%s document must be a JSON object" % kind}])
    return document


def _walk_order(pending: List[tuple]) -> List[dict]:
    """Errors held as (row, path, message) check by check, in walk order."""
    pending.sort(key=itemgetter(0))  # stable: a row's checks keep their order
    return [{"path": path, "message": message} for _, path, message in pending]


class _Section:
    """The objects of the list ``doc[key]``, by column: ``columns`` holds one
    list per field of ``fields`` and then ``optional`` (each maps a field to
    what an object without it reads), ``at[m]`` row m's list position.  A
    check lists the rows that fail it, and ``fail`` builds their errors in
    ``pending``; key errors come first in their row, repeats after all.  A
    check lists rows only when a test of the whole column's value types or
    values, run in C, fails: a bool, float, None or subclass always does."""

    def __init__(self, doc: dict, key: str, fields: dict, optional: dict = {}):
        self.key, self.pending = key, []
        items = doc.get(key, [])
        if not isinstance(items, list):
            self.pending.append((-1, "$." + key, "expected a list"))
            items = []
        objs = (items if set(map(type, items)) <= {dict}
                else [item for item in items if isinstance(item, dict)])
        self.at = range(len(items))
        if len(objs) < len(items):
            self.at = [n for n, x in enumerate(items) if isinstance(x, dict)]
            self.pending += [(n, "$.%s[%d]" % (key, n), "expected an object")
                             for n, x in enumerate(items)
                             if not isinstance(x, dict)]
        every = {**fields, **optional}
        get = itemgetter(*every)
        try:  # one pass, when each object holds every key and no other
            rows = list(map(get, objs))
            if set(map(len, objs)) - {len(every)}:
                raise KeyError(key)
        except KeyError:
            for m in [m for m, x in enumerate(objs) if x.keys() != every.keys()]:
                if not fields.keys() <= objs[m].keys() <= every.keys():
                    n, found = self.at[m], []
                    _check_keys(objs[m], "$.%s[%d]" % (key, n), fields,
                                optional, found)
                    self.pending += [(n, e["path"], e["message"]) for e in found]
            rows = [get({**every, **x}) for x in objs]  # a field it lacks: its default
        self.columns = list(map(list, zip(*rows))) or [[] for _ in every]

    def fail(self, field: str, rows: List[int], message) -> List[int]:
        """Errors at ``field`` (".id", "" for the object) of ``rows``, which it
        returns; ``message`` is a text or, given a row, its text."""
        if rows:
            self.pending += [(self.at[m], "$.%s[%d]%s" % (self.key, self.at[m], field),
                              message if isinstance(message, str)
                              else message(m)) for m in rows]
        return rows

    def strings(self, field: str, col: List) -> None:
        """Check the column ``col`` holds non-empty strings; "" where not."""
        if not (set(map(type, col)) <= {str} and "" not in col):
            bad = [m for m, v in enumerate(col) if not (isinstance(v, str) and v)]
            for m in self.fail(field, bad, "expected a non-empty string"):
                col[m] = ""

    def ints(self, field: str, col: List) -> None:
        """Check the column ``col`` holds ints, not bools; 0 where not."""
        if not set(map(type, col)) <= {int}:
            bad = [m for m, v in enumerate(col)
                   if not isinstance(v, int) or isinstance(v, bool)]
            for m in self.fail(field, bad, lambda m: "expected an integer, "
                               "got %s" % type(col[m]).__name__):
                col[m] = 0

    def rationals(self, field: str, col: List, memo: Dict[str, object]) -> None:
        """Read the column ``col`` as ``_rational`` reads each value, 0
        where it fails; by ``memo``, a document parses each text once."""
        for text in {v for v in col if type(v) is str}.difference(memo):
            memo[text] = _rational(text)
        col[:] = [memo[v] if type(v) is str else _rational(v) for v in col]
        if not set(map(type, col)) <= {Fraction}:
            bad = [m for m, x in enumerate(col) if type(x) is str]
            for m in self.fail(field, bad, col.__getitem__):
                col[m] = ZERO

    def below(self, field: str, col: List[int], low: int, message: str) -> None:
        """An error, ``message``, on each int of the column ``col`` below ``low``."""
        if min(col, default=low) < low:
            self.fail(field, [m for m, v in enumerate(col) if v < low], message)

    def repeats(self, field: str, keys: Sequence, message: str) -> None:
        """An error, ``message % (key,)``, on each repeat of a key."""
        if len(set(keys)) < len(keys):
            seen: set = set()  # seen.add(k) is None: false for a first k
            self.pending += [(math.inf, "$.%s[%d]%s" % (self.key, self.at[m], field),
                              message % (k,)) for m, k in enumerate(keys)
                             if k in seen or seen.add(k)]


@dataclass(frozen=True)
class SlotParams:
    """Slot count and per-slot clickabilities, strictly decreasing."""

    gamma: Tuple[Fraction, ...]

    @property
    def count(self) -> int:
        return len(self.gamma)

    @cached_property
    def drops(self) -> Tuple[Fraction, ...]:
        """gamma_j - gamma_{j+1} for j = 1..K, with gamma_{K+1} = 0: the
        coefficients of the slot-price suffix sums, computed once."""
        g = self.gamma
        return tuple(g[j] - (g[j + 1] if j + 1 < len(g) else 0)
                     for j in range(len(g)))

    @cached_property
    def scaled(self) -> Tuple[int, Tuple[int, ...], Tuple[int, ...]]:
        """(G, gamma times G, ``drops`` times G), G the lcm of the gamma
        denominators: the day engine's int clickabilities and price
        coefficients, computed once, the latter as ``g[j] - g[j + 1]``."""
        G = math.lcm(*(x.denominator for x in self.gamma))
        g = tuple(x.numerator * (G // x.denominator) for x in self.gamma)
        return G, g, tuple(map(sub, g, g[1:] + (0,)))


# Records: slotted dataclasses, not frozen ones, whose every field set goes
# through object.__setattr__ (3x the build time); nothing changes a record.
@dataclass(slots=True, unsafe_hash=True)
class Keyword:
    id: str
    volume: int


@dataclass(slots=True, unsafe_hash=True)
class Advertiser:
    id: str
    budget: Fraction


@dataclass(slots=True, unsafe_hash=True)
class Edge:
    advertiser: str
    keyword: str
    score: Fraction
    tag: str = BASE


@dataclass(frozen=True)
class Instance:
    """An immutable market: slots, keywords, advertisers, scored edges.

    Lookup tables are materialized once in ``__post_init__``; the object is
    safe to share across threads.
    """

    slots: SlotParams
    keywords: Tuple[Keyword, ...]
    advertisers: Tuple[Advertiser, ...]
    edges: Tuple[Edge, ...]
    _kw: Dict[str, Keyword] = field(repr=False, compare=False, default_factory=dict)
    _adv: Dict[str, Advertiser] = field(repr=False, compare=False, default_factory=dict)
    _edge: Dict[Tuple[str, str], Edge] = field(repr=False, compare=False, default_factory=dict)
    _kw_order: Dict[str, int] = field(repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        self._kw.update({k.id: k for k in self.keywords})
        self._adv.update({a.id: a for a in self.advertisers})
        self._edge.update({(e.advertiser, e.keyword): e for e in self.edges})
        self._kw_order.update({k.id: n for n, k in enumerate(self.keywords)})

    # -- lookups ------------------------------------------------------------

    def volume(self, keyword: str) -> int:
        return self._kw[keyword].volume

    def budget(self, advertiser: str) -> Fraction:
        return self._adv[advertiser].budget

    def has_edge(self, advertiser: str, keyword: str) -> bool:
        return (advertiser, keyword) in self._edge

    def score(self, advertiser: str, keyword: str) -> Fraction:
        return self._edge[(advertiser, keyword)].score

    def keyword_index(self, keyword: str) -> int:
        """Position of the keyword in the document order (tie-break rank)."""
        return self._kw_order[keyword]

    @cached_property
    def _keywords_by_advertiser(self) -> Dict[str, List[str]]:
        """Each advertiser's keywords in keyword order, indexed on the
        first ``keywords_of`` call, which loading and simulating never
        make."""
        index: Dict[str, List[str]] = {}
        for e in self.edges:
            index.setdefault(e.advertiser, []).append(e.keyword)
        for kws in index.values():
            kws.sort(key=self._kw_order.__getitem__)
        return index

    def keywords_of(self, advertiser: str) -> List[str]:
        return list(self._keywords_by_advertiser.get(advertiser, ()))

    def advertisers_on(self, keyword: str) -> List[str]:
        return sorted(e.advertiser for e in self.edges if e.keyword == keyword)

    def base_edges(self) -> Tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.tag == BASE)

    def extension_edges(self) -> Tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.tag == EXTENSION)

    def base_instance(self) -> "Instance":
        """The sub-market restricted to base edges."""
        return Instance(self.slots, self.keywords, self.advertisers, self.base_edges())


def load_instance(document) -> Instance:
    """Parse and validate an instance from a JSON string or parsed object."""
    doc = _decode(document, "instance")
    errors: List[dict] = []
    _check_keys(doc, "$", ("slots", "keywords", "advertisers", "edges"), (), errors)
    if errors:
        raise ModelError(errors)

    slots_doc = doc["slots"]
    slots = SlotParams(())
    if not isinstance(slots_doc, dict):
        _err(errors, "$.slots", "expected an object")
    else:
        _check_keys(slots_doc, "$.slots", ("count", "clickability"), (), errors)
        count = slots_doc.get("count", 0)
        if not isinstance(count, int) or isinstance(count, bool):
            _err(errors, "$.slots.count",
                 "expected an integer, got %s" % type(count).__name__)
            count = 0
        click = slots_doc.get("clickability", [])
        if not isinstance(click, list):
            _err(errors, "$.slots.clickability", "expected a list")
            click = []
        gamma = list(map(_rational, click))
        if not set(map(type, gamma)) <= {Fraction}:
            for n in [n for n, x in enumerate(gamma) if type(x) is str]:
                _err(errors, "$.slots.clickability[%d]" % n, gamma[n])
                gamma[n] = ZERO
        slots = SlotParams(tuple(gamma))
        g = slots.scaled[1]  # gamma times a positive int: the same signs, order
        if count < 1:
            _err(errors, "$.slots.count", "slot count must be >= 1")
        if len(g) != count:
            _err(errors, "$.slots.clickability", "expected %d values, got %d" % (count, len(g)))
        if min(g, default=1) <= 0:
            for n in [n for n, x in enumerate(g) if x <= 0]:
                _err(errors, "$.slots.clickability[%d]" % n, "clickability must be positive")
        if not all(map(gt, g, g[1:])):
            for n in [n for n in range(1, len(g)) if g[n - 1] <= g[n]]:
                _err(errors, "$.slots.clickability[%d]" % n,
                     "clickability not strictly decreasing")

    rows = _Section(doc, "keywords", {"id": "", "volume": 0})
    kw_ids, volumes = rows.columns
    rows.strings(".id", kw_ids)
    rows.ints(".volume", volumes)
    rows.below(".volume", volumes, 1, "volume must be a positive integer")
    rows.repeats(".id", kw_ids, "duplicate keyword id %r")
    errors += _walk_order(rows.pending)

    memo: Dict[str, object] = {}
    rows = _Section(doc, "advertisers", {"id": "", "budget": 0})
    adv_ids, budgets = rows.columns
    rows.strings(".id", adv_ids)
    rows.rationals(".budget", budgets, memo)
    rows.below(".budget", [b.numerator for b in budgets], 0,
               "budget must be nonnegative")
    rows.repeats(".id", adv_ids, "duplicate advertiser id %r")
    errors += _walk_order(rows.pending)

    rows = _Section(doc, "edges", {"advertiser": "", "keyword": "", "score": 0},
                    {"tag": BASE})
    advs, kws, scores, tags = rows.columns
    rows.strings(".advertiser", advs)
    rows.strings(".keyword", kws)
    rows.rationals(".score", scores, memo)
    for field, col, known in (("advertiser", advs, {"", *adv_ids}),
                              ("keyword", kws, {"", *kw_ids})):  # "": refused
        if not known.issuperset(col):
            rows.fail("." + field, [m for m, x in enumerate(col) if x not in known],
                      lambda m: "unknown %s %r" % (field, col[m]))
    rows.below(".score", [x.numerator for x in scores], 1, "score must be positive")
    if not (set(map(type, tags)) <= {str} and set(_TAGS).issuperset(tags)):
        rows.fail(".tag", [m for m, tag in enumerate(tags) if tag not in _TAGS],
                  "tag must be 'base' or 'extension'")
    rows.repeats("", list(zip(advs, kws)), "duplicate edge %r")
    errors += _walk_order(rows.pending)

    if errors:
        raise ModelError(errors)
    return Instance(slots, tuple(map(Keyword, kw_ids, volumes)),
                    tuple(map(Advertiser, adv_ids, budgets)),
                    tuple(map(Edge, advs, kws, scores, tags)))


def instance_text(instance: Instance) -> str:
    """The canonical text of an instance, which the CLI's digest hashes: the
    ``json.dumps`` of its document with sorted keys, each rational in
    ``format_rational``'s form, written straight from the records."""
    enc = encode_basestring_ascii
    return ('{"advertisers": [%s], "edges": [%s], "keywords": [%s], "slots": '
            '{"clickability": [%s], "count": %d}}' % (
                ", ".join(['{"budget": "%s", "id": %s}' % (a.budget, enc(a.id))
                           for a in instance.advertisers]),
                ", ".join(['{"advertiser": %s, "keyword": %s, "score": "%s", "tag": %s}'
                           % (enc(e.advertiser), enc(e.keyword), e.score, enc(e.tag))
                           for e in instance.edges]),
                ", ".join(['{"id": %s, "volume": %d}' % (enc(k.id), k.volume)
                           for k in instance.keywords]),
                ", ".join(['"%s"' % g for g in instance.slots.gamma]),
                instance.slots.count))


def serialize_instance(instance: Instance) -> dict:
    """Canonical document form (``instance_text`` parsed); ``load_instance``
    of the result is identity."""
    return json.loads(instance_text(instance))


# -- budget splits and schedules --------------------------------------------


@dataclass(slots=True, unsafe_hash=True)
class Allocation:
    """One advertiser's commitment on one keyword.

    ``queries`` is the number of queries the advertiser takes part in during
    the day; ``budget`` is the money committed to this keyword (spend can be
    lower when the last affordable query is cheaper than the leftover).
    ``start_query`` is 1 for plain splits; schedules may enter mid-stream.
    """

    advertiser: str
    keyword: str
    queries: int
    budget: Fraction
    start_query: int = 1


@dataclass(frozen=True)
class Profile:
    """A full strategy profile: one Allocation per participating edge."""

    rows: Tuple[Allocation, ...]
    kind: str = "split"  # or "schedule"
    _row: Dict[Tuple[str, str], Allocation] = field(repr=False, compare=False,
                                                    default_factory=dict)
    _on: Dict[str, Tuple[Allocation, ...]] = field(repr=False, compare=False,
                                                   default_factory=dict)

    def __post_init__(self):
        self._row.update({(r.advertiser, r.keyword): r for r in self.rows})
        on: Dict[str, List[Allocation]] = {}
        for r in self.rows:
            on.setdefault(r.keyword, []).append(r)
        self._on.update({kw: tuple(rs) for kw, rs in on.items()})

    def row(self, advertiser: str, keyword: str) -> Optional[Allocation]:
        return self._row.get((advertiser, keyword))

    def rows_on(self, keyword: str) -> Tuple[Allocation, ...]:
        """The rows on a keyword, in profile order."""
        return self._on.get(keyword, ())

    def rows_of(self, advertiser: str) -> List[Allocation]:
        return [r for r in self.rows if r.advertiser == advertiser]

    def committed(self, advertiser: str, keyword: Optional[str] = None) -> Fraction:
        if keyword is not None:
            r = self._row.get((advertiser, keyword))
            return r.budget if r is not None else Fraction(0)
        return sum((r.budget for r in self.rows_of(advertiser)), Fraction(0))

    def replacing(self, advertiser: str, new_rows: Iterable[Allocation]) -> "Profile":
        kept = [r for r in self.rows if r.advertiser != advertiser]
        return Profile(tuple(kept) + tuple(new_rows), self.kind)


# each kind's fields, with what a row without one reads
_FIELDS = {"split": {"advertiser": "", "keyword": "", "queries": 0, "budget": 0}}
_FIELDS["schedule"] = {**_FIELDS["split"], "start_query": 1}


def _load_profile(document, kind: str) -> Profile:
    doc = _decode(document, kind)
    errors: List[dict] = []
    _check_keys(doc, "$", ("allocations",), (), errors)
    rows = _Section(doc, "allocations", _FIELDS[kind])
    advs, kws, queries, budgets, *starts = rows.columns
    rows.strings(".advertiser", advs)
    rows.strings(".keyword", kws)
    rows.ints(".queries", queries)
    rows.rationals(".budget", budgets, {})
    for col in starts:  # a schedule's
        rows.ints(".start_query", col)
        rows.below(".start_query", col, 1, "start_query must be >= 1")
    rows.below(".queries", queries, 0, "queries must be nonnegative")
    rows.below(".budget", [b.numerator for b in budgets], 0,
               "budget must be nonnegative")
    rows.repeats("", list(zip(advs, kws)), "duplicate allocation %r")
    errors += _walk_order(rows.pending)
    if errors:
        raise ModelError(errors)
    return Profile(tuple(map(Allocation, *rows.columns)), kind)


def load_split(document) -> Profile:
    """Parse a budget split (all entries start at query 1)."""
    return _load_profile(document, "split")


def load_schedule(document) -> Profile:
    """Parse a schedule: a split whose entries carry explicit start queries."""
    return _load_profile(document, "schedule")


def serialize_profile(profile: Profile) -> dict:
    """The profile's document, with its kind's fields (``_FIELDS``)."""
    return {"allocations": [
        dict(zip(_FIELDS[profile.kind], (r.advertiser, r.keyword, r.queries,
                                         format_rational(r.budget), r.start_query)))
        for r in profile.rows]}


def validate_profile(instance: Instance, profile: Profile) -> List[dict]:
    """Static consistency of a profile against an instance, by column.

    Checks edge existence, volume bounds and per-advertiser budget caps,
    the caps on int sums over the lcm of each advertiser's budget
    denominators.  Whether each row's ``queries`` matches the simulated
    participation count is a dynamic property checked by
    ``simulate.check_profile_consistency``.
    """
    rows = profile.rows
    gone = profile._row.keys() - instance._edge.keys()
    missing = {n for n, r in enumerate(rows)  # rows off the market
               if (r.advertiser, r.keyword) in gone} if gone else set()
    pending = []
    for n in missing:
        adv, kw = rows[n].advertiser, rows[n].keyword
        field, message = (
            (".advertiser", "unknown advertiser %r" % adv)
            if adv not in instance._adv else
            (".keyword", "unknown keyword %r" % kw) if kw not in instance._kw
            else ("", "no edge (%s, %s) in the instance" % (adv, kw)))
        pending.append((n, "$.allocations[%d]%s" % (n, field), message))
    volume = {k.id: k.volume for k in instance.keywords}
    volumes = [volume.get(r.keyword, 0) for r in rows]
    for field in ("queries", "start_query"):
        pending += [(n, "$.allocations[%d].%s" % (n, field),
                     "exceeds keyword volume %d" % v) for n, (x, v) in
                    enumerate(zip(map(attrgetter(field), rows), volumes))
                    if x > v and n not in missing]
    errors = _walk_order(pending)
    committed: Dict[str, List[Fraction]] = {}
    for r in rows:
        committed.setdefault(r.advertiser, []).append(r.budget)
    for adv in sorted(committed):
        if adv not in instance._adv:
            continue
        budgets = committed[adv]
        L = math.lcm(*[b.denominator for b in budgets])
        total = sum([b.numerator * (L // b.denominator) for b in budgets])
        cap = instance.budget(adv)
        if total * cap.denominator > cap.numerator * L:
            _err(errors, "$.allocations", "advertiser %r commits %s > budget %s"
                 % (adv, Fraction(total, L), cap))
    return errors


# -- extensions ---------------------------------------------------------------


def check_extension(base: Instance, ext: Instance) -> dict:
    """Confirm ``ext`` extends ``base``: same market, superset of edges.

    Returns ``{"ok": bool, "errors": [...], "new_edges": [(adv, kw), ...]}``.
    Scores must agree on shared edges; slots, keywords, advertisers and
    budgets must be identical.
    """
    errors: List[dict] = []
    if base.slots.gamma != ext.slots.gamma:
        _err(errors, "$.slots", "slot parameters differ")
    base_kw = {k.id: k.volume for k in base.keywords}
    ext_kw = {k.id: k.volume for k in ext.keywords}
    if base_kw != ext_kw:
        _err(errors, "$.keywords", "keyword sets or volumes differ")
    base_adv = {a.id: a.budget for a in base.advertisers}
    ext_adv = {a.id: a.budget for a in ext.advertisers}
    if base_adv != ext_adv:
        _err(errors, "$.advertisers", "advertiser sets or budgets differ")
    new_edges: List[Tuple[str, str]] = []
    for e in base.edges:
        if not ext.has_edge(e.advertiser, e.keyword):
            _err(errors, "$.edges", "edge (%s, %s) missing from the extension"
                 % (e.advertiser, e.keyword))
        elif ext.score(e.advertiser, e.keyword) != e.score:
            _err(errors, "$.edges", "score changed on shared edge (%s, %s)"
                 % (e.advertiser, e.keyword))
    base_keys = {(e.advertiser, e.keyword) for e in base.edges}
    for e in ext.edges:
        if (e.advertiser, e.keyword) not in base_keys:
            new_edges.append((e.advertiser, e.keyword))
    return {"ok": not errors, "errors": errors, "new_edges": new_edges}


def all_in_profile(instance: Instance, skip: Sequence[str] = ()) -> Profile:
    """Profile committing each advertiser's full budget on every held edge.

    A what-if world for partition tables: each keyword sees every rival
    backed by her whole budget from query 1.  Not a valid split when an
    advertiser holds several edges (the same budget backs each keyword
    independently), so only feed it to table builders, never to a day.
    ``skip`` names advertisers left out.
    """
    return Profile(tuple(
        Allocation(e.advertiser, e.keyword, instance.volume(e.keyword),
                   instance.budget(e.advertiser))
        for e in instance.edges if e.advertiser not in skip))
