"""Command-line front end for the engine, plus the bundled example instances.

Reports are deterministic JSON (sorted keys, two-space indent, LF endings):
identical inputs produce byte-identical output.  Every exact rational is
emitted as an object ``{"exact": "p/q", "approx": "0.000000"}``.  One writer
(``_dumps``) walks the engine's result once and emits exactly the bytes of
``json.dumps(..., sort_keys=True, indent=2)``: with an ``indent`` the
standard encoder falls back to pure Python on CPython 3.10 to 3.12, and it
would walk a second tree built only to hold those pairs.  A report's
``instance`` is the sha256 digest of ``model.instance_text``.

``--format table`` prints the same envelope (``_lines``), one ``path  value``
line per leaf such as ``result.moves[0].start_query  15``, errors included;
an argv that argparse rejects has no parsed ``--format`` and stays JSON.  A
subcommand's argv goes straight to its own parser (``_parse``).

Exit codes: 0 success, 1 engine error, 2 usage or schema error,
3 verification failed (so ``verify`` slots into CI pipelines).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import shutil
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import acbm as acbm_mod
from . import bestresp, equilibrium, simulate as simulate_mod
from .model import (Instance, ModelError, Profile, all_in_profile,
                    check_extension, digit_limit_error, format_rational,
                    instance_text, load_instance, load_schedule, load_split,
                    serialize_profile, validate_profile)
from .partition import INFINITE, KeywordDay, tables_for


class UsageError(Exception):
    """Bad invocation or bad input file: the user can fix it, exit 2."""


# -- fixtures -----------------------------------------------------------------

_FIXTURE_DIR = Path(__file__).parent / "fixtures"

FIXTURES = {
    "single-extension": {
        "note": "one broadening edge whose advertiser-chosen use loses money "
                "while a scheduled late entry gains",
        "files": ["single-extension-base.json", "single-extension-ext.json",
                  "single-extension-advshift.split.json",
                  "single-extension-entry.schedule.json"],
    },
    "greedy-vs-exact": {
        "note": "two keywords where the greedy walk stops one step short of "
                "the exact optimum",
        "files": ["greedy-vs-exact.json"],
    },
    "agreeing-methods": {
        "note": "greedy, exact and brute force all land on the same split",
        "files": ["agreeing-methods.json",
                  "agreeing-methods-allk2.split.json"],
    },
    "three-keyword-family": {
        "note": "two stable splits of the same market with opposite revenue "
                "effects (small and large volumes)",
        "files": ["three-keyword-family.json",
                  "three-keyword-family-shifted.split.json",
                  "three-keyword-family-stayhome.split.json",
                  "three-keyword-family-large.json",
                  "three-keyword-family-large-shifted.split.json",
                  "three-keyword-family-large-stayhome.split.json"],
    },
    "edge-no-shift": {
        "note": "a broadening edge the stable split simply ignores",
        "files": ["edge-no-shift-base.json", "edge-no-shift-ext.json",
                  "edge-no-shift-noshift.split.json"],
    },
    "edge-shift": {
        "note": "a broadening edge that pulls the stable split onto itself",
        "files": ["edge-shift-base.json", "edge-shift-ext.json",
                  "edge-shift-shift.split.json",
                  "edge-shift-noshift.split.json"],
    },
    "two-keyword-entry": {
        "note": "excess budget entering a broadened keyword at three "
                "different times, with three different revenue outcomes",
        "files": ["two-keyword-entry-base.json", "two-keyword-entry-ext.json",
                  "two-keyword-entry-natural.split.json",
                  "two-keyword-entry-early.schedule.json",
                  "two-keyword-entry-late.schedule.json",
                  "two-keyword-entry-tuned.schedule.json"],
    },
}


# -- report plumbing ----------------------------------------------------------

def _approx(x: Fraction, places: int) -> str:
    """``"%.{places}f" % float(x)``; beyond float range, the same decimal
    rounded exactly from integers instead.  ``float(x)`` is the correctly
    rounded quotient ``numerator / denominator``, taken here directly."""
    try:
        return "%.*f" % (places, x.numerator / x.denominator)
    except OverflowError:
        whole, frac = divmod(round(abs(x) * 10 ** places), 10 ** places)
        return "%s%d.%0*d" % ("-" if x < 0 else "", whole, places, frac)


def _dumps(doc) -> str:
    """``doc`` as report text, in one walk: the bytes of
    ``json.dumps(enc(doc), sort_keys=True, indent=2) + "\\n"``, where ``enc``
    makes each exact rational an ``{"exact", "approx"}`` object, each
    ``partition.KeywordDay`` the list of its segments' report rows
    (``_lines`` spells a row out), the
    rate sentinel ``partition.INFINITE`` the text ``"inf"``, each key
    ``str(key)`` and each set a sorted list.  Values dispatch on their
    exact type; any other type, a float included, is a ``TypeError``.

    Each scalar item is one piece with its line break and key, and a list
    of strings one join.  A dict's sorted keys and their texts are kept per
    depth and key tuple, so dicts of one shape are sorted once.  A
    rational's numerator n and denominator d are read once and printed with
    one format: exact as ``"%d"`` or ``"%d/%d"``, approx as ``"%.6f" % (n
    / d)``, the correctly rounded quotient that ``float`` gives too
    (``_approx`` beyond float range).  A segment row is one format per
    depth, filled from the day's columns: its bounds, its active list, and
    its revenue and welfare n/D from its ints, reduced by one gcd."""
    chunks: List[str] = []
    out = chunks.append
    enc = encode_basestring_ascii
    layouts: Dict[tuple, tuple] = {}  # (depth, *keys): (keys, their heads)
    rows: Dict[int, str] = {}  # per depth, a segment row's format
    newlines = ["\n", "\n  "]  # newlines[d]: a line break and depth d's indent
    # per depth, the two-key block of an integer, of a p/q, and as text
    rationals: List[Tuple[str, str, str]] = []

    def rational(n: int, d: int, depth: int) -> str:
        while len(rationals) <= depth:
            k = len(rationals)
            block = '{%s"approx": "%%s",%s"exact": "%%s"%s}' % (
                newlines[k + 1], newlines[k + 1], newlines[k])
            rationals.append((block % ("%.6f", "%d"),
                              block % ("%.6f", "%d/%d"), block))
        try:
            if d == 1:
                return rationals[depth][0] % (n / d, n)
            return rationals[depth][1] % (n / d, n, d)
        except OverflowError:
            x = Fraction(n, d)
            return rationals[depth][2] % (_approx(x, 6), format_rational(x))

    def items(pairs, depth: int) -> None:  # (line break and key, value)
        for head, x in pairs:
            t = type(x)
            if t is Fraction:
                out(head + rational(x.numerator, x.denominator, depth))
            elif t is int:
                out(head + "%d" % x)
            elif t is str:
                out(head + enc(x))
            elif t is KeywordDay:
                out(head)
                day(x, depth)
            elif t is dict or t is list or t is tuple or t is set or t is frozenset:
                out(head)
                container(x, t, depth)
            elif t is bool:
                out(head + ("true" if x else "false"))
            elif x is None:
                out(head + "null")
            elif x is INFINITE:
                out(head + '"inf"')
            else:
                raise TypeError("cannot encode %r" % t)

    def day(x: KeywordDay, depth: int) -> None:  # its rows, one depth down
        if not x:
            return out("[]")
        d = depth + 1
        if d not in rows:  # and the active lists' items a level deeper
            while len(newlines) < d + 3:
                newlines.append(newlines[-1] + "  ")
            i1 = newlines[d + 1]
            rows[d] = "{" + i1 + ("," + i1).join([
                '"active": %s', '"from": %d', '"revenue": %s', '"to": %d',
                '"welfare": %s']) + newlines[d] + "}"
        fmt, i1, i2, D = rows[d], newlines[d + 1], newlines[d + 2], x.D
        lines = []
        for lo, hi, ids, priced, worth in zip(x.lo, x.hi, x.ids, x.prices,
                                              x.values):
            active = ("[" + i2 + ("," + i2).join(map(enc, ids)) + i1 + "]"
                      if ids else "[]")
            r, w = sum(priced), sum(worth)
            g, h = math.gcd(r, D), math.gcd(w, D)
            lines.append(fmt % (active, lo, rational(r // g, D // g, d + 1),
                                hi, rational(w // h, D // h, d + 1)))
        out("[" + newlines[d] + ("," + newlines[d]).join(lines)
            + newlines[depth] + "]")

    def container(x, t, depth: int) -> None:
        if not x:
            return out("{}" if t is dict else "[]")
        if len(newlines) < depth + 3:  # a rational item's block
            newlines.append(newlines[-1] + "  ")
        inner = newlines[depth + 1]
        end = newlines[depth] + ("}" if t is dict else "]")
        if t is dict:
            shape = (depth, *x)
            layout = layouts.get(shape)
            if layout is None:
                try:  # text keys: this shape's layout is kept
                    order = sorted(x)
                    layout = layouts[shape] = order, [
                        f",{inner}{enc(k)}: " for k in order]
                except TypeError:  # other keys: written as str(key)
                    return container({str(k): v for k, v in x.items()}, t,
                                     depth)
                layout[1][0] = "{" + layout[1][0][1:]
            items(zip(layout[1], map(x.__getitem__, layout[0])), depth + 1)
        else:
            x = sorted(x) if t is set or t is frozenset else x
            if all(type(v) is str for v in x):
                return out("[" + inner + ("," + inner).join(map(enc, x)) + end)
            items(zip(["[" + inner] + ["," + inner] * (len(x) - 1), x),
                  depth + 1)
        out(end)

    items([("", doc)], 0)
    out("\n")
    return "".join(chunks)


def _lines(doc) -> str:
    """``doc`` as text: a ``path  value`` line per leaf, in ``_dumps``'s
    order.  Paths are dotted keys and ``[n]`` indices, with ``["key"]`` for a
    key that is empty, not printable ASCII or holds ``" .[]\\``.  Rationals
    print as ``184/5 (36.8000)``, ``partition.INFINITE`` as ``inf``, other
    leaves (an empty ``{}`` or ``[]`` too) as their JSON text."""
    lines: List[str] = []

    def walk(path: str, x) -> None:
        t = type(x)
        if t is dict and x:
            if not all(type(k) is str for k in x):
                x = {str(k): v for k, v in x.items()}
            for k in sorted(x):
                key = encode_basestring_ascii(k)
                if k and key[1:-1] == k and set(k).isdisjoint(" .[]"):
                    walk(path + "." + k if path else k, x[k])
                else:
                    walk("%s[%s]" % (path, key), x[k])
        elif t in (list, tuple, set, frozenset) and x:
            for n, v in enumerate(sorted(x) if t in (set, frozenset) else x):
                walk("%s[%d]" % (path, n), v)
        elif t is KeywordDay and x:  # its segments' report rows
            for n, (lo, hi, ids, priced, worth) in enumerate(zip(
                    x.lo, x.hi, x.ids, x.prices, x.values)):
                walk("%s[%d]" % (path, n), {
                    "from": lo, "to": hi, "active": ids,
                    "revenue": Fraction(sum(priced), x.D),
                    "welfare": Fraction(sum(worth), x.D)})
        elif t is Fraction:
            lines.append("%s  %s (%s)\n"
                         % (path, format_rational(x), _approx(x, 4)))
        elif x is INFINITE:
            lines.append(path + "  inf\n")
        else:
            lines.append("%s  %s" % (path, _dumps(x)))

    walk("", doc)
    return "".join(lines)


def _digest(instance: Instance) -> str:
    """The first 16 hex digits of the sha256 of ``instance_text``."""
    return hashlib.sha256(instance_text(instance).encode()).hexdigest()[:16]


def _write(args, envelope: dict) -> int:
    """Print ``envelope`` as the parsed ``--format`` asks; its exit code."""
    render = _lines if getattr(args, "format", "json") == "table" else _dumps
    sys.stdout.write(render(envelope))
    return envelope["exit_code"]


def _report(args, result: dict, code: int = 0,
            instance: Optional[Instance] = None) -> int:
    return _write(args, {
        "command": args.command,
        "argv": list(args._argv),
        "instance": _digest(instance) if instance is not None else None,
        "result": result,
        "exit_code": code,
    })


def _fail(args, code: int, kind: str, payload) -> int:
    return _write(args, {
        "command": getattr(args, "command", None),
        "argv": list(getattr(args, "_argv", [])),
        "error": {"type": kind,
                  "errors" if isinstance(payload, list) else "message": payload},
        "exit_code": code,
    })


def _rational(text: str) -> Fraction:
    if (reason := digit_limit_error(text)) is not None:
        raise argparse.ArgumentTypeError(reason)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            "not a rational: %r (want an integer, fraction p/q, or decimal)"
            % text)


def _reserve(text: str) -> Fraction:
    reserve = _rational(text)
    if reserve < 0:
        raise argparse.ArgumentTypeError(
            "must be nonnegative, got %s" % format_rational(reserve))
    return reserve


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise UsageError("cannot read %s: %s" % (path, exc.strerror or exc))
    except UnicodeDecodeError as exc:
        raise UsageError("cannot read %s: not UTF-8 text (%s)" % (path, exc))


def _load_profile_file(instance: Instance, path: str, kind: str) -> Profile:
    profile = (load_split if kind == "split" else load_schedule)(_read(path))
    errors = validate_profile(instance, profile)
    if errors:
        raise ModelError(errors)
    return profile


def _profile_arg(args, instance: Instance) -> Optional[Profile]:
    """The profile of ``--split`` or ``--schedule``; None without either."""
    for kind, path in (("split", args.split), ("schedule", args.schedule)):
        if path is not None:  # "" too: a path that cannot be read
            return _load_profile_file(instance, path, kind)
    return None


def _others_arg(args, instance: Instance, advertiser: str) -> Profile:
    """The rivals' profile for table building, from ``--split`` or
    ``--schedule``; defaults to everyone all-in."""
    return (_profile_arg(args, instance)
            or all_in_profile(instance, skip=(advertiser,)))


def _check_fptas_eps(args) -> None:
    """``--method fptas`` needs ``--eps`` in (0, 1); no other method reads
    ``--eps``, so with one of them it is refused."""
    if args.method != "fptas":
        if args.eps is not None:
            raise UsageError("--eps is read only with --method fptas, not "
                             "with --method %s" % args.method)
        return
    if args.eps is None:
        raise UsageError("--eps is required with --method fptas")
    if not 0 < args.eps < 1:
        raise UsageError("--eps must be in (0, 1) with --method fptas, got %s"
                         % format_rational(args.eps))


# -- subcommands --------------------------------------------------------------

def _cmd_validate(args) -> int:
    instance = load_instance(_read(args.instance))
    result = {"ok": True, "warnings": [], "checked": ["instance"]}
    if _profile_arg(args, instance) is not None:
        result["checked"].append("profile")
    if args.ext is not None:
        ext = load_instance(_read(args.ext))
        chk = check_extension(instance, ext)
        if not chk["ok"]:
            raise ModelError(chk["errors"])
        result["checked"].append("extension")
        result["new_edges"] = [list(e) for e in chk["new_edges"]]
    return _report(args, result, 0, instance)


def _cmd_price(args) -> int:
    instance = load_instance(_read(args.instance))
    kw = args.keyword
    if kw not in {k.id for k in instance.keywords}:
        raise UsageError("unknown keyword %r" % kw)
    ids = args.ids or instance.advertisers_on(kw)
    for n, i in enumerate(ids):
        if i in ids[:n]:
            raise UsageError("advertiser %r is given twice" % i)
        if not instance.has_edge(i, kw):
            raise UsageError("no edge (%s, %s) in the instance" % (i, kw))
    from .auction import price_query
    slate = price_query([(i, instance.score(i, kw)) for i in ids],
                        instance.slots, args.reserve)
    result = {
        "keyword": kw,
        "reserve": args.reserve,
        "ranking": [{"advertiser": i, "score": s, "slot": slot}
                    for i, s, slot in slate.ranking],
        "prices": dict(slate.prices),
        "payoffs": dict(slate.payoffs),
        "revenue": slate.revenue,
        "welfare": slate.welfare,
    }
    return _report(args, result, 0, instance)


def _cmd_partition(args) -> int:
    instance = load_instance(_read(args.instance))
    adv = args.advertiser
    kw = args.keyword
    where = " (keyword %r)" % kw if kw else ""
    if adv not in {a.id for a in instance.advertisers}:
        raise UsageError("unknown advertiser %r%s" % (adv, where))
    if kw and kw not in {k.id for k in instance.keywords}:
        raise UsageError("unknown keyword %r (advertiser %r)" % (kw, adv))
    if kw and not instance.has_edge(adv, kw):
        raise UsageError("advertiser %r has no edge on keyword %r"
                         % (adv, kw))
    others = _others_arg(args, instance, adv)
    keywords = [kw] if kw else None
    tables = tables_for(instance, adv, others, keywords, args.reserve)
    result = {"advertiser": adv, "keywords": {}}
    for kw, table in sorted(tables.items(),
                            key=lambda kv: instance.keyword_index(kv[0])):
        segs = []
        for lam in range(table.segment_count):
            segs.append({
                "from": table.breakpoints[lam] + 1,
                "to": table.breakpoints[lam + 1],
                "active": table.segments.ids[lam],
                "cost": table.costs[lam],
                "payoff": table.payoffs[lam],
                "rate": table.rate(lam),
            })
        result["keywords"][kw] = {
            "breakpoints": list(table.breakpoints),
            "segments": segs,
        }
    return _report(args, result, 0, instance)


def _day_result(instance: Instance, day) -> dict:
    keywords = {}
    for k in instance.keywords:
        keywords[k.id] = {
            "revenue": day.keyword_revenue[k.id],
            "welfare": day.keyword_welfare[k.id],
            "segments": day.segments[k.id],  # each written as its row
        }
    advertisers = {a.id: {"spend": day.spend[a.id],
                          "payoff": day.payoff[a.id],
                          "leftover": day.leftover[a.id]}
                   for a in instance.advertisers}
    return {"revenue": day.revenue, "welfare": day.welfare,
            "keywords": keywords, "advertisers": advertisers}


def _cmd_simulate(args) -> int:
    instance = load_instance(_read(args.instance))
    profile = _profile_arg(args, instance)
    day = simulate_mod.simulate_day(instance, profile, args.reserve)
    result = _day_result(instance, day)
    result["consistency"] = simulate_mod.check_profile_consistency(
        profile, day)
    return _report(args, result, 0, instance)


def _cmd_best_response(args) -> int:
    _check_fptas_eps(args)
    instance = load_instance(_read(args.instance))
    adv = args.advertiser
    if adv not in {a.id for a in instance.advertisers}:
        raise UsageError("unknown advertiser %r" % adv)
    others = _others_arg(args, instance, adv)
    resp = bestresp.solver(args.method, args.eps, args.reserve)(
        instance, adv, others)
    result = {
        "advertiser": resp.advertiser,
        "method": resp.method,
        "payoff": resp.payoff,
        "cost": resp.cost,
        "queries": dict(resp.queries),
        "committed": dict(resp.committed),
        "meta": resp.meta,
    }
    return _report(args, result, 0, instance)


def _cmd_verify(args) -> int:
    instance = load_instance(_read(args.instance))
    profile = _profile_arg(args, instance)
    if args.bme:
        if args.method is not None:
            raise UsageError("--method is read only with --eps-ne, not with "
                             "--bme")
        rep = equilibrium.verify_bme(instance, profile, reserve=args.reserve)
        code = 0 if rep["ok"] else 3
        return _report(args, {"check": "bme", **rep}, code, instance)
    method = args.method or "dp"
    fptas = method == "fptas"
    if args.eps_ne >= 1:  # then (1 - E) * optimum <= 0 passes everybody
        raise UsageError("--eps-ne must be below 1 (from 1 up, the check "
                         "passes every profile), got %s"
                         % format_rational(args.eps_ne))
    if not (args.eps_ne > 0 if fptas else args.eps_ne >= 0):
        raise UsageError("--eps-ne must be %s, got %s" % (
            "in (0, 1) with --method fptas (0 needs --method dp)"
            if fptas else "nonnegative",
            format_rational(args.eps_ne)))
    rep = equilibrium.verify_eps_ne(instance, profile, args.eps_ne,
                                    method=method, reserve=args.reserve)
    code = 0 if rep["ok"] is True else 3
    return _report(args, {"check": "eps-ne", **rep}, code, instance)


def _cmd_dynamics(args) -> int:
    _check_fptas_eps(args)
    if args.max_rounds < 0:
        raise UsageError("--max-rounds must be nonnegative, got %d"
                         % args.max_rounds)
    instance = load_instance(_read(args.instance))
    start = None
    if args.init is not None:
        start = _load_profile_file(instance, args.init, "split")
    rep = equilibrium.best_response_dynamics(
        instance, method=args.method, eps=args.eps,
        max_rounds=args.max_rounds, shuffle_seed=args.shuffle_seed,
        reserve=args.reserve, profile=start)
    result = dict(rep)
    result["profile"] = serialize_profile(rep["profile"])["allocations"]
    return _report(args, result, 0, instance)


def _cmd_dilemma(args) -> int:
    base = load_instance(_read(args.base))
    ext = load_instance(_read(args.ext_instance))
    chk = check_extension(base, ext)
    if not chk["ok"]:
        raise ModelError(chk["errors"])
    profiles = [_load_profile_file(ext, p, "split") for p in args.profiles]
    rep = equilibrium.dilemma_report(base, ext, profiles,
                                     reserve=args.reserve)
    return _report(args, rep, 0, base)


def _cmd_acbm(args) -> int:
    base = load_instance(_read(args.base))
    ext = load_instance(_read(args.ext))
    chk = check_extension(base, ext)
    if not chk["ok"]:
        raise ModelError(chk["errors"])
    # one natural split and one base day serve all three steps
    profile, day = equilibrium.natural_base_day(base, args.reserve)
    excess = acbm_mod.excess_budgets(base, day)
    witness = acbm_mod.obrev_check(base, ext, day)
    plan = acbm_mod.allocate_excess(base, ext, profile, day, args.fine,
                                    args.reserve)
    result = {
        "excess": excess,
        "opportunity": witness,
        "moves": plan["moves"],
        "schedule": serialize_profile(plan["schedule"])["allocations"],
        "initial_revenue": plan["initial_revenue"],
        "final_revenue": plan["final_revenue"],
        "delta": plan["delta"],
        "initial_welfare": plan["initial_welfare"],
        "final_welfare": plan["final_welfare"],
    }
    return _report(args, result, 0, base)


def _cmd_compare(args) -> int:
    instance = load_instance(_read(args.instance))
    if not args.split or len(args.split) != 2:
        raise UsageError("pass exactly two --split FILE flags")
    days = [simulate_mod.simulate_day(
                instance, _load_profile_file(instance, p, "split"),
                args.reserve)
            for p in args.split]
    diff = simulate_mod.compare_outcomes(days[0], days[1])
    result = {"a": args.split[0], "b": args.split[1], "metrics": diff}
    return _report(args, result, 0, instance)


def _cmd_fixtures(args) -> int:
    if args.name is None:
        result = {"fixtures": {name: dict(FIXTURES[name])
                               for name in sorted(FIXTURES)}}
        return _report(args, result, 0)
    if args.name not in FIXTURES:
        raise UsageError("unknown fixture %r (run `broadmatch fixtures` "
                         "for the list)" % args.name)
    out = Path(args.dir or ".")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError("cannot create %s: %s" % (out, exc))
    written = []
    for fname in FIXTURES[args.name]["files"]:
        try:
            shutil.copyfile(_FIXTURE_DIR / fname, out / fname)
        except OSError as exc:
            raise UsageError("cannot write %s: %s" % (out / fname, exc))
        written.append(str(out / fname))
    return _report(args, {"written": written}, 0)


# -- argument parsing ---------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argparse rejection becomes a UsageError, and so a usage envelope,
    instead of usage text on stderr; subparsers inherit the class."""

    def error(self, message):
        raise UsageError(message)


class _Once(argparse.Action):
    """Store the option's value, and refuse a second one."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise argparse.ArgumentError(self, "may be given only once")
        setattr(namespace, self.dest, values)


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and reused after that.
    Each subcommand declares exactly the options it reads."""
    parser = _Parser(
        prog="broadmatch",
        description="Exact engine for broad-match keyword auction games.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--reserve", type=_reserve, default=Fraction(0),
                       metavar="R", help="reserve score (integer, fraction "
                       "or decimal)")
        p.add_argument("--format", choices=("json", "table"), default="json")

    def profile(p, required=False):
        group = p.add_mutually_exclusive_group(required=required)
        group.add_argument("--split", action=_Once, metavar="FILE")
        group.add_argument("--schedule", action=_Once, metavar="FILE")

    p = sub.add_parser("validate", help="check an instance and profiles")
    p.add_argument("instance")
    profile(p)
    p.add_argument("--ext", metavar="FILE")

    p = sub.add_parser("price", help="price one query of a keyword")
    p.add_argument("instance")
    p.add_argument("keyword")
    p.add_argument("ids", nargs="*", metavar="ADVERTISER")
    common(p)

    p = sub.add_parser("partition", help="per-advertiser segment tables")
    p.add_argument("instance")
    p.add_argument("keyword", nargs="?")
    p.add_argument("--advertiser", required=True, metavar="ID")
    profile(p)
    common(p)

    p = sub.add_parser("simulate", help="run one day under a profile")
    p.add_argument("instance")
    profile(p, required=True)
    common(p)

    p = sub.add_parser("best-response", help="one advertiser's best use of "
                                             "her budget against the rest")
    p.add_argument("instance")
    p.add_argument("--advertiser", required=True, metavar="ID")
    p.add_argument("--method", choices=("greedy", "dp", "fptas", "brute"),
                   default="dp")
    p.add_argument("--eps", type=_rational, metavar="E")
    profile(p)
    common(p)

    p = sub.add_parser("verify", help="check a profile for stability")
    p.add_argument("instance")
    check = p.add_mutually_exclusive_group(required=True)
    check.add_argument("--bme", action="store_true",
                       help="marginal-payoff stability across keywords")
    check.add_argument("--eps-ne", type=_rational, metavar="E", dest="eps_ne",
                       help="certify an approximate Nash point")
    p.add_argument("--method", choices=("dp", "fptas"))  # dp by default
    profile(p, required=True)
    common(p)

    p = sub.add_parser("dynamics", help="iterate best responses")
    p.add_argument("instance")
    p.add_argument("--method", choices=("greedy", "dp", "fptas"),
                   default="greedy")
    p.add_argument("--eps", type=_rational, metavar="E")
    p.add_argument("--max-rounds", type=int, default=100, metavar="N")
    p.add_argument("--init", metavar="FILE",
                   help="starting split (default: all-in on the top keyword)")
    p.add_argument("--shuffle-seed", type=int, metavar="SEED")
    common(p)

    p = sub.add_parser("dilemma", help="revenue effect of a broadening "
                                       "under given stable profiles")
    p.add_argument("base")
    p.add_argument("ext_instance", metavar="ext")
    p.add_argument("--profiles", nargs="+", required=True, metavar="FILE")
    common(p)

    p = sub.add_parser("acbm", help="schedule leftover budgets onto "
                                    "broadened keywords")
    p.add_argument("base")
    p.add_argument("--ext", required=True, metavar="FILE")
    p.add_argument("--fine", action="store_true",
                   help="refine entry queries inside segments")
    common(p)

    p = sub.add_parser("compare", help="two splits on one instance, side "
                                       "by side")
    p.add_argument("instance")
    p.add_argument("--split", action="append", metavar="FILE")
    common(p)

    p = sub.add_parser("fixtures", help="list or emit the bundled examples")
    p.add_argument("name", nargs="?")
    p.add_argument("dir", nargs="?")

    parser.commands = sub.choices  # each subcommand's own parser, by name
    return parser


def _parse(argv: List[str]) -> argparse.Namespace:
    """``_parser().parse_args(argv)``, a subcommand's argv by its own parser."""
    if argv and argv[0] in _DISPATCH:
        return _parser().commands[argv[0]].parse_args(
            argv[1:], argparse.Namespace(command=argv[0]))
    return _parser().parse_args(argv)


_DISPATCH = {
    "validate": _cmd_validate,
    "price": _cmd_price,
    "partition": _cmd_partition,
    "simulate": _cmd_simulate,
    "best-response": _cmd_best_response,
    "verify": _cmd_verify,
    "dynamics": _cmd_dynamics,
    "dilemma": _cmd_dilemma,
    "acbm": _cmd_acbm,
    "compare": _cmd_compare,
    "fixtures": _cmd_fixtures,
}


def run(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(argv)
    except UsageError as exc:
        command = argv[0] if argv and argv[0] in _DISPATCH else None
        return _fail(argparse.Namespace(command=command, _argv=argv), 2,
                     "usage", str(exc))
    except SystemExit:  # --help printed its text
        return 0
    args._argv = argv
    try:
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        return _fail(args, 2, "usage", str(exc))
    except ModelError as exc:
        return _fail(args, 2, "schema", exc.errors)
    except bestresp.ScaleError as exc:
        return _fail(args, 1, "scale", str(exc))
    except (ValueError, RuntimeError) as exc:
        return _fail(args, 1, "engine", str(exc))


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
