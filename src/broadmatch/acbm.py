"""Auctioneer-steered use of leftover budgets on a broadened matching.

After the base day, some advertisers end with money left over — at least a
top-score query's worth, so it could actually buy something.  When the
matching is broadened with new edges, the auctioneer itself can decide
where and *when* those advertisers enter the new streams: entry timing is
the auctioneer's lever, not the advertisers'.

Every step reads one base day, simulated once by the caller
(``equilibrium.natural_base_day``): ``excess_budgets`` finds the
advertisers with usable leftovers in it; ``obrev_check`` decides whether
any of them can be placed to strictly raise revenue (with a structural
witness naming the keyword and why); ``allocate_excess`` actually
schedules entries, greedily committing the single best revenue-positive
move at a time, never touching what the base day already sold.  Before any
entry the broadened day is the base day: the base rows meet the same
scores on the same keywords, so the scheduler starts from that day and
simulates only the days its moves make.

A probe of a candidate entry (``_probe``) runs the keyword's day with the
entrant at its whole free wallet, which gives what it pays; the scheduler
commits it pinned to that payment, and the probe's revenue is that of the
pinned day.  Pinning usually changes nothing, and
``partition.pinning_keeps_prefixes`` proves so from the run's own
segments, for the day and for each of its prefixes, so the probe is one
run.  It can change the day: a pinned entrant may be broke on a slate the
settle passes through, where at its wallet it was not, and be dropped
ahead of a higher-scored broke bidder.  Where the certificate fails the
probe runs the pinned day as well.  A paired entry is probed the same way,
with both entrants in one run.

Entry timing with ``fine`` settles a quiet segment (``_quiet``: nobody
pays in it, it runs to the day's last query and no committed row on the
keyword enters after its first query) with two probes, its first query
and the next.  An entry later in the segment meets what an entry at the
second query meets, so its day is that one shifted and cut short and
earns no more; ``_search`` gives the argument.  It needs the second
probe's certificate, which covers each of those days; without it, and on
every other segment, timing is a heuristic, not an exhaustive search: a
segment of at most 64 queries is probed at every start, a wider one at no
more than 64 evenly spread starts and then in windows halved around the
best probe so far, so it can miss the best start of a wide segment.  Of
several starts with the best delta, the scheduler commits the earliest.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .model import Allocation, Instance, Profile
from .partition import KeywordDay, keyword_day, pinning_keeps_prefixes
from .simulate import DayOutcome, simulate_day

ZERO = Fraction(0)
FINE_WINDOW = 64  # exhaustive-scan limit for per-query entry refinement


def excess_budgets(instance: Instance,
                   base_day: DayOutcome) -> Dict[str, dict]:
    """Leftover money after ``base_day``, flagged where it could still buy.

    An advertiser holds *excess* when her leftover covers at least her top
    base score — the cheapest conceivable price of one more query wherever
    she already bids.  Smaller leftovers are change, not money.
    """
    top: Dict[str, Fraction] = {}
    for e in instance.base_edges():
        if e.advertiser not in top or e.score > top[e.advertiser]:
            top[e.advertiser] = e.score
    out: Dict[str, dict] = {}
    for adv in instance.advertisers:
        best = top.get(adv.id)
        left = base_day.leftover[adv.id]
        out[adv.id] = {
            "budget": adv.budget,
            "spend": base_day.spend[adv.id],
            "leftover": left,
            "top_score": best,
            "excess": best is not None and best <= left,
        }
    return out


def obrev_check(base: Instance, ext: Instance, base_day: DayOutcome) -> dict:
    """Can excess money be routed through new edges to raise revenue?

    Examines the base day's final segments keyword by keyword and reports a
    witness (advertiser, keyword, condition) for every placement with
    structural room to create new payments:

    * ``a`` — the stream's last active set is exactly the keyword's excess
      holders and the entrant can still win a slot among them;
    * ``b`` — the stream went dark, and besides the entrant at least one
      more potential companion (an equal-scored excess holder, or any
      lower-scored new-edge holder) could enter with her, so somebody ends
      up paying;
    * ``c`` — the last active set still contains non-excess members and the
      entrant outscores the best of them.
    """
    info = excess_budgets(base, base_day)
    excess = {i for i, rec in info.items() if rec["excess"]}
    new_edges = [e for e in ext.edges if not base.has_edge(e.advertiser, e.keyword)]

    holders: Dict[str, Set[str]] = {}     # keyword -> new-edge holders
    for e in new_edges:
        holders.setdefault(e.keyword, set()).add(e.advertiser)
    excess_on: Dict[str, Set[str]] = {}   # keyword -> excess base holders
    for e in base.base_edges():
        if e.advertiser in excess:
            excess_on.setdefault(e.keyword, set()).add(e.advertiser)

    witnesses: List[dict] = []
    for e in sorted(new_edges, key=lambda e: (e.advertiser,
                                              ext.keyword_index(e.keyword))):
        i, j = e.advertiser, e.keyword
        if i not in excess:
            continue
        segs = base_day.segments.get(j)
        last = set(segs.ids[-1]) if segs else set()
        dark = not last
        s_ij = ext.score(i, j)
        cond = None
        if dark:
            mates = {l for l in holders.get(j, ()) if l in excess
                     and ext.score(l, j) == s_ij}
            mates |= {l for l in holders.get(j, ()) if ext.score(l, j) < s_ij}
            if len(mates) > 1:
                cond = "b"
        else:
            expected = excess_on.get(j, set())
            if last == expected:
                ahead = sum(1 for m in last if base.score(m, j) > s_ij)
                if ahead < base.slots.count:
                    cond = "a"
            else:
                outsiders = last - expected
                if outsiders and s_ij > max(base.score(l, j) for l in outsiders):
                    cond = "c"
        if cond is not None:
            witnesses.append({"advertiser": i, "keyword": j, "condition": cond})
    return {"ok": bool(witnesses), "witnesses": witnesses,
            "excess": sorted(excess)}


def _probe(instance: Instance, rows: Sequence[Allocation], kw: str,
           entrants: Sequence[Allocation], reserve: Fraction
           ) -> Tuple[Fraction, Tuple[Fraction, ...], bool]:
    """What each entrant pays on ``kw``, exactly, when ``entrants`` join
    the other ``rows`` committed there, the keyword's revenue once the
    entrants are committed pinned to those payments, and whether pinning
    them provably keeps the day and every prefix of it
    (``partition.pinning_keeps_prefixes``), the certificate ``_search``'s
    two-probe rule reads.

    The payments come from one run of the day with the entrants at the
    pools they are given.  Where that certificate holds, pinning keeps the
    day and the revenue is the run's; otherwise a second run with the
    pinned entrants gives it.
    """
    day = keyword_day(instance, kw, (*rows, *entrants), reserve)
    ids = [e.advertiser for e in entrants]
    totals = day.totals
    paid = tuple(Fraction(totals.int_paid.get(i, 0), totals.D) for i in ids)
    if pinning_keeps_prefixes(day, ids):
        return totals.revenue, paid, True
    pinned = [Allocation(e.advertiser, kw, 0, p, e.start_query)
              for e, p in zip(entrants, paid)]
    return keyword_day(instance, kw, (*rows, *pinned),
                       reserve).totals.revenue, paid, False


def _spent(day: DayOutcome, advertiser: str, keyword: str) -> Fraction:
    """What ``advertiser`` paid on ``keyword`` over ``day``, exactly, read
    off that keyword's ``DayTotals``: 0 where she was never slotted."""
    totals = day.segments[keyword].totals
    return Fraction(totals.int_paid.get(advertiser, 0), totals.D)


def _reduce_rows(rows: Tuple[Allocation, ...], advertiser: str,
                 day: DayOutcome) -> Tuple[Allocation, ...]:
    """Pin the advertiser's committed pools to what they actually spend.

    The difference becomes free wallet money the scheduler may commit
    elsewhere.  A pool equal to its own exact spend usually buys the same
    queries to the same boundary, but not always (see
    ``partition.pinning_keeps_prefixes``); the next round simulates the
    day with the pinned rows either way.
    """
    out = []
    for r in rows:
        if r.advertiser == advertiser:
            out.append(Allocation(r.advertiser, r.keyword, r.queries,
                                  _spent(day, advertiser, r.keyword),
                                  r.start_query))
        else:
            out.append(r)
    return tuple(out)


def _fine_starts(lo: int, hi: int) -> List[int]:
    """Up to FINE_WINDOW evenly spread probe starts across [lo, hi].

    Start k is ``lo + round(k * w / n)`` with w = hi - lo and n =
    FINE_WINDOW - 1, in exact integer arithmetic; n is odd, so the
    rounding never meets a tie.  Wider than FINE_WINDOW, w > n, so the
    starts strictly increase.
    """
    if hi - lo + 1 <= FINE_WINDOW:
        return list(range(lo, hi + 1))
    w, n = hi - lo, FINE_WINDOW - 1
    return [lo + (2 * k * w + n) // (2 * n) for k in range(FINE_WINDOW)]


def _quiet(day: KeywordDay, n: int, rows: Sequence[Allocation],
           volume: int) -> bool:
    """True when nobody pays in segment n of ``day``, it ends at the day's
    last query and none of ``rows``, those committed on its keyword, starts
    after its first query: ``_search`` settles such a segment with two
    probes."""
    return (not any(day.prices[n]) and day.hi[n] == volume
            and all(r.start_query <= day.lo[n] for r in rows))


def _search(lo: int, hi: int, fine: bool, probe,
            quiet: bool = False) -> Dict[int, tuple]:
    """Probe entry starts in [lo, hi]; ``probe(t)`` returns (value, ...,
    certified) as ``_probe`` does: first the keyword's revenue with the
    entry at t, or anything that ranks starts as it does, such as the
    entry's delta; last ``_probe``'s prefix certificate.

    Coarse, the one start is ``lo``.  Fine, a ``quiet`` segment
    (``_quiet``) is settled by two probes, ``lo`` and ``lo + 1``, when the
    ``lo + 1`` probe is certified.  An entry at any t in (lo, hi] meets
    the slate and the pools an entry at lo + 1 meets, since in between
    nobody pays, goes broke or enters: its day is the lo + 1 day shifted
    and cut short.  Revenue per query is nonnegative, so its unpinned
    delta is at most lo + 1's.  The certificate says pinning keeps each of
    those days, so pinned deltas are unpinned ones and lo + 1 is the
    earliest best start in (lo, hi].  ``lo`` is probed apart, since an
    entry there joins the settle that opened the segment.  Without the
    certificate the segment is searched like any other.

    Otherwise, fine, every start of a segment of at most FINE_WINDOW
    queries is probed; a wider one gets FINE_WINDOW evenly spread starts,
    then windows halved around the best probe so far (ties to the earliest
    start) until a window of FINE_WINDOW queries is scanned whole.  This
    search is a heuristic: it can miss the best start of a wide segment.
    Returns each probed start's result.
    """
    if not fine:
        return {lo: probe(lo)}
    if quiet and lo < hi:
        probed = {t: probe(t) for t in (lo, lo + 1)}
        if probed[lo + 1][-1]:
            return probed
    probed = {t: probe(t) for t in _fine_starts(lo, hi)}
    width = hi - lo + 1
    if width <= FINE_WINDOW:
        return probed

    def rank(t: int) -> tuple:
        return probed[t][0], -t

    t0 = max(probed, key=rank)
    while width > FINE_WINDOW:
        width = max(FINE_WINDOW, width // 2)
        a = max(lo, t0 - width // 2)
        new = [t for t in _fine_starts(a, min(hi, a + width - 1))
               if t not in probed]
        for t in new:
            probed[t] = probe(t)
        t0 = max([t0, *new], key=rank)  # the best so far, kept up to date
    return probed


def allocate_excess(base: Instance, ext: Instance, profile: Profile,
                    base_day: DayOutcome, fine: bool = False,
                    reserve: Fraction = ZERO) -> dict:
    """Schedule excess-budget entries on new edges, one best move at a time.

    Starting from the base-day schedule, repeatedly evaluates every unused
    new edge of an excess holder at candidate entry queries (each current
    segment start; with ``fine``, ``_search`` inside each segment: the
    first two queries of a quiet one whose second probe is certified, and
    otherwise every query of a segment of at most 64, sampled and then
    halved in around the best probe in a wider one).  The strictly best
    revenue-positive move is committed; a tie goes to the first edge, then
    the first segment, then the earliest start.  The entrant's base pools
    are first pinned to their exact spend (freeing the leftover), and the
    new edge receives exactly what the entry costs.  When no single entry
    pays, pairs of entrants into a dark stream are tried as one move.
    Stops when nothing positive is left.  Greedy and timing-restricted,
    hence a lower bound: a miss does not prove no improving schedule
    exists.

    ``base_day`` is the base day of ``profile`` at ``reserve``.  It is the
    initial day too: ``ext`` extends ``base``, so the base rows meet the
    same scores on the same keywords there.  Each round after a move
    simulates the broadened day once, and the last one's is the final day.
    """
    rows = profile.rows
    initial_day = day = base_day
    moves: List[dict] = []
    used: Set[Tuple[str, str]] = set()
    reduced: Set[str] = set()
    new_edges = [(e.advertiser, e.keyword) for e in ext.edges
                 if not base.has_edge(e.advertiser, e.keyword)]
    new_edges.sort(key=lambda ij: (ij[0], ext.keyword_index(ij[1])))

    def wallet(i: str, day: DayOutcome) -> Fraction:
        free = ext.budget(i)
        for r in rows:
            if r.advertiser != i:
                continue
            if i in reduced or not base.has_edge(i, r.keyword):
                free -= r.budget
            else:
                free -= _spent(day, i, r.keyword)
        return free

    info = excess_budgets(base, base_day)
    while True:
        current = Profile(rows, kind="schedule")
        if moves:  # the rows changed in the last round
            day = simulate_day(ext, current, reserve)
        # the unused new edges whose holder's free wallet covers her top
        # base score, with that wallet: this round's possible entrants
        movers = []
        for i, j in new_edges:
            top = info[i]["top_score"]
            if (i, j) not in used and top is not None:
                avail = wallet(i, day)
                if avail >= top:
                    movers.append((i, j, avail))
        best_delta = ZERO
        best: Optional[Tuple[Allocation, ...]] = None
        best_move: Optional[dict] = None
        for i, j, avail in movers:
            on_j = current.rows_on(j)
            segs = day.segments[j]
            for n, (lo, hi) in enumerate(zip(segs.lo, segs.hi)):
                probed = _search(lo, hi, fine,
                                 lambda t: _probe(ext, on_j, j, (Allocation(
                                     i, j, 0, avail, t),), reserve),
                                 _quiet(segs, n, on_j, ext.volume(j)))
                for t, (rev, (paid,), _) in sorted(probed.items()):
                    delta = rev - day.keyword_revenue[j]
                    if delta > best_delta:
                        best_delta = delta
                        best = (Allocation(i, j, 0, paid, t),)
                        best_move = {"advertiser": i, "keyword": j,
                                     "start_query": t, "budget": paid,
                                     "delta": delta, "kind": "entry"}
        if best is None:
            # no single entry pays: try waking a dark stream with a pair,
            # both entering at one of its dark segments' first query
            for a, (i1, j, av1) in enumerate(movers):
                on_j = current.rows_on(j)
                segs = day.segments[j]
                dark = [lo for lo, ids in zip(segs.lo, segs.ids) if not ids]
                for i2, _, av2 in [m for m in movers[a + 1:] if m[1] == j]:
                    for t in dark:
                        rev, paid, _ = _probe(
                            ext, on_j, j, (Allocation(i1, j, 0, av1, t),
                                           Allocation(i2, j, 0, av2, t)),
                            reserve)
                        delta = rev - day.keyword_revenue[j]
                        if delta > best_delta:
                            best_delta = delta
                            best = (Allocation(i1, j, 0, paid[0], t),
                                    Allocation(i2, j, 0, paid[1], t))
                            best_move = {
                                "advertisers": [i1, i2], "keyword": j,
                                "start_query": t, "budgets": list(paid),
                                "delta": delta, "kind": "paired-entry"}
            if best is None:
                break
        for entrant in best:
            i = entrant.advertiser
            if i not in reduced:
                rows = _reduce_rows(rows, i, day)
                reduced.add(i)
            rows = rows + (entrant,)
            used.add((i, entrant.keyword))
        moves.append(best_move)

    final_day = day  # the round that found no move ran the final rows
    # restate each row's declared query count from the final day, so the
    # returned schedule passes the consistency check as-is
    rows = tuple(Allocation(r.advertiser, r.keyword,
                            final_day.participation[(r.advertiser, r.keyword)],
                            r.budget, r.start_query) for r in rows)
    return {
        "moves": moves,
        "schedule": Profile(rows, kind="schedule"),
        "initial_revenue": initial_day.revenue,
        "final_revenue": final_day.revenue,
        "delta": final_day.revenue - initial_day.revenue,
        "initial_welfare": initial_day.welfare,
        "final_welfare": final_day.welfare,
    }

