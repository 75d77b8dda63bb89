"""Reduced monic lex Groebner bases via Buchberger's algorithm.

Each generator enters reduced modulo the basis so far, and every new
element is installed by the Gebauer-Moeller update (Gebauer & Moeller,
J. Symb. Comp. 1988): criteria M and F thin the new pairs, coprime pairs
are dropped after them, criterion B_k drops old pairs the new element
makes redundant, and basis elements whose leading monomial it divides
leave the basis.  The basis therefore stays minimal.  Pairs are taken by
the normal selection strategy (lex-smallest lcm first, ties by index)
and their S-polynomials reduced modulo the current basis.  At the end
the basis is tail-reduced and sorted, so the result is the unique
reduced monic basis of the ideal: independent of generator order,
generator scaling and selection details.

The whole run stays in the working form of ``multipoly``'s reduction
loop.  Each generator is converted to integer parts once; every basis
element is a head, (leading monomial, tail in parts) with the leading 1
not stored, made monic once when it is installed, by ``multipoly``'s one
division rule.  Generator entry, pair reduction and the final tail
reduction call the one reduction loop and the one S-polynomial rule on
heads, and compare parts tuples, so no ``GaussianRational`` or
``MultiPoly`` is built between the generators and the result: only the
reduced basis is boxed, for ``GroebnerBasis``.  ``is_groebner_basis``
converts its input to heads once in the same way.

``BuchbergerStats`` holds the run's pair counters; a solve report lists
its fields in slot order, so a counter added there is reported with no
other change.  The pair budget is tested before a pair is taken, so the
counters of a run cut short by ``PairLimitExceeded`` still account for
every pair: reduced, dropped or pending.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from ._record import Record
from .multipoly import (
    MultiPoly,
    _box_head,
    _head,
    _monic_head,
    _reduce,
    _s_work,
    _to_work,
    mono_divides,
    mono_lcm,
    mono_mul,
)

__all__ = [
    "BuchbergerStats",
    "GroebnerBasis",
    "PairLimitExceeded",
    "buchberger",
    "is_groebner_basis",
]

DEFAULT_PAIR_LIMIT = 100_000


class PairLimitExceeded(RuntimeError):
    """Raised when Buchberger exceeds its reduction budget."""

    def __init__(self, limit: int, stats: "BuchbergerStats"):
        super().__init__(
            f"pair reduction limit {limit} exceeded "
            f"(pairs considered: {stats.pairs_considered}, "
            f"reductions: {stats.pairs_reduced})"
        )
        self.limit = limit
        self.stats = stats


class BuchbergerStats(Record):
    """Deterministic pair counters of one Buchberger run.

    Every pair formed is considered once: it is reduced, dropped by a
    criterion, or (only when the pair budget runs out) still pending.
    Each reduction that is not to zero adds one basis element.
    """

    __slots__ = (
        "pairs_considered",
        "pairs_reduced",
        "zero_reductions",
        "pairs_dropped_coprime",
        "pairs_dropped_mf",
        "pairs_dropped_bk",
    )
    _defaults = dict.fromkeys(__slots__, 0)


class GroebnerBasis(Record):
    """Reduced monic lex basis, elements sorted by descending leading monomial.

    ``stats`` (a BuchbergerStats or None) takes no part in equality,
    hashing or the repr.
    """

    __slots__ = ("elements", "stats")
    _defaults = {"stats": None}
    _hidden = ("stats",)


def buchberger(generators: Iterable[MultiPoly]) -> GroebnerBasis:
    """Compute the unique reduced monic lex Groebner basis of <generators>.

    Zero generators are ignored; an all-zero input is rejected.  The
    pair budget DEFAULT_PAIR_LIMIT guards against runaway inputs and
    raises PairLimitExceeded with progress counters when exhausted.
    """
    counts = dict.fromkeys(BuchbergerStats.__slots__, 0)
    heads: list = []  # every element ever installed; pairs index into it
    active: list = []  # indices of the current basis G
    pairs: list = []  # the pair set B as (lcm, i, j) with i < j

    def install(remainder: tuple):
        heads.append(_monic_head(remainder))
        _update(heads, active, pairs, len(heads) - 1, counts)

    # each generator enters reduced modulo G, so G stays minimal
    for g in generators:
        if g is None or g.is_zero:
            continue
        h = _reduce(_to_work(g), [heads[t] for t in active])
        if h:
            install(h)
    if not active:
        raise ValueError("no nonzero generators")

    while pairs:
        # the budget is tested before a pair is taken, so it stays pending
        if counts["pairs_reduced"] >= DEFAULT_PAIR_LIMIT:
            raise PairLimitExceeded(DEFAULT_PAIR_LIMIT, BuchbergerStats(**counts))
        pair = min(pairs)  # normal strategy: lex-smallest lcm, then (i, j)
        pairs.remove(pair)
        _, i, j = pair
        counts["pairs_reduced"] += 1

        remainder = _reduce(_s_work(heads[i], heads[j]), [heads[t] for t in active])
        if not remainder:
            counts["zero_reductions"] += 1
            continue
        install(remainder)

    reduced = _inter_reduce([heads[t] for t in active])
    return GroebnerBasis(tuple(map(_box_head, reduced)), stats=BuchbergerStats(**counts))


def _update(heads, active, pairs, k, counts) -> None:
    """Gebauer-Moeller update of the basis G and pair set B for element k.

    The leading monomial of heads[k] must be irreducible modulo those of
    G; G, B and the BuchbergerStats field counts are changed in place.
    """
    lm = heads[k][0]
    new = [(mono_lcm(heads[t][0], lm), t) for t in active]
    counts["pairs_considered"] += len(new)

    # criteria M and F: drop a new pair whose lcm another new pair's lcm
    # divides (properly, or equally and still pending or already kept).
    # Coprime pairs are kept through this step so that they can eliminate
    # the pairs they dominate, and dropped afterwards.
    kept = []
    for pos, (lcm, t) in enumerate(new):
        coprime = lcm == mono_mul(heads[t][0], lm)
        if coprime or not (
            any(mono_divides(other, lcm) for other, _ in new[pos + 1 :])
            or any(mono_divides(other, lcm) for other, _, _ in kept)
        ):
            kept.append((lcm, t, coprime))
        else:
            counts["pairs_dropped_mf"] += 1

    # criterion B_k: an old pair whose lcm lm divides is redundant, unless
    # its lcm is also the lcm of one of its elements with the new one
    old = []
    for lcm, i, j in pairs:
        if (
            mono_divides(lm, lcm)
            and lcm != mono_lcm(heads[i][0], lm)
            and lcm != mono_lcm(heads[j][0], lm)
        ):
            counts["pairs_dropped_bk"] += 1
        else:
            old.append((lcm, i, j))
    pairs[:] = old

    for lcm, t, coprime in kept:
        if coprime:
            counts["pairs_dropped_coprime"] += 1
        else:
            pairs.append((lcm, t, k))

    active[:] = [t for t in active if not mono_divides(lm, heads[t][0])]
    active.append(k)


def _inter_reduce(heads: Sequence[tuple]):
    """Tail-reduce the heads of a minimal monic basis to the unique reduced
    basis.  No leading monomial divides another, so reduction never reaches
    a leading term, and each tail is reduced on its own."""
    heads = list(heads)
    changed = True
    while changed:
        changed = False
        for idx in range(len(heads)):
            others = heads[:idx] + heads[idx + 1 :]
            if not others:
                continue
            lm, tail = heads[idx]
            r = _reduce(dict(tail), others)
            if r != tail:
                heads[idx] = (lm, r)
                changed = True

    # leading monomials are distinct, so the order is by them alone
    return sorted(heads, reverse=True)


def is_groebner_basis(polys: Sequence[MultiPoly]) -> bool:
    """Buchberger criterion: every pairwise S-polynomial reduces to zero."""
    polys = list(polys)
    if not polys or any(p.is_zero for p in polys):
        raise ValueError("basis elements must be nonzero")
    heads = [_head(p) for p in polys]
    for j in range(len(heads)):
        for i in range(j):
            if _reduce(_s_work(heads[i], heads[j]), heads):
                return False
    return True

