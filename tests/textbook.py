"""Reference algorithms as textbooks state them, on the public operators of
GaussianRational and MultiPoly only: the oracles for the reduction loop
and the S-polynomial rule.  Standard library only."""

from operator import sub

from parapose.gaussrat import GaussianRational
from parapose.multipoly import MultiPoly, mono_divides, mono_lcm, mono_mul


def textbook_division(f, divisors):
    """The division algorithm as textbooks state it (Cox, Little & O'Shea,
    ch. 2, sec. 3): a step divides by the leading coefficient and subtracts
    the whole quotient term times the divisor, its leading term included."""
    work, remainder = dict(f.terms), {}
    quotients = [{} for _ in divisors]
    while work:
        m = max(work)
        for q, g in zip(quotients, divisors):
            lm, lc = g.leading_term
            if mono_divides(lm, m):
                qm, qc = tuple(map(sub, m, lm)), work[m] / lc
                q[qm] = qc
                for gm, gc in g.terms:
                    t = mono_mul(qm, gm)
                    c = work.get(t, GaussianRational(0)) - qc * gc
                    if c.is_zero:
                        del work[t]
                    else:
                        work[t] = c
                break
        else:
            remainder[m] = work.pop(m)
    return [MultiPoly(q) for q in quotients], MultiPoly(remainder)


def textbook_s_polynomial(f, g):
    """(lcm/LT(f)) * f - (lcm/LT(g)) * g, each cofactor a one-term
    MultiPoly with coefficient 1/lc."""
    (fm, fc), (gm, gc) = f.leading_term, g.leading_term
    lcm = mono_lcm(fm, gm)
    fq, gq = tuple(map(sub, lcm, fm)), tuple(map(sub, lcm, gm))
    return MultiPoly({fq: 1 / fc}) * f - MultiPoly({gq: 1 / gc}) * g
