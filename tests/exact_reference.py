"""Exact block symbols of a float spec, in ``fractions.Fraction``.

Every double is a dyadic rational, so ``Fraction`` reads a float spec's
weights, ``u`` and ``w`` with no rounding, and gives each block's
``alpha = E(uw)``, ``beta = E|u|^2`` and ``gamma = E|w|^2`` exactly.  A
verdict that is a closed form in them then follows exactly: on block b the
operator is the rank-one ``x y*`` with ``x = w 1_b`` and ``y = conj(u) 1_b /
mu(b)``, so ``|<x, y>|^2 = |alpha|^2`` and ``|x|^2 |y|^2 = beta gamma``, and
the block is normal iff the two are equal (Cauchy-Schwarz, with equality
iff ``x`` and ``y`` are parallel or one is zero).
"""

from fractions import Fraction


def _pair(z):
    """The exact ``(re, im)`` of a real or complex number."""
    z = complex(z)
    return Fraction(z.real), Fraction(z.imag)


def block_symbols(weights, blocks, u, w):
    """``(alpha, beta, gamma)`` of each block, with ``alpha`` an exact
    ``(re, im)`` pair, for atom masses ``weights``, blocks of atom indices
    and the atom values of ``u`` and ``w``."""
    mu = [Fraction(float(x)) for x in weights]
    us, ws = [_pair(z) for z in u], [_pair(z) for z in w]
    table = []
    for blk in blocks:
        mass = sum(mu[i] for i in blk)
        re = im = beta = gamma = Fraction(0)
        for i in blk:
            (a, b), (c, d) = us[i], ws[i]
            re += (a * c - b * d) * mu[i]
            im += (a * d + b * c) * mu[i]
            beta += (a * a + b * b) * mu[i]
            gamma += (c * c + d * d) * mu[i]
        table.append(((re / mass, im / mass), beta / mass, gamma / mass))
    return table


def sine_squares(table):
    """``sin^2 theta_b = 1 - |alpha|^2 / (beta gamma)`` of each block of a
    ``block_symbols`` table, 0 on a block where ``beta gamma = 0`` (there
    ``alpha = 0`` too).  The operator is normal iff every value is 0."""
    return [
        1 - (re * re + im * im) / (beta * gamma) if beta * gamma else Fraction(0)
        for (re, im), beta, gamma in table
    ]
