"""Kernel for the hot inner loop: the monomial merge with its Koszul sign.

A *factor* is a triple ``(key, parity, exp)``: an opaque totally ordered key
identifying a basis word (the free engine's is an int rank), the word's
parity (0 or 1), and a positive exponent.  A monomial is a key-sorted tuple of factors.

Two merges need no walk: when every key of one tuple is below every key of
the other, the product is their concatenation.  With ``fa`` below ``fb`` it
is ``fa + fb`` with sign +1; with ``fb`` below ``fa`` it is ``fb + fa``, and
the sign is -1 exactly when both tuples hold an odd number of odd blocks
(every odd block of fb crosses every odd block of fa).  About half the
merges of the free engine's benchmark workloads take one of these paths.
"""

IMPLEMENTATION = "python"  # reported by the benchmark harness


def merge_factors(fa, fb):
    """Merge two key-sorted factor tuples into one, with the Koszul sign.

    Returns ``(sign, merged)``.  The sign is the parity of the number of
    odd-odd crossings performed by a stable merge (each factor block counts
    with parity ``parity*exp mod 2``), i.e. the sign produced by sorting the
    concatenation with adjacent transpositions.  ``sign == 0`` means the
    product vanishes because an odd factor met itself.
    """
    if not fa:
        return 1, fb
    if not fb:
        return 1, fa
    if fa[-1][0] < fb[0][0]:
        return 1, fa + fb
    # odd blocks remaining in fa from position i onwards
    ra = 0
    for k, p, e in fa:
        ra += p & e & 1
    if fb[-1][0] < fa[0][0]:
        rb = 0
        if ra & 1:
            for k, p, e in fb:
                rb += p & e & 1
        return (-1 if rb & 1 else 1), fb + fa
    la, lb = len(fa), len(fb)
    out = []
    sign = 0
    i = j = 0
    while i < la and j < lb:
        ka, pa, ea = fa[i]
        kb, pb, eb = fb[j]
        if ka < kb:
            out.append(fa[i])
            ra -= pa & ea & 1
            i += 1
        elif kb < ka:
            if pb & eb & 1:
                sign ^= ra & 1
            out.append(fb[j])
            j += 1
        else:
            # same basis word on both sides
            if pa:
                return 0, ()
            out.append((ka, pa, ea + eb))
            i += 1
            j += 1
    out.extend(fa[i:])
    out.extend(fb[j:])
    return (-1 if sign & 1 else 1), tuple(out)
