"""Kernel for the hot inner loop: the monomial merge with its Koszul sign.

A *factor* is a triple ``(key, parity, exp)``: an opaque totally ordered key
identifying a basis word, the word's parity (0 or 1), and a positive
exponent.  A monomial is a key-sorted tuple of factors.
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
    la, lb = len(fa), len(fb)
    # odd blocks remaining in fa from position i onwards
    ra = 0
    for k, p, e in fa:
        ra += p & e & 1
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
