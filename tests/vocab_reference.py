"""The per-id loops that ``crosstok.vocab`` replaced, kept as the references
they are property-tested against: ``exact_partners`` as one dict loop over
each vocabulary, ``encode`` as greedy longest match that tries every
width up to the longest token in the vocabulary at each position, and
``longest_by_first`` as a sort of the tokens by length."""

from crosstok.errors import UnencodableTextError


def exact_partners(vs, vt):
    by_canon = {}
    for t, canon in enumerate(vt._canon):
        if t not in vt.specials:
            by_canon.setdefault(canon, t)
    partners = []
    for s, canon in enumerate(vs._canon):
        if s in vs.specials:
            shared = [vt.special_roles[r] for r in vs.roles_of(s) if r in vt.special_roles]
            partners.append(min(shared, default=None))
        else:
            partners.append(by_canon.get(canon))
    return tuple(partners)


def encode(vocabulary, text):
    ids = []
    lookup = vocabulary.id_of
    max_len = max((len(t) for t in vocabulary.tokens), default=0)
    i = 0
    n = len(text)
    while i < n:
        for width in range(min(max_len, n - i), 0, -1):
            tid = lookup.get(text[i : i + width])
            if tid is not None:
                ids.append(tid)
                i += width
                break
        else:
            raise UnencodableTextError(
                f"no token matches text at position {i}: {text[i:i+8]!r}"
            )
    return ids


def longest_by_first(tokens):
    ordered = sorted(filter(None, tokens), key=len)
    return dict(zip([t[0] for t in ordered], map(len, ordered)))  # the last one is longest
