"""The one token-correspondence rule and the three structures built on it.

``exact_partners`` decides "student token s is teacher token t". The
hypothesis property checks it against a brute force over every (s, t) pair;
the pins hold digests of the projection's rows and of both common sets on
fixed-seed vocabulary pairs, recorded from the separate implementations
that the rule replaced, and of the saved projection file and its summary,
recorded from the tuple-of-tuples storage that the CSR arrays replaced.
Seeds 0 and 7 were re-recorded when a re-tokenized row that lands on a
teacher special became empty: there the student's ordinary token "<s>"
re-tokenizes to the teacher special "<s>", and that row alone changed.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosstok.losses import build_common_set_exact, build_common_set_relaxed
from crosstok.projection import ProjectionConfig, Provenance, build_projection, save_projection
from crosstok.vocab import Tokenizer, Vocabulary, exact_partners

import vocab_reference

# space markers, newline spellings and byte-fallback forms that collide after
# canonicalization (e.g. "Ġa", "▁a" and " a"; "Ċ", "\\n" and "<0x0A>")
PREFIXES = ("", " ", "Ġ", "▁", "␣")
BODIES = ("a", "b", "ab", "ba", "abc", ".", ",", "\n", "Ċ", "\\n", "1", "12", "<s>",
          "abab", "ab12", "a.b", "ba,", "1a2")
FALLBACKS = tuple(f"<0x{c:02X}>" for c in b"ab.\n 1")
ORDINARY = tuple(p + b for p in PREFIXES for b in BODIES) + FALLBACKS
CHARS = ("a", "b", "c", ".", ",", "\n", " ", "1", "2")
SPECIALS = ("<s>", "</s>", "<pad>", "<unk>", "<mask>")
ROLES = ("bos", "eos", "pad", "unk", "cls")


def make_vocab(ordinary, specials, roles):
    """Ordinary tokens then specials; ``roles`` maps a role to an index into
    ``specials``, so several roles may share one special id."""
    tokens = list(ordinary) + [t for t in specials if t not in ordinary]
    special_ids = list(range(len(ordinary), len(tokens)))
    role_ids = {r: special_ids[i] for r, i in roles.items() if i < len(special_ids)}
    return Vocabulary(tokens, specials=special_ids, special_roles=role_ids)


def brute_force_partners(vs, vt):
    def same(s, t):
        if vs.is_special(s) or vt.is_special(t):
            return bool(vs.roles_of(s) & vt.roles_of(t))
        return vs.canonical(s) == vt.canonical(t)
    return tuple(next((t for t in range(len(vt)) if same(s, t)), None) for s in range(len(vs)))


def assert_partners(got, expected):
    """``got`` is the ``intp`` array of ``expected``'s partners, None as -1."""
    assert got.dtype == np.intp and got.shape == (len(expected),)
    assert got.tolist() == [-1 if t is None else t for t in expected]


def pairs(c):
    """A common set as a list of ``[student_id, teacher_id]`` pairs."""
    return [list(p) for p in zip(c.student_ids.tolist(), c.teacher_ids.tolist())]


def side(draw, special_pool=SPECIALS):
    ordinary = draw(st.lists(st.sampled_from(ORDINARY), unique=True, max_size=14))
    specials = draw(st.lists(st.sampled_from(special_pool), unique=True, max_size=4))
    roles = draw(st.dictionaries(st.sampled_from(ROLES), st.integers(0, 3)))
    return make_vocab(ordinary, specials, roles)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_exact_partners_matches_brute_force(data):
    vs, vt = side(data.draw), side(data.draw)
    assert_partners(exact_partners(vs, vt), brute_force_partners(vs, vt))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_exact_partners_matches_dict_loop(data):
    """Against the per-id dict loop; specials " a", "ab" and "\n" hold the
    canonical bytes of ordinary tokens such as "Ġa", " ab" or "Ċ"."""
    pool = SPECIALS + (" a", "ab", "\n")
    vs, vt = side(data.draw, pool), side(data.draw, pool)
    assert_partners(exact_partners(vs, vt), vocab_reference.exact_partners(vs, vt))


def test_exact_partners_cases():
    vs = Vocabulary(["Ġa", " a", "<0x61>", "<s>", "<x>", "b"], specials=[3, 4],
                    special_roles={"bos": 3, "eos": 3, "pad": 4})
    vt = Vocabulary(["<e>", "a", " a", "<b>", "<s>"], specials=[0, 3, 4],
                    special_roles={"eos": 0, "bos": 3})
    # " a" collides with "Ġa" on both sides; "<0x61>" is the byte "a";
    # "<s>" holds roles bos and eos, so it pairs with the smaller of ids 0
    # and 3; "<x>" has no partner role and its string does not pair it.
    assert_partners(exact_partners(vs, vt), (2, 2, 1, 0, None, None))


def random_pair(seed):
    """A student and a teacher vocabulary; the teacher always holds the
    single characters, so most unpaired student tokens re-tokenize into
    multi-token rows."""
    rng = np.random.default_rng(seed)

    def one(chars=()):
        ordinary = rng.choice(ORDINARY, size=int(rng.integers(20, len(ORDINARY))),
                              replace=False).tolist()
        ordinary += [c for c in chars if c not in ordinary]
        specials = rng.choice(SPECIALS, size=int(rng.integers(0, 5)), replace=False).tolist()
        roles = {r: int(rng.integers(0, 4)) for r in ROLES if rng.random() < 0.6}
        return make_vocab(rng.permutation(ordinary).tolist(), specials, roles)

    return one(), one(CHARS)


def digest(value):
    return hashlib.sha256(json.dumps(value).encode("utf-8")).hexdigest()[:16]


# seed -> (projection rows and provenance, exact common set, relaxed common set)
PINNED = {
    0: ("0c6b9dfdb45b4a91", "4fb24b43c126abcf", "36f1c00a7562649a"),
    1: ("e5c46436bc9672e5", "b89e434446d5aaea", "41ffc1650dd56971"),
    2: ("8d50b1fb7e2a182b", "7fdb60c0fc518308", "7fdb60c0fc518308"),
    3: ("fd36cb998c9c6db0", "ebc237ca528f13a0", "3d14be6a835aa773"),
    4: ("f9a356aeaf2a04bc", "a6c9877f2ec0477f", "6256633edefbdd07"),
    5: ("939a8df5f5141345", "ec50dbf692d4ef19", "ec50dbf692d4ef19"),
    6: ("2c97e21e45a9783b", "0d2fc2411aa91ff4", "0b43336798bcaa26"),
    7: ("a03ea214d160d98d", "c2426564ef2076bb", "c2426564ef2076bb"),
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_pinned_projection_and_common_sets(seed):
    vs, vt = random_pair(seed)
    w = build_projection(vs, vt, Tokenizer(vt))
    got = (digest([[list(r) for r in w.rows], [p.value for p in w.provenance]]),
           digest(pairs(build_common_set_exact(vs, vt))),
           digest(pairs(build_common_set_relaxed(w))))
    assert got == PINNED[seed]
    partners = exact_partners(vs, vt)
    for s, t in enumerate(partners.tolist()):
        assert (w.provenance[s] is Provenance.EXACT) == (t >= 0)
        if t >= 0:
            assert w.rows[s] == ((t, 1.0),)
        elif vs.is_special(s):
            assert w.provenance[s] is Provenance.EMPTY


# seed -> (file sha256, summary) at the default config, then at top_k=2,
# where truncation drops mass from the three- and four-token rows
PINNED_FILES = {
    0: ("063030b219ef2870", "5ea6aef819295b4e", "1bff995bf7801381", "4f561487bc98bb98"),
    1: ("9639a14afbc6a37f", "cf90aa4b45f0e570", "4ca63e91d015a679", "09d36093d0557737"),
    2: ("90182490cb0df7d6", "5ea6aef819295b4e", "034b85e480744b3d", "4f561487bc98bb98"),
    3: ("808f08dc4ed49a45", "c69562e5ffc12460", "33c6faf6004da93f", "2b196088689855d1"),
    4: ("6f2c2ac4499c176e", "3106e94d1fad8c35", "814440669282d01d", "6695ef10c3bb6d68"),
    5: ("f4aa1e95d1d1cd76", "a14163c920879913", "81fe6121a0c835e8", "a14163c920879913"),
    6: ("ecba6706ac0ee467", "843b8f122fb3f449", "a021e80cd557f917", "c1d769b3c6296ee1"),
    7: ("2460f05afb3b7a49", "6f614fa8d07a4b6b", "6d2cca20fea99806", "c9f596a356b39a60"),
}


@pytest.mark.parametrize("seed", sorted(PINNED_FILES))
def test_pinned_projection_file_and_summary(seed, tmp_path):
    vs, vt = random_pair(seed)
    got = []
    for config in (ProjectionConfig(), ProjectionConfig(top_k=2)):
        w = build_projection(vs, vt, Tokenizer(vt), config)
        path = tmp_path / "w.proj"
        save_projection(w, path)
        summary = json.dumps(w.summary(), sort_keys=True, separators=(",", ":"))
        got += [hashlib.sha256(path.read_bytes()).hexdigest()[:16],
                hashlib.sha256(summary.encode("utf-8")).hexdigest()[:16]]
    assert tuple(got) == PINNED_FILES[seed]
