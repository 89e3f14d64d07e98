import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosstok.align import (
    Alignment,
    AlignmentChunk,
    AlignmentCache,
    AlignScoring,
    ChunkKind,
    chunk_records,
    dp_align,
    trl_substring_align,
    write_alignment_dump,
)
from crosstok.errors import ValidationError
from crosstok.vocab import Tokenizer, Vocabulary

from brute_force_reference import brute_force_align
from conftest import read_alignment_dump
from dp_reference import reference_dp_align

SCORING = AlignScoring()


def toks(*tokens, specials=(), roles=None):
    return Tokenizer(Vocabulary(tokens, specials=specials, special_roles=roles))


# 6-token toy vocabulary with plenty of combination opportunities
COMBO = toks("a", "b", "c", "ab", "bc", "abc")


def check_coverage(alignment: Alignment, n: int, m: int) -> None:
    si = ti = 0
    for c in alignment.chunks:
        assert c.student_span[0] == si and c.teacher_span[0] == ti
        si, ti = c.student_span[1], c.teacher_span[1]
    assert si == n and ti == m


def check_chunk_shapes(alignment: Alignment, max_span: int) -> None:
    for c in alignment.chunks:
        s_len = c.student_span[1] - c.student_span[0]
        t_len = c.teacher_span[1] - c.teacher_span[0]
        if c.kind in (ChunkKind.MATCH, ChunkKind.MISMATCH):
            assert s_len == t_len == 1
        elif c.kind is ChunkKind.COMBINATION:
            assert sorted((s_len, t_len)) in ([1, k] for k in range(2, max_span + 1))
        elif c.kind is ChunkKind.GAP_TEACHER_SIDE:
            assert (s_len, t_len) == (1, 0)
        elif c.kind is ChunkKind.GAP_STUDENT_SIDE:
            assert (s_len, t_len) == (0, 1)


def chunk_score(c, scoring: AlignScoring) -> float:
    s_len = c.student_span[1] - c.student_span[0]
    t_len = c.teacher_span[1] - c.teacher_span[0]
    if c.kind is ChunkKind.MATCH:
        return scoring.alpha_exact
    if c.kind is ChunkKind.MISMATCH:
        return -scoring.alpha_exact
    if c.kind is ChunkKind.COMBINATION:
        return scoring.alpha_comb * max(s_len, t_len)
    return scoring.alpha_gap


class TestDpAlign:
    def test_bos_asymmetry_yields_one_gap_three_matches(self):
        tok_s = toks("<bos>", "Hello", " world", ".", specials=(0,))
        tok_t = toks("Hello", " world", ".")
        out = dp_align([0, 1, 2, 3], [0, 1, 2], SCORING, tok_s, tok_t)
        kinds = [c.kind for c in out.chunks]
        assert kinds == [ChunkKind.GAP_TEACHER_SIDE, ChunkKind.MATCH,
                         ChunkKind.MATCH, ChunkKind.MATCH]
        assert out.chunks[0].student_span == (0, 1)
        assert out.score == pytest.approx(SCORING.alpha_gap + 3 * SCORING.alpha_exact)

    def test_identical_sequences_all_diagonal(self):
        out = dp_align([0, 1], [0, 1], SCORING, COMBO, COMBO)
        assert [c.kind for c in out.chunks] == [ChunkKind.MATCH, ChunkKind.MATCH]
        assert out.score == pytest.approx(2 * SCORING.alpha_exact)

    def test_one_to_three_combination(self):
        tok_s = toks("201")
        tok_t = toks("2", "0", "1")
        out = dp_align([0], [0, 1, 2], SCORING, tok_s, tok_t)
        # oracle: exhaustive enumeration of this instance gives 3 * alpha_comb
        oracle = brute_force_align([0], [0, 1, 2], SCORING, tok_s, tok_t)
        assert out.score == oracle.score == pytest.approx(4.5)
        assert [c.kind for c in out.chunks] == [ChunkKind.COMBINATION]
        assert out.chunks[0].teacher_span == (0, 3)
        assert out.chunks[0].in_loss

    def test_mismatch_diagonal_preferred_on_tie_and_excluded_from_loss(self):
        out = dp_align([0], [2], SCORING, COMBO, COMBO)
        assert [c.kind for c in out.chunks] == [ChunkKind.MISMATCH]
        assert not out.chunks[0].in_loss
        assert out.score == pytest.approx(-SCORING.alpha_exact)

    @pytest.mark.filterwarnings("error")
    def test_scores_past_the_float_range_rejected_by_name(self):
        """Constants that could overflow a score fail by name before numpy
        warns; constants that cannot, however large, still align."""
        tok_s, tok_t = toks("201"), toks("2", "0", "1")
        with pytest.raises(ValidationError) as info:
            dp_align([0], [0, 1, 2], AlignScoring(1e308, 1e308, -1e308), tok_s, tok_t)
        assert str(info.value) == ("alpha_exact=1e+308, alpha_comb=1e+308 and alpha_gap=-1e+308 "
                                   "could take an alignment score over 1 + 3 tokens past the "
                                   "float range")
        out = dp_align([0], [0, 1, 2], AlignScoring(1e300, 1e300, -1e300), tok_s, tok_t)
        assert out.score == pytest.approx(3e300)

    def test_empty_sequences(self):
        out = dp_align([], [], SCORING, COMBO, COMBO)
        assert out.chunks == ()
        assert out.score == 0.0

    def test_canonical_matching_across_marker_styles(self):
        tok_s = toks("Ġthe")
        tok_t = toks(" the")
        out = dp_align([0], [0], SCORING, tok_s, tok_t)
        assert [c.kind for c in out.chunks] == [ChunkKind.MATCH]

    def test_specials_match_only_via_shared_role(self):
        tok_s = toks("<bos>", specials=(0,), roles={"bos": 0})
        tok_t = toks("<|begin|>", specials=(0,), roles={"bos": 0})
        out = dp_align([0], [0], SCORING, tok_s, tok_t)
        assert [c.kind for c in out.chunks] == [ChunkKind.MATCH]
        # same surface text but no role on one side: no match
        tok_u = toks("<bos>", specials=(0,))
        out = dp_align([0], [0], SCORING, tok_s, tok_u)
        assert [c.kind for c in out.chunks] == [ChunkKind.MISMATCH]


class TestBruteForce:
    def test_refuses_large_inputs(self):
        with pytest.raises(ValidationError):
            brute_force_align([0] * 7, [0] * 6, SCORING, COMBO, COMBO)

    def test_empty_vs_empty(self):
        out = brute_force_align([], [], SCORING, COMBO, COMBO)
        assert out.chunks == () and out.score == 0.0

    def test_single_token_vs_empty(self):
        out = brute_force_align([0], [], SCORING, COMBO, COMBO)
        assert [c.kind for c in out.chunks] == [ChunkKind.GAP_TEACHER_SIDE]
        assert out.score == pytest.approx(SCORING.alpha_gap)

    def test_agrees_with_dp_on_random_pairs(self):
        rng = random.Random(7)
        ids = range(len(COMBO.vocabulary))
        for _ in range(150):
            n = rng.randrange(0, 6)
            m = rng.randrange(0, min(6, 11 - n))
            s = [rng.choice(ids) for _ in range(n)]
            t = [rng.choice(ids) for _ in range(m)]
            fast = dp_align(s, t, SCORING, COMBO, COMBO)
            slow = brute_force_align(s, t, SCORING, COMBO, COMBO)
            assert fast.score == slow.score, (s, t)

    @pytest.mark.parametrize("scoring", [
        AlignScoring(alpha_exact=2.0, alpha_comb=1.5, alpha_gap=-1.5),
        AlignScoring(alpha_exact=5.0, alpha_comb=0.5, alpha_gap=-0.25, max_span=3),
        AlignScoring(alpha_exact=3.0, alpha_comb=4.0, alpha_gap=-3.0, max_span=2),
    ])
    def test_agrees_with_dp_under_other_constants(self, scoring):
        # includes a config where a mismatch strictly beats a gap pair
        rng = random.Random(5)
        for _ in range(80):
            n = rng.randrange(0, 7)
            m = rng.randrange(0, min(7, 11 - n))
            s = [rng.randrange(6) for _ in range(n)]
            t = [rng.randrange(6) for _ in range(m)]
            fast = dp_align(s, t, scoring, COMBO, COMBO)
            slow = brute_force_align(s, t, scoring, COMBO, COMBO)
            assert fast.score == slow.score, (s, t)


class TestTrlBaseline:
    def test_bos_asymmetry_collapses_to_super_group(self):
        tok_s = toks("<bos>", "Hello", " world", ".", specials=(0,))
        tok_t = toks("Hello", " world", ".")
        out = trl_substring_align([0, 1, 2, 3], [0, 1, 2], tok_s, tok_t)
        assert len(out.chunks) == 1
        c = out.chunks[0]
        assert c.kind is ChunkKind.SUPER_GROUP
        assert c.student_span == (0, 4) and c.teacher_span == (0, 3)
        assert not c.in_loss

    def test_identical_sequences_match_dp(self):
        s = [0, 1]
        dp = dp_align(s, s, SCORING, COMBO, COMBO)
        trl = trl_substring_align(s, s, COMBO, COMBO)
        assert trl.chunks == dp.chunks

    def test_flushes_one_to_many_group(self):
        tok_s = toks("ab")
        tok_t = toks("a", "b")
        out = trl_substring_align([0], [0, 1], tok_s, tok_t)
        assert len(out.chunks) == 1
        c = out.chunks[0]
        assert c.kind is ChunkKind.COMBINATION
        assert c.student_span == (0, 1) and c.teacher_span == (0, 2)


class TestAlignmentProperties:
    def test_gap_localization(self):
        rng = random.Random(13)
        ids = [0, 1, 2]  # single-char tokens only, so matches are unambiguous
        extra = COMBO.vocabulary.id_of["abc"]
        for _ in range(50):
            base = [rng.choice(ids) for _ in range(rng.randrange(1, 5))]
            ref = dp_align(base, base, SCORING, COMBO, COMBO)
            out = dp_align([extra] + base, base, SCORING, COMBO, COMBO)
            assert len(out.chunks) == len(ref.chunks) + 1
            assert out.chunks[0].kind is ChunkKind.GAP_TEACHER_SIDE
            assert [c.kind for c in out.chunks[1:]] == [c.kind for c in ref.chunks]
            out = dp_align(base, [extra] + base, SCORING, COMBO, COMBO)
            assert len(out.chunks) == len(ref.chunks) + 1
            assert out.chunks[0].kind is ChunkKind.GAP_STUDENT_SIDE
            assert [c.kind for c in out.chunks[1:]] == [c.kind for c in ref.chunks]

    @settings(max_examples=300)
    @given(st.lists(st.integers(0, 5), max_size=10),
           st.lists(st.integers(0, 5), max_size=10))
    def test_score_decomposition_and_coverage(self, s, t):
        out = dp_align(s, t, SCORING, COMBO, COMBO)
        check_coverage(out, len(s), len(t))
        check_chunk_shapes(out, SCORING.max_span)
        total = sum(chunk_score(c, SCORING) for c in out.chunks)
        assert total == pytest.approx(out.score, abs=1e-9)

    def test_scoring_validation(self):
        with pytest.raises(ValidationError):
            AlignScoring(alpha_exact=-1)
        with pytest.raises(ValidationError):
            AlignScoring(alpha_gap=0.5)
        with pytest.raises(ValidationError):
            AlignScoring(max_span=1)


class TestCacheAndDump:
    def test_cache_returns_stored_alignment(self):
        cache = AlignmentCache()
        a1 = cache.get_or_compute([0, 1], [0, 1], SCORING, COMBO, COMBO)
        a2 = cache.get_or_compute([0, 1], [0, 1], SCORING, COMBO, COMBO)
        assert a1 is a2
        assert len(cache) == 1
        assert cache.get([0, 1], [0, 1], SCORING, COMBO, COMBO) is a1
        assert cache.get([1, 0], [0, 1], SCORING, COMBO, COMBO) is None

    def test_concurrent_reads_with_exclusive_insert(self):
        from concurrent.futures import ThreadPoolExecutor

        cache = AlignmentCache()
        seqs = [([i % 3], [i % 3]) for i in range(64)]

        def work(pair):
            s, t = pair
            return cache.get_or_compute(s, t, SCORING, COMBO, COMBO)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(work, seqs))
        assert len(cache) == 3
        # every repeat of a key observes the single stored alignment
        for (s, _), result in zip(seqs, results):
            assert result is cache.get(s, s, SCORING, COMBO, COMBO)

    def test_cache_distinguishes_scoring(self):
        cache = AlignmentCache()
        a1 = cache.get_or_compute([0], [0], SCORING, COMBO, COMBO)
        other = AlignScoring(alpha_exact=2.0)
        a2 = cache.get_or_compute([0], [0], other, COMBO, COMBO)
        assert len(cache) == 2
        assert a1 is not a2

    def test_dump_roundtrip(self, tmp_path):
        out = dp_align([0, 1], [0, 1], SCORING, COMBO, COMBO)
        path = tmp_path / "chunks.jsonl"
        write_alignment_dump(path, [("seq0", out)])
        records = read_alignment_dump(path)
        assert records == chunk_records("seq0", out)
        assert records[0]["kind"] == "match"
        assert records[0]["in_loss"] is True


# ---------------------------------------------------------------------------
# DP pins: chunk lists and scores recorded from the string-tagged backtrace
# that preceded the stored-move one, on fixed-seed random pairs.

SPECIALS_S = toks("<bos>", "a", "b", "ab", "c", "bc", "<eos>", "<pad>",
                  specials=(0, 6, 7), roles={"bos": 0, "eos": 6})
SPECIALS_T = toks("<s>", "</s>", "a", "b", "c", "abc", "ca", "<unk>",
                  specials=(0, 1, 7), roles={"bos": 0, "eos": 1, "unk": 7})
PIN_SCORINGS = {
    "default": SCORING,
    "exact2": AlignScoring(alpha_exact=2.0, alpha_comb=1.5, alpha_gap=-1.5),
    "span3": AlignScoring(alpha_exact=5.0, alpha_comb=0.5, alpha_gap=-0.25, max_span=3),
    "span2": AlignScoring(alpha_exact=3.0, alpha_comb=4.0, alpha_gap=-3.0, max_span=2),
}
PIN_VOCABS = {"combo": (COMBO, COMBO), "specials": (SPECIALS_S, SPECIALS_T)}
PINNED_DP_DIGESTS = {
    ("combo", "default"): "f6ee03ccc23bd477f92d843795bb0fb1fda86a57f0ef5e6734474dfbdde571c2",
    ("combo", "exact2"): "90cfc78b5d36dfe5b90b120a5776e9867903baef3ab2b57f7afb162739ece750",
    ("combo", "span3"): "76557a69a54705ee3fe59a4f1307c3b72baa2f5953dd0a3cea22439d55592e0b",
    ("combo", "span2"): "ffa62f304cf2c03b9975d6d991f122e4165da75d1175e3361b8968735273ce5b",
    ("specials", "default"): "ef80d6dd12cfea7cd7e8f981296dbede677b7e5fa75eda363a9dc3416ccf02ef",
    ("specials", "exact2"): "091d90dd143140589686c16d43079dcc217475f726c645dd2ebb0ce27c25f11d",
    ("specials", "span3"): "03ec38a94b8fa068f840d227e970180b4dd901fbd0c96ae2f0cc6d3aa7908dc0",
    ("specials", "span2"): "dbfa703878f172981d919aa4f3aafa579556cb03e4ef6529f8ceb0fae3b46be6",
}


def dp_digest(tok_s, tok_t, scoring, seed: int, pairs: int = 120) -> str:
    """sha256 over the chunk spans, kinds and score of ``pairs`` random pairs."""
    rng = random.Random(seed)
    n_s, n_t = len(tok_s.vocabulary), len(tok_t.vocabulary)
    h = hashlib.sha256()
    for _ in range(pairs):
        s = [rng.randrange(n_s) for _ in range(rng.randrange(0, 25))]
        t = [rng.randrange(n_t) for _ in range(rng.randrange(0, 25))]
        out = dp_align(s, t, scoring, tok_s, tok_t)
        h.update(repr([(c.student_span, c.teacher_span, c.kind.value)
                       for c in out.chunks]).encode())
        h.update(repr(out.score).encode())
    return h.hexdigest()


@pytest.mark.parametrize("vocabs,scoring", sorted(PINNED_DP_DIGESTS))
def test_dp_chunkings_match_pins(vocabs, scoring):
    # every chunk kind, 1-to-k and k-to-1 combinations of width 2 and 3, and
    # specials paired by role (or unpaired) occur in these pairs
    tok_s, tok_t = PIN_VOCABS[vocabs]
    digest = dp_digest(tok_s, tok_t, PIN_SCORINGS[scoring], seed=31)
    assert digest == PINNED_DP_DIGESTS[vocabs, scoring]


# ---------------------------------------------------------------------------
# The anti-diagonal wavefront against the scalar cell-by-cell reference.

# an empty token lets a 1-to-k and a k-to-1 combination both be legal at
# one cell, so the order between them shows
EMPTY_TOKEN = toks("", "a", "b", "ab", "<s>", specials=(4,), roles={"bos": 4})
REFERENCE_VOCABS = {**PIN_VOCABS, "empty": (EMPTY_TOKEN, EMPTY_TOKEN)}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_wavefront_matches_scalar_reference(data):
    vocabs = data.draw(st.sampled_from(sorted(REFERENCE_VOCABS)))
    scoring = PIN_SCORINGS[data.draw(st.sampled_from(sorted(PIN_SCORINGS)))]
    tok_s, tok_t = REFERENCE_VOCABS[vocabs]
    s = data.draw(st.lists(st.integers(0, len(tok_s.vocabulary) - 1), max_size=40))
    t = data.draw(st.lists(st.integers(0, len(tok_t.vocabulary) - 1), max_size=40))
    fast = dp_align(s, t, scoring, tok_s, tok_t)
    ref = reference_dp_align(s, t, scoring, tok_s, tok_t)
    assert fast.chunks == ref.chunks
    assert type(fast.score) is float and fast.score.hex() == ref.score.hex()


def test_combination_wider_than_int8_move_codes():
    tok_s, tok_t = toks("a" * 130, "b"), toks("a", "b")
    s, t = [1, 0, 1], [1] + [0] * 130 + [1]
    scoring = AlignScoring(max_span=200)
    out = dp_align(s, t, scoring, tok_s, tok_t)
    assert out == reference_dp_align(s, t, scoring, tok_s, tok_t)
    assert out.chunks[1] == AlignmentChunk((1, 2), (1, 131), ChunkKind.COMBINATION)
    # the mirrored 130-to-1 combination steps back k rows and one column
    out = dp_align(t, s, scoring, tok_t, tok_s)
    assert out == reference_dp_align(t, s, scoring, tok_t, tok_s)
    assert out.chunks[1] == AlignmentChunk((1, 131), (1, 2), ChunkKind.COMBINATION)
