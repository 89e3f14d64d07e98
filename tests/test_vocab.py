import hashlib
import json
import random
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosstok.align import AlignScoring, dp_align
from crosstok.audit import audit_coverage
from crosstok.chunks import PositionLogits
from crosstok.errors import MalformedTokenError, UnencodableTextError, ValidationError
from crosstok.losses import build_common_set_exact
from crosstok.training import TeacherConfig, run_step
from crosstok.vocab import (
    Tokenizer,
    Vocabulary,
    _canonical,
    canonicalize,
    canonicalize_bytes,
    exact_partners,
    load_vocabulary,
    make_toy_tokenizer,
    save_vocabulary,
    vocabulary_hash,
)

import canonical_reference
import vocab_reference


class TestCanonicalize:
    def test_space_prefix_unification(self):
        assert canonicalize("Ġthe") == b" the"
        assert canonicalize("▁the") == b" the"
        assert canonicalize("␣the") == b" the"

    def test_idempotent_on_plain_space(self):
        assert canonicalize(" the") == b" the"

    def test_byte_fallback(self):
        # manual byte-table lookup: 0x41 is 'A'
        assert canonicalize("<0x41>") == b"A"
        # high bytes stay raw, even though they are not valid UTF-8 alone
        assert canonicalize("<0xE4>") == b"\xe4"

    def test_byte_fallback_concatenation_recovers_multibyte(self):
        # 'ä' is 0xC3 0xA4 in UTF-8; two fallback tokens concatenate to it
        joined = canonicalize("<0xC3>") + canonicalize("<0xA4>")
        assert joined == canonicalize("ä")

    def test_malformed_byte_fallback_named_in_error(self):
        with pytest.raises(MalformedTokenError, match="0xZZ"):
            canonicalize("<0xZZ>")
        with pytest.raises(MalformedTokenError):
            canonicalize("<0x4>")

    def test_newline_unification(self):
        assert canonicalize("Ċ") == b"\n"
        assert canonicalize("\\n") == b"\n"
        assert canonicalize("\n") == b"\n"

    def test_leading_space_punct_pairs(self):
        assert canonicalize("Ġ,") == b","
        assert canonicalize(" .") == b"."
        assert canonicalize(" :") == b":"
        # only the two-character pattern is rewritten
        assert canonicalize(" ..") == b" .."
        assert canonicalize(" a") == b" a"

    def test_double_markers_become_two_spaces(self):
        assert canonicalize("ĠĠ") == b"  "

    def test_idempotence_fuzz(self):
        rng = random.Random(20240817)
        alphabet = ["a", "b", "Z", "0", "7", " ", ",", ".", "<", ">", "x",
                    "Ġ", "▁", "␣", "Ċ", "\\", "n", "é"]
        for _ in range(10_000):
            raw = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 8)))
            try:
                once = canonicalize(raw)
            except MalformedTokenError:
                continue
            assert canonicalize_bytes(once) == once, raw


class TestVocabulary:
    def test_duplicate_token_rejected(self):
        with pytest.raises(ValidationError, match="duplicate token"):
            Vocabulary(["a", "b", "a"])

    def test_first_repeat_named_with_its_first_id(self):
        with pytest.raises(ValidationError) as info:
            Vocabulary(["a", "b", "c", "b", "a", "c"])
        assert str(info.value) == "duplicate token string 'b' at ids 1 and 3"

    @pytest.mark.parametrize("tokens, message", [
        ([1, 2], "tokens[0] must be a string, got 1"),
        (["a", None], "tokens[1] must be a string, got None"),
        (["a", ["b"], ["b"]], "tokens[1] must be a string, got ['b']"),
    ], ids=["ints", "none", "unhashable_repeat"])
    def test_non_string_token_named(self, tokens, message):
        """Checked ahead of the repeat check, which would hash each token."""
        with pytest.raises(ValidationError) as info:
            Vocabulary(tokens)
        assert str(info.value) == message

    def test_special_out_of_range(self):
        with pytest.raises(ValidationError):
            Vocabulary(["a"], specials=[3])

    def test_role_must_be_special(self):
        with pytest.raises(ValidationError, match="bos"):
            Vocabulary(["a", "<bos>"], specials=[], special_roles={"bos": 1})

    def test_special_roles_are_read_only(self):
        v = Vocabulary(["a", "<bos>"], specials=[1], special_roles={"bos": 1})
        with pytest.raises(TypeError):
            v.special_roles["eos"] = 1
        assert v.special_roles == {"bos": 1}

    def test_hash_memo_equals_fresh_hash(self):
        roles = {"eos": 3, "bos": 2, "cls": 2}
        v = Vocabulary(["a", "Ġb", "<s>", "</s>"], specials=[2, 3], special_roles=roles)
        first = vocabulary_hash(v)
        roles["eos"] = 2  # the caller's dict is copied, not held
        assert vocabulary_hash(v) is first
        fresh = Vocabulary(["a", "Ġb", "<s>", "</s>"], specials=[3, 2],
                           special_roles={"bos": 2, "cls": 2, "eos": 3})
        assert vocabulary_hash(fresh) == first
        assert first == "643feb0358439627d348b9595b2bb73ef56e966345ebef40caaa726417cc4f06"

    def test_longest_by_first_computed_once(self, monkeypatch):
        v = Vocabulary(["a", "Ġbc", "<bos>", "ab", ""], specials=[2], special_roles={"bos": 2})
        assert v.longest_by_first == {"a": 2, "Ġ": 3, "<": 5}
        v.id_of  # built on first use too, so before the tokens are blanked
        monkeypatch.setattr(v, "tokens", None)  # a second scan would fail
        assert v.longest_by_first == {"a": 2, "Ġ": 3, "<": 5}
        assert Tokenizer(v).encode("aab") == [0, 3]
        assert Vocabulary(()).longest_by_first == {}

    def test_token_map_built_by_the_first_encode_only(self):
        """Construction, the exact pairing, the audit, ``dp_align`` and a forward
        step leave both token maps unbuilt; the first ``encode`` builds one."""
        vs, vt = Vocabulary(["a", "b", "c", "ab"]), Vocabulary(["a", "b", "c"])
        exact_partners(vs, vt)
        audit_coverage(vs, build_common_set_exact(vs, vt))
        dp_align([3, 2], [0, 1, 2], AlignScoring(), Tokenizer(vs), Tokenizer(vt))
        rng = np.random.default_rng(0)
        student, teacher = (PositionLogits(side, side, rng.normal(size=(2, 4)), np.array([3, 2]),
                                           vocabulary_hash(vs)) for side in ("student", "teacher"))
        run_step(vs, student, [TeacherConfig("t", "kl", vs, teacher)])
        assert "id_of" not in vars(vs) and "id_of" not in vars(vt)
        assert Tokenizer(vt).encode("ab") == [0, 1]
        assert vars(vt)["id_of"] == dict(zip(vt.tokens, range(len(vt))))
        assert "id_of" not in vars(vs)

    @pytest.mark.parametrize("tokens, specials, roles, named", [
        (["a", "b\ud800"], [], {}, "token 1 'b\\ud800' holds a lone surrogate"),
        (["\udcff", "a"], [0], {}, "token 0 '\\udcff' holds a lone surrogate"),
        (["a", "<s>"], [1], {"\ud800": 1}, "role '\\ud800' holds a lone surrogate"),
    ], ids=["token", "special", "role"])
    def test_lone_surrogate_named(self, tokens, specials, roles, named):
        with pytest.raises(ValidationError) as info:
            Vocabulary(tokens, specials, roles)
        assert str(info.value).startswith(named)

    def test_specials_pass_through_canonicalization(self):
        v = Vocabulary(["Ġthe", "<bos>"], specials=[1], special_roles={"bos": 1})
        assert v.canonical(0) == b" the"
        assert v.canonical(1) == b"<bos>"
        assert v.roles_of(1) == frozenset({"bos"})
        assert v.roles_of(0) == frozenset()


class TestVocabularyFiles:
    def test_roundtrip(self, tmp_path):
        v = Vocabulary(["a", "b", "ab", "<bos>"], specials=[3], special_roles={"bos": 3})
        path = tmp_path / "vocab.json"
        save_vocabulary(v, path)
        loaded = load_vocabulary(path)
        assert loaded == v
        assert vocabulary_hash(loaded) == vocabulary_hash(v)

    def test_saved_bytes(self, tmp_path):
        v = Vocabulary(["a", "Ġb", "<s>", "</s>"], specials=[2, 3],
                       special_roles={"eos": 3, "bos": 2, "cls": 2})
        path = tmp_path / "vocab.json"
        save_vocabulary(v, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "7b8676008ca22f1072fe62100859681a4ee72eef103087d2afe78ee96a81aa87")

    def test_map_form(self, tmp_path):
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps({"tokens": {"a": 0, "b": 1, "ab": 2, "<bos>": 3},
                                    "specials": [3]}), encoding="utf-8")
        v = load_vocabulary(path)
        assert len(v) == 4
        assert v.tokens == ("a", "b", "ab", "<bos>")
        assert v.specials == frozenset({3})

    def test_duplicate_id_names_both_tokens(self, tmp_path):
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps({"tokens": {"a": 0, "b": 1, "c": 1}}), encoding="utf-8")
        with pytest.raises(ValidationError) as exc:
            load_vocabulary(path)
        assert "'b'" in str(exc.value) and "'c'" in str(exc.value)

    def test_map_form_bool_id_rejected(self, tmp_path):
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps({"tokens": {"a": 0, "b": True}}), encoding="utf-8")
        with pytest.raises(ValidationError) as exc:
            load_vocabulary(path)
        assert "vocab.json" in str(exc.value) and "'b'" in str(exc.value)

    def test_id_gap_reports_position(self, tmp_path):
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps({"tokens": {"a": 0, "b": 2}}), encoding="utf-8")
        with pytest.raises(ValidationError, match="gap at id 1"):
            load_vocabulary(path)

    def test_empty_file_is_empty_vocabulary(self, tmp_path):
        path = tmp_path / "vocab.json"
        path.write_text("", encoding="utf-8")
        assert len(load_vocabulary(path)) == 0

    @pytest.mark.parametrize("field,value", [
        ("specials", "ab"),
        ("specials", [0, "1"]),
        ("specials", [True]),
        ("special_roles", ["bos", 0]),
        ("special_roles", {"bos": "0"}),
    ])
    def test_mistyped_special_fields_named(self, tmp_path, field, value):
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps({"tokens": ["a", "<s>"], field: value}), encoding="utf-8")
        with pytest.raises(ValidationError) as exc:
            load_vocabulary(path)
        assert "vocab.json" in str(exc.value) and field in str(exc.value)

    @pytest.mark.parametrize("data,words", [
        ({"tokens": ["a", "a"]}, ["duplicate token string 'a'"]),
        ({"tokens": ["a", "<s>"], "specials": [1], "special_roles": {"bos": 0}},
         ["role 'bos'"]),
        ({"tokens": ["a"], "specials": [3]}, ["special id 3"]),
    ])
    def test_constructor_errors_name_file(self, tmp_path, data, words):
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ValidationError) as exc:
            load_vocabulary(path)
        for word in ("vocab.json", *words):
            assert word in str(exc.value)

    @pytest.mark.parametrize("tokens,field", [
        ([1, None], "tokens[0]"),
        (["a", None], "tokens[1]"),
        (["a", "b", ["c"]], "tokens[2]"),
        (["a", True], "tokens[1]"),
    ])
    def test_non_string_tokens_named(self, tmp_path, tokens, field):
        """``Vocabulary``'s own message, with the file's path in front."""
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps({"tokens": tokens}), encoding="utf-8")
        with pytest.raises(ValidationError) as exc:
            load_vocabulary(path)
        bad = next(t for t in tokens if type(t) is not str)
        assert str(exc.value) == f"{path}: {field} must be a string, got {bad!r}"

    def test_malformed_byte_token_keeps_its_type(self, tmp_path):
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps({"tokens": ["a", "<0xZZ>"]}), encoding="utf-8")
        with pytest.raises(MalformedTokenError) as exc:
            load_vocabulary(path)
        assert str(exc.value).startswith(f"{path}: ") and "0xZZ" in str(exc.value)

    def test_unknown_top_level_key_allowed(self, tmp_path):
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps({"tokens": ["a", "<s>"], "specials": [1],
                                    "special_roles": {"bos": 1}, "model": "x"}),
                        encoding="utf-8")
        assert load_vocabulary(path).special_roles == {"bos": 1}


class TestToyTokenizers:
    def test_digit_splitting_splits_numerals(self):
        tok = make_toy_tokenizer("digit_splitting")
        ids = tok.encode("201")
        assert [tok.decode_token(i) for i in ids] == ["2", "0", "1"]

    def test_numeral_preserving_packs_numerals(self):
        tok = make_toy_tokenizer("numeral_preserving")
        ids = tok.encode("201")
        assert [tok.decode_token(i) for i in ids] == ["201"]

    def test_numeral_preserving_maximal_runs(self):
        tok = make_toy_tokenizer("numeral_preserving")
        ids = tok.encode("20148")
        assert [tok.decode_token(i) for i in ids] == ["201", "48"]

    def test_char_level_empty_input(self):
        assert make_toy_tokenizer("char_level").encode("") == []

    def test_word_level_needs_corpus(self):
        with pytest.raises(ValidationError):
            make_toy_tokenizer("word_level")

    def test_word_level_space_prefixed_words(self):
        tok = make_toy_tokenizer("word_level", ["Hello world"])
        ids = tok.encode("Hello world")
        assert [tok.decode_token(i) for i in ids] == ["Hello", " world"]

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            make_toy_tokenizer("bpe")

    def test_unencodable_character(self):
        tok = make_toy_tokenizer("char_level")
        with pytest.raises(UnencodableTextError):
            tok.encode("é")

    @settings(max_examples=200)
    @given(st.text(alphabet=st.characters(codec="ascii"), max_size=40))
    def test_roundtrip_all_kinds(self, text):
        for kind in ("digit_splitting", "numeral_preserving", "char_level"):
            tok = make_toy_tokenizer(kind)
            assert "".join(map(tok.decode_token, tok.encode(text))) == text

    @settings(max_examples=100)
    @given(st.text(alphabet=st.characters(codec="ascii"), max_size=40))
    def test_roundtrip_word_level(self, text):
        tok = make_toy_tokenizer("word_level", ["the cat ran"])
        assert "".join(map(tok.decode_token, tok.encode(text))) == text


# Token and text pieces: several tokens share a first character and differ in
# length; "c" and "z" start no token unless a drawn token holds them.
ENCODE_PIECES = ("a", "b", "ab", "abc", "ba", "aab", "\u00e9", "\U0001f642", "\n", " ")


def encode_outcome(encode, *args):
    try:
        return encode(*args), None
    except UnencodableTextError as exc:
        return None, str(exc)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.lists(st.sampled_from(ENCODE_PIECES + ("c",)), max_size=4).map("".join),
                unique=True, max_size=10),
       st.lists(st.sampled_from(ENCODE_PIECES + ("c", "z")), max_size=12).map("".join))
def test_encode_matches_uncapped_width_loop(tokens, text):
    """Widths capped by ``longest_by_first`` give the ids, or the error text,
    of the loop that tries every width up to the longest token."""
    v = Vocabulary(tokens, specials=[i for i, t in enumerate(tokens) if t.startswith("b")])
    assert (encode_outcome(Tokenizer(v).encode, text)
            == encode_outcome(vocab_reference.encode, v, text))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from(ENCODE_PIECES + ("c",)), max_size=4).map("".join),
                unique=True, max_size=12))
def test_longest_by_first_matches_length_sort(tokens):
    """The one pass over the tokens, the empty token among them, gives the
    map that sorting them by length gives."""
    assert Vocabulary(tokens).longest_by_first == vocab_reference.longest_by_first(tokens)


# Pieces that hit every rule: the three space markers, the newline marker and
# both newline forms, whole and broken byte-fallback forms, space plus ASCII
# punctuation, and non-ASCII text.
PIECES = ["\u0120", "\u2581", "\u2423", "\u010a", "\\n", "\n", "\\", "n", " ", ",", ".", "'",
          "a", "Z", "0", "x", "\u00e9", "\u4e2d", "\U0001f642", "<0x", ">", "<", "<0x41>",
          "<0xe4>", "<0xC3>", "<0xZZ>", "<0x4>", "<0x4G>", "<0x\u00e9>", "41", "fF"]
# Bytes that are not UTF-8 on their own: markers cut short, lone continuation
# bytes, 0xff, and the UTF-8 form of a surrogate.
RAW_PIECES = [b"\xc4", b"\xa0", b"\x8a", b"\xe2\x96", b"\x81", b"\xff", b"\xed\xb2\x80", b"\x80"]
SURROGATES = st.integers(0xD800, 0xDFFF).map(chr) | st.sampled_from(["\ud800", "\udc80", "\udcff"])

text_tokens = st.lists(st.sampled_from(PIECES) | st.text(max_size=2), max_size=6).map("".join)
byte_tokens = st.lists(st.sampled_from([p.encode() for p in PIECES]) | st.sampled_from(RAW_PIECES)
                       | st.binary(max_size=3), max_size=6).map(b"".join)


def outcome(fn, *args):
    try:
        return fn(*args), None
    except (MalformedTokenError, UnicodeEncodeError) as exc:
        return None, (type(exc), str(exc))


class TestCanonicalAgainstByteLoop:
    """``canonicalize_bytes``, ``canonicalize`` and ``Vocabulary._canon`` against
    the byte loop in ``canonical_reference``: the same bytes or the same error."""

    @settings(max_examples=800, deadline=None)
    @given(byte_tokens)
    def test_bytes(self, raw):
        got = outcome(canonicalize_bytes, raw)
        assert got == outcome(canonical_reference.canonicalize_bytes, raw)
        if got[0] is not None:
            assert canonicalize_bytes(got[0]) == got[0]

    @settings(max_examples=800, deadline=None)
    @given(text_tokens | st.tuples(text_tokens, SURROGATES, text_tokens).map("".join))
    def test_text(self, raw):
        expected = outcome(lambda: canonical_reference.canonicalize_bytes(raw.encode("utf-8")))
        if expected[1] is not None and expected[1][0] is UnicodeEncodeError:
            at, char = next((i, c) for i, c in enumerate(raw) if 0xD800 <= ord(c) <= 0xDFFF)
            with pytest.raises(ValidationError) as info:
                canonicalize(raw)
            assert type(info.value) is ValidationError
            assert str(info.value) == (f"lone surrogate {char!r} at position {at}, which UTF-8 "
                                       "cannot encode")
            return
        assert outcome(canonicalize, raw) == expected
        if expected[0] is not None:
            assert canonicalize_bytes(expected[0]) == expected[0]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(text_tokens | st.tuples(text_tokens, SURROGATES).map("".join), unique=True,
                    max_size=8).flatmap(
        lambda tokens: st.tuples(st.just(tokens), st.sets(st.integers(0, max(len(tokens) - 1, 0)),
                                                          max_size=len(tokens)))))
    def test_vocabulary(self, args):
        tokens, specials = args
        expected = outcome(canonical_reference.vocabulary_canon, tokens, specials)
        if expected[1] is None or expected[1][0] is MalformedTokenError:
            assert outcome(lambda: Vocabulary(tokens, specials)._canon) == expected
        else:  # the byte loop met a lone surrogate first
            i = next(i for i, tok in enumerate(tokens)
                     if any(0xD800 <= ord(c) <= 0xDFFF for c in tok))
            with pytest.raises(ValidationError) as info:
                Vocabulary(tokens, specials)
            assert str(info.value).startswith(f"token {i} {tokens[i]!r} holds a lone surrogate")

    @pytest.mark.parametrize("raw", ["<0xZZ>", "<0x4>", "<0x\u00e9>", "<0x4\u010a>", "<0x\\n>"])
    def test_malformed_message(self, raw):
        with pytest.raises(MalformedTokenError) as info:
            canonicalize(raw)
        with pytest.raises(MalformedTokenError) as ref:
            canonical_reference.canonicalize_bytes(raw.encode("utf-8"))
        assert str(info.value) == str(ref.value)
        assert str(info.value).startswith("malformed byte-fallback token b'")

    @pytest.mark.parametrize("raw", [b"<0x\xe9>", b"<0x\xff\xfe>", b"<0x4\xc4\x8a>", b"<0x\xc3>"])
    def test_malformed_bytes_message(self, raw):
        with pytest.raises(MalformedTokenError) as info:
            canonicalize_bytes(raw)
        assert str(info.value) == outcome(canonical_reference.canonicalize_bytes, raw)[1][1]

    @pytest.mark.parametrize("code", [0xD800, 0xDB7F, 0xDC80, 0xDCFF, 0xDFFF])
    def test_surrogate_names_first_token(self, code):
        tokens = ["a", "<0xZZ>" + chr(code), "<0xZZ>", "b" + chr(code)]
        with pytest.raises(ValidationError) as info:
            Vocabulary(tokens)
        assert str(info.value).startswith(f"token 1 {tokens[1]!r} holds a lone surrogate")


# Whole-vocabulary pieces: runs of the three space markers, the newline marker
# and a literal newline; whole and malformed byte-fallback forms; short
# space-plus-punctuation tokens; and text around them.
MARKER_RUNS = st.lists(st.sampled_from(["\u0120", "\u2581", "\u2423", "\u010a", "\n"]),
                       min_size=1, max_size=5).map("".join)
LIST_PIECES = ["<0x41>", "<0xe4>", "<0xZZ>", "<0x4>", "<0x", ">", "\\n", "\\", "a", "Z",
               "\u00e9", "\U0001f642", " ", ",", "<s>"]
SHORT_PUNCT = st.tuples(st.sampled_from(["", " ", "\u0120", "\u2581", "\u2423"]),
                        st.text(string.punctuation, min_size=1, max_size=2)).map("".join)
list_tokens = (st.lists(MARKER_RUNS | st.sampled_from(LIST_PIECES), max_size=4).map("".join)
               | SHORT_PUNCT | st.just(""))
# tokens that send the whole list through the per-token rules
odd_tokens = st.tuples(list_tokens, st.sampled_from(["\0", "\x01"]) | SURROGATES,
                       list_tokens).map("".join)


def per_token_canon(tokens, specials):
    """``Vocabulary._canon`` as one ``_canonical`` call per token computes it."""
    return tuple(tok.encode("utf-8") if i in specials else _canonical(tok)
                 for i, tok in enumerate(tokens))


def vocab_outcome(fn, *args):
    try:
        return fn(*args), None
    except (MalformedTokenError, UnicodeEncodeError, ValidationError) as exc:
        return None, (type(exc), str(exc))


class TestWholeListCanonical:
    """``Vocabulary._canon`` from the joined-list pass against per-token
    ``_canonical`` and the byte loop in ``canonical_reference``."""

    @settings(max_examples=600, deadline=None)
    @given(st.lists(list_tokens, unique=True, max_size=12), st.lists(odd_tokens, max_size=1),
           st.data())
    def test_equals_per_token_rules(self, tokens, odd, data):
        tokens = [tok for tok in tokens if tok not in odd]
        at = data.draw(st.integers(0, len(tokens)))
        tokens = tokens[:at] + odd + tokens[at:]  # the odd token at any id
        specials = data.draw(st.sets(st.integers(0, max(len(tokens) - 1, 0)),
                                     max_size=len(tokens)))
        got = vocab_outcome(lambda: Vocabulary(tokens, specials)._canon)
        expected = vocab_outcome(per_token_canon, tokens, specials)
        reference = vocab_outcome(canonical_reference.vocabulary_canon, tokens, specials)
        if expected[1] is not None and expected[1][0] is UnicodeEncodeError:
            i = next(i for i, tok in enumerate(tokens)
                     if any(0xD800 <= ord(c) <= 0xDFFF for c in tok))
            assert got[1][0] is ValidationError
            assert got[1][1].startswith(f"token {i} {tokens[i]!r} holds a lone surrogate")
        else:
            assert got == expected
        assert reference[0] == expected[0]
        assert (reference[1] is None) == (expected[1] is None)
        if reference[1] is not None:
            assert reference[1][0] is expected[1][0]

    @pytest.mark.parametrize("tokens, error, message", [
        (["a", "<0xZZ>", "b\ud800"], MalformedTokenError,
         "malformed byte-fallback token b'<0xZZ>': payload is not two hex digits"),
        (["a", "b\ud800", "<0xZZ>"], ValidationError,
         "token 1 'b\\ud800' holds a lone surrogate, which UTF-8 cannot encode"),
        (["\u0120<0x4>", "<0x4>", "\udcff"], MalformedTokenError,
         "malformed byte-fallback token b'<0x4>': payload is not two hex digits"),
        (["\udcff", "\u0120\u0120<0xZZ>", "<0xZZ>"], ValidationError,
         "token 0 '\\udcff' holds a lone surrogate, which UTF-8 cannot encode"),
    ], ids=["malformed-first", "surrogate-first", "malformed-first-marker",
            "surrogate-first-marker"])
    def test_first_bad_token_raises_as_before(self, tokens, error, message):
        with pytest.raises(error) as info:
            Vocabulary(tokens)
        assert type(info.value) is error and str(info.value) == message
        assert vocab_outcome(per_token_canon, tokens, ())[1][0] in (error, UnicodeEncodeError)

    @pytest.mark.parametrize("tokens", [[], [""], ["", "a"], ["a", ""], ["\0"], ["a\0b", "c"],
                                        ["\x01", "\u0120"], ["\u0120\u0120\u2581x\u0120"]])
    def test_edge_lists(self, tokens):
        assert Vocabulary(tokens)._canon == per_token_canon(tokens, ())
