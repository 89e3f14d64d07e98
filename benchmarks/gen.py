"""Seeded input generator for the crosstok benchmark.

Writes every input a workload needs into one directory, using the library's
own savers, so the measured process sees only files:

    python3 benchmarks/gen.py --workload step_warm_grad --seed 0 --tier full --out DIR

Vocabularies come in two marker styles over one synthetic lexicon. The student
is SentencePiece-like: ``▁`` marks a leading space, 2- and 3-digit numerals are
single tokens, and newlines and non-ASCII characters go through ``<0xHH>``
byte fallback. The teacher is GPT-2-like: ``Ġ``/``Ċ`` mark space and newline,
digits are split, and a few non-ASCII characters are whole tokens. Both carry
all 256 byte-fallback tokens, the bare marker glyphs (without them the greedy
tokenizer rejects any word it has no marked token for) and role-tagged
specials.

``Tokenizer`` matches raw strings, so each family sees its own view of a text:
the generator writes the pre-tokenized views (spaces and newlines replaced by
the family's markers) next to the raw text.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def bootstrap_crosstok():
    """Import crosstok from this checkout's ``src/``; exit 2 if it is missing."""
    if not (SRC / "crosstok" / "__init__.py").is_file():
        sys.stderr.write(f"error: crosstok sources not found under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import crosstok

    if Path(crosstok.__file__).resolve().parent != (SRC / "crosstok").resolve():
        sys.stderr.write(f"error: imported crosstok from {crosstok.__file__}, not {SRC}\n")
        raise SystemExit(2)
    return crosstok


WORKLOADS = ("step_warm_grad", "step_cold_fwd", "align_corpus", "build_w_audit")

# Shapes per tier. "full" is the low end of the shapes that matter for the
# library (|V| 32k-128k, 256 positions, 3 teachers); "smoke" runs every
# workload in seconds for the benchmark's own tests.
TIERS = {
    "full": {
        "vocab": (32000, 24000),
        "big_vocab": (128000, 100000),
        "positions": 256,
        "warm_pool": 2,
        "cold_sequences": 40,
        "pool_rows": 64,
        "short_lines": 108,
        "short_range": (16, 128),
        "long_lines": (192, 320, 672),
        "blocks": 6,
    },
    "smoke": {
        "vocab": (1800, 700),
        "big_vocab": (2400, 1000),
        "positions": 24,
        "warm_pool": 2,
        "cold_sequences": 4,
        "pool_rows": 8,
        "short_lines": 20,
        "short_range": (4, 16),
        "long_lines": (40,),
        "blocks": 2,
    },
}

# Teacher/student token-count ratio the text selection aims at, so sequence
# shapes (and therefore DP cost) vary little from seed to seed.
TARGET_RATIO = 1.15
CANDIDATES = 6
LOGIT_SCALE = 2.0

ONSETS = ("", "b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t",
          "v", "w", "z", "br", "ch", "cl", "dr", "fl", "gr", "pl", "pr", "sh", "st", "th", "tr")
NUCLEI = ("a", "e", "i", "o", "u", "ai", "ea", "ou", "io")
CODAS = ("", "n", "r", "s", "t", "l", "m", "nd", "st", "ng")
SYLLABLES = tuple(o + n + c for o in ONSETS for n in NUCLEI for c in CODAS)
NON_ASCII = ("é", "ü", "ñ", "ø", "ß", "ç", "—", "€", "中", "文")
TEACHER_NON_ASCII = NON_ASCII[:6]
PUNCT = (",", ".", ";", ":", "!", "?", "(", ")", "'", "-")

STUDENT_MARK, TEACHER_MARK, TEACHER_NEWLINE = "▁", "Ġ", "Ċ"


def _byte_fallback(text: str) -> str:
    return "".join(f"<0x{b:02X}>" for b in text.encode("utf-8"))


STUDENT_VIEW = str.maketrans(
    {" ": STUDENT_MARK, "\n": "<0x0A>", **{c: _byte_fallback(c) for c in NON_ASCII}})
TEACHER_VIEW = str.maketrans(
    {" ": TEACHER_MARK, "\n": TEACHER_NEWLINE,
     **{c: _byte_fallback(c) for c in NON_ASCII if c not in TEACHER_NON_ASCII}})


def make_lexicon(rng: np.random.Generator, size: int) -> list[str]:
    """Distinct synthetic words; list order is frequency rank."""
    syl_p = 1.0 / (np.arange(len(SYLLABLES)) + 5.0)
    syl_p /= syl_p.sum()
    syl_order = rng.permutation(len(SYLLABLES))
    words: dict[str, None] = {}
    while len(words) < size:
        batch = 2 * (size - len(words)) + 64
        lengths = rng.choice((1, 2, 3), size=batch, p=(0.25, 0.5, 0.25))
        picks = syl_order[rng.choice(len(SYLLABLES), size=(batch, 3), p=syl_p)]
        accents = rng.random(batch) < 0.01
        accent_ids = rng.integers(0, len(NON_ASCII), size=batch)
        for k in range(batch):
            word = "".join(SYLLABLES[s] for s in picks[k, : lengths[k]])
            if accents[k]:
                word += NON_ASCII[accent_ids[k]]
            words.setdefault(word, None)
    return list(words)[:size]


def zipf_p(size: int) -> np.ndarray:
    p = 1.0 / (np.arange(size) + 3.0) ** 1.1
    return p / p.sum()


def build_vocabulary(family: str, size: int, lexicon: list[str], rng: np.random.Generator):
    """A vocabulary of exactly ``size`` tokens in the family's marker style."""
    from crosstok import Vocabulary

    student = family == "student"
    if student:
        specials = ["<unk>", "<s>", "</s>", "<pad>"]
        roles = {"unk": 0, "bos": 1, "eos": 2, "pad": 3}
        mark = STUDENT_MARK
    else:
        specials = ["<|endoftext|>", "<|pad|>"]
        roles = {"bos": 0, "eos": 0, "pad": 1}
        mark = TEACHER_MARK
    tokens: dict[str, None] = dict.fromkeys(specials)

    def add(tok: str) -> None:
        if len(tokens) < size:
            tokens.setdefault(tok, None)

    for c in range(32, 127):
        add(chr(c))
    add(mark)
    for b in range(256):
        add(f"<0x{b:02X}>")
    if student:
        for i in range(100):
            add(f"{i:02d}")
        for i in range(1000):
            add(f"{i:03d}")
    else:
        add(TEACHER_NEWLINE)
        for c in TEACHER_NON_ASCII:
            add(c)
        for p in PUNCT:
            add(mark + p)
    for s in rng.permutation(len(SYLLABLES))[: int(0.7 * len(SYLLABLES))]:
        add(SYLLABLES[s])
        if rng.random() < 0.5:
            add(mark + SYLLABLES[s])
    # each family ranks the lexicon with its own noise, so the two vocabularies
    # share most frequent words but disagree on the tail
    key = np.log(np.arange(len(lexicon)) + 1.0) + rng.normal(0.0, 0.7, len(lexicon))
    for r in np.argsort(key, kind="stable"):
        if len(tokens) >= size:
            break
        add(mark + lexicon[r])
        if r < len(lexicon) // 8:
            add(lexicon[r])
    if len(tokens) != size:
        raise ValueError(f"lexicon too small for a {size}-token {family} vocabulary")
    return Vocabulary(list(tokens), specials=range(len(specials)), special_roles=roles)


class TextMaker:
    """Texts with an exact student token count, chosen for a stable teacher count.

    Greedy longest match never crosses a segment boundary here (no token holds
    a marker past its first character, or punctuation after a word), so token
    counts add up segment by segment and are cached per segment.
    """

    def __init__(self, rng, lexicon, tok_s, tok_t):
        self.rng = rng
        self.lexicon = lexicon
        self.p = zipf_p(len(lexicon))
        self.tok_s, self.tok_t = tok_s, tok_t
        self._counts: dict[str, tuple[int, int]] = {}

    def _count(self, seg: str) -> tuple[int, int]:
        hit = self._counts.get(seg)
        if hit is None:
            hit = (len(self.tok_s.encode(seg.translate(STUDENT_VIEW))),
                   len(self.tok_t.encode(seg.translate(TEACHER_VIEW))))
            self._counts[seg] = hit
        return hit

    def _segments(self, newlines: bool):
        rng = self.rng
        while True:
            words = rng.choice(len(self.lexicon), size=64, p=self.p)
            kinds = rng.random(64)
            for w, u in zip(words, kinds):
                if u < 0.06:
                    yield " " + str(int(rng.integers(0, 10 ** int(rng.integers(1, 5)))))
                else:
                    yield " " + self.lexicon[w]
                if u > 0.9:
                    yield PUNCT[int(rng.integers(0, len(PUNCT)))]
                if newlines and u > 0.985:
                    yield "\n"

    def _one(self, n: int, newlines: bool) -> tuple[str, int]:
        parts, ns, nt = [], 0, 0
        for seg in self._segments(newlines):
            cs, ct = self._count(seg)
            if ns + cs > n:
                break
            parts.append(seg)
            ns, nt = ns + cs, nt + ct
        parts.append("." * (n - ns))  # "." is one token on both sides
        return "".join(parts), nt + n - ns

    def text(self, n: int, newlines: bool = False) -> str:
        """Raw text of exactly ``n`` student tokens, teacher count nearest n*ratio."""
        cands = [self._one(n, newlines) for _ in range(CANDIDATES)]
        text, _ = min(cands, key=lambda c: abs(c[1] - TARGET_RATIO * n))
        return text

    def encode(self, text: str) -> tuple[list[int], list[int]]:
        return (self.tok_s.encode(text.translate(STUDENT_VIEW)),
                self.tok_t.encode(text.translate(TEACHER_VIEW)))


def _vocab_pair(rng, sizes):
    from crosstok import Tokenizer

    n_s, n_t = sizes
    lexicon = make_lexicon(rng, max(n_s, n_t))
    vs = build_vocabulary("student", n_s, lexicon, rng)
    vt = build_vocabulary("teacher", n_t, lexicon, rng)
    return lexicon, vs, vt, Tokenizer(vs), Tokenizer(vt)


def _logits(rng, rows: int, width: int) -> np.ndarray:
    return rng.standard_normal((rows, width), dtype=np.float32) * np.float32(LOGIT_SCALE)


def _save_dump(ct, path: Path, side: str, logits, realized, vocab, seq_id: str) -> None:
    pl = ct.PositionLogits(seq_id=seq_id, side=side, logits=logits,
                           realized_ids=np.asarray(realized, dtype=np.intp),
                           vocab_hash=ct.vocabulary_hash(vocab))
    ct.save_position_logits(pl, path)


def _step_sequences(maker: TextMaker, vs, vt, count: int, positions: int):
    bos_s, bos_t = vs.special_roles["bos"], vt.special_roles["bos"]
    seqs = []
    for _ in range(count):
        text = maker.text(positions - 1, newlines=True)
        s_ids, t_ids = maker.encode(text)
        if len(s_ids) != positions - 1:
            raise AssertionError("segment token counts do not add up")
        seqs.append(([bos_s] + s_ids, [bos_t] + t_ids))
    return seqs


WARM_TEACHERS = (("pkl", "pkl"), ("hkl", "hkl"), ("gold", "gold"))
COLD_TEACHERS = (("pkl", "pkl"), ("kl", "kl"), ("uld", "uld"))


def generate(workload: str, seed: int, tier: str, out: Path) -> dict:
    ct = bootstrap_crosstok()
    shape = TIERS[tier]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    out.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"workload": workload, "seed": seed, "tier": tier}

    if workload == "build_w_audit":
        _, vs, vt, _, _ = _vocab_pair(rng, shape["big_vocab"])
        ct.save_vocabulary(vs, out / "student.json")
        ct.save_vocabulary(vt, out / "teacher.json")
        manifest.update(student_vocab="student.json", teacher_vocab="teacher.json")
    else:
        lexicon, vs, vt, tok_s, tok_t = _vocab_pair(rng, shape["vocab"])
        ct.save_vocabulary(vs, out / "student.json")
        ct.save_vocabulary(vt, out / "teacher.json")
        manifest.update(student_vocab="student.json", teacher_vocab="teacher.json")
        maker = TextMaker(rng, lexicon, tok_s, tok_t)

    if workload in ("step_warm_grad", "step_cold_fwd"):
        ct.save_projection(ct.build_projection(vs, vt, tok_t), out / "w.jsonl")
        manifest["projection"] = "w.jsonl"
        n = shape["positions"]

    if workload == "step_warm_grad":
        manifest["teachers"] = [{"name": name, "mode": mode} for name, mode in WARM_TEACHERS]
        manifest["sequences"] = []
        for i, (s_ids, t_ids) in enumerate(_step_sequences(maker, vs, vt, shape["warm_pool"], n)):
            entry = {"student": f"s{i}.student.bin", "teachers": []}
            _save_dump(ct, out / entry["student"], "student", _logits(rng, len(s_ids), len(vs)),
                       s_ids, vs, f"s{i}")
            for name, _ in WARM_TEACHERS:
                path = f"s{i}.{name}.bin"
                _save_dump(ct, out / path, "teacher", _logits(rng, len(t_ids), len(vt)),
                           t_ids, vt, f"s{i}.{name}")
                entry["teachers"].append(path)
            manifest["sequences"].append(entry)

    elif workload == "step_cold_fwd":
        # one seeded pool of logit rows per dump; each step's logits are rows
        # drawn from it, so the files stay small while every step is a new text
        rows = shape["pool_rows"]
        pools = {"student": ("student", vs)}
        pools.update({name: ("teacher", vs if mode == "kl" else vt)
                      for name, mode in COLD_TEACHERS})
        for name, (side, vocab) in pools.items():
            _save_dump(ct, out / f"pool.{name}.bin", side, _logits(rng, rows, len(vocab)),
                       np.zeros(rows, dtype=np.intp), vocab, f"pool.{name}")
        manifest["teachers"] = [{"name": name, "mode": mode} for name, mode in COLD_TEACHERS]
        manifest["pools"] = {name: f"pool.{name}.bin" for name in pools}
        seqs = []
        for s_ids, t_ids in _step_sequences(maker, vs, vt, shape["cold_sequences"], n):
            realized = {"student": s_ids, "kl": s_ids, "pkl": t_ids, "uld": t_ids}
            draws = {k: rng.integers(0, rows, size=len(v)).tolist() for k, v in realized.items()}
            seqs.append({"realized": realized, "rows": draws})
        with open(out / "sequences.json", "w", encoding="utf-8") as fh:
            json.dump(seqs, fh, separators=(",", ":"))
        manifest["sequences"] = "sequences.json"

    elif workload == "align_corpus":
        # every block holds the same length mix: a log-uniform grid of short
        # lines plus a few long ones, in seeded order
        lo, hi = shape["short_range"]
        k = shape["short_lines"]
        short = [int(round(lo * (hi / lo) ** ((i + 0.5) / k))) for i in range(k)]
        lengths = short + list(shape["long_lines"])
        raw, s_view, t_view = [], [], []
        for _ in range(shape["blocks"]):
            for n_line in rng.permutation(lengths):
                text = maker.text(int(n_line)).lstrip(" ")
                raw.append(text)
                s_view.append(text.translate(STUDENT_VIEW))
                t_view.append(text.translate(TEACHER_VIEW))
        for name, lines in (("corpus.txt", raw), ("corpus.student.txt", s_view),
                            ("corpus.teacher.txt", t_view)):
            (out / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        manifest.update(corpus="corpus.txt", student_view="corpus.student.txt",
                        teacher_view="corpus.teacher.txt", block_lines=len(lengths))

    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    # write the inputs back now, so page-cache writeback does not compete
    # with the measured process
    for path in out.iterdir():
        with open(path, "rb") as fh:
            os.fsync(fh.fileno())
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tier", choices=tuple(TIERS), default="full")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.tier, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
