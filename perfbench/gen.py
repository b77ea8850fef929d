"""Seeded synthetic inputs: a labeled CSV of Reddit-length posts and a
feed of tweet-length posts, plus the measured shares of every input
property the filters, the preprocessor and the vectorizer react to.
The shares are set to exercise those paths, not to model real traffic.

The same seed gives byte-identical files. Nothing is downloaded.
"""

from __future__ import annotations

import csv
import hashlib
import random
import re
from collections import OrderedDict

# The keep phrases from the README's `serve` example.
KEYWORDS = ("feel", "want to die", "kill myself")
DEDUPE_WINDOW = 1024  # StreamConfig.dedupe_window default

# Word pools. None of them contains a keyword as a substring, so the
# keyword-hit share is set by KEYWORD_SHARE alone.
_NEUTRAL = """
    i the a to and my it is was this that just so really today tonight
    people time life day night always never again still know think thing
    go get got going say said see look week year home work school morning
    everyone anyone someone nothing everything about with from what when
    how why where who could would should maybe even much more very too
""".split()
_POS = """
    hopeless worthless alone empty pain tired burden numb suffering dark
    cry crying hurt hurting lost broken scared anxious depressed sad
    goodbye darkness hate myself useless tears lonely exhausted trapped
    failure hopelessness meds therapy overdose pills bridge rope nobody
    cares ending disappear gone sorry forgive regret ashamed
""".split()
_NEG = """
    game movie pizza weekend friends music football coffee trip funny
    homework party cat dog weather beach concert birthday dinner lunch
    vacation netflix episode season team match goal shopping recipe
    garden camping hiking puppy kitten sunny laugh awesome excited lol
    playlist album guitar drawing painting coding project exam holiday
""".split()


def _synthetic_words(tag: str, n: int) -> list[str]:
    """A fixed (seed-independent) tail of pseudo-words, so the vocabulary
    has a realistic long tail instead of a few hundred repeated terms."""
    rng = random.Random(f"words/{tag}")
    syllables = ("ka", "lo", "mi", "ru", "ta", "ven", "dor", "shi", "pa", "zu",
                 "ni", "bo", "gar", "tel", "quo", "ri", "sa", "mun", "ho", "ji")
    words: list[str] = []
    while len(words) < n:
        word = "".join(rng.choice(syllables) for _ in range(rng.randint(2, 4)))
        if word not in words:
            words.append(word)
    return words


def _zipf(words: list[str]) -> tuple[list[str], list[float]]:
    """Words with cumulative Zipf(1) weights for ``random.choices``."""
    total, cum = 0.0, []
    for rank in range(1, len(words) + 1):
        total += 1.0 / rank
        cum.append(total)
    return words, cum


_NEUTRAL_Z = _zipf(_NEUTRAL + _synthetic_words("neutral", 3000))
_POS_Z = _zipf(_POS + _synthetic_words("pos", 400))
_NEG_Z = _zipf(_NEG + _synthetic_words("neg", 400))
_POS_KEYWORDS = ("want to die", "kill myself", "feel")
_NEG_KEYWORDS = ("feel",)
_CONTRACTIONS = ("i'm", "don't", "can't", "it's", "i've", "won't", "didn't",
                 "that's", "isn't", "i'll")
_NON_ASCII = ("café", "naïve", "über", "señor", "jalapeño", "😢", "💔", "🙂",
              "résumé", "déjà")
_MENTIONS = ("@sam", "@jordan_k", "@alex99", "@riley", "@casey_m")
_HASHTAGS = ("#mentalhealth", "#weekend", "#mood", "#help", "#gameday",
             "#monday", "#tired", "#blessed")

# Feed-shape targets. None is taken from a real stream: each is chosen so
# that a 10k-post `drain` backlog sends a few hundred posts or more down
# every filter and preprocessing path (keyword, retweet, dedupe,
# non-ASCII, URL, mention, hashtag, contraction). `input_shares` measures
# the generator's output, not how close it comes to real traffic.
KEYWORD_SHARE = 0.55
RETWEET_SHARE = 0.05
DUPLICATE_SHARE = 0.04
NON_ASCII_SHARE = 0.08
URL_SHARE = 0.12
MENTION_SHARE = 0.20
HASHTAG_SHARE = 0.15
CONTRACTION_SHARE = 0.35
POSITIVE_SHARE = 0.5
NEUTRAL_WORD_SHARE = 0.55
CROSS_WORD_SHARE = 0.10  # words drawn from the other label's pool

TWEET_WORDS = (10, 40)
REDDIT_WORDS = (20, 120)


def _post(rng: random.Random, label: int, words: tuple[int, int]) -> str:
    n = rng.randint(*words)
    own, other = (_POS_Z, _NEG_Z) if label else (_NEG_Z, _POS_Z)
    out = []
    for _ in range(n):
        r = rng.random()
        pool = _NEUTRAL_Z if r < NEUTRAL_WORD_SHARE else (
            other if r > 1.0 - CROSS_WORD_SHARE else own)
        out.append(rng.choices(pool[0], cum_weights=pool[1])[0])

    def insert(token: str) -> None:
        out.insert(rng.randrange(len(out) + 1), token)

    if rng.random() < KEYWORD_SHARE:
        insert(rng.choice(_POS_KEYWORDS if label else _NEG_KEYWORDS))
    if rng.random() < CONTRACTION_SHARE:
        insert(rng.choice(_CONTRACTIONS))
    if rng.random() < NON_ASCII_SHARE:
        insert(rng.choice(_NON_ASCII))
    if rng.random() < MENTION_SHARE:
        insert(rng.choice(_MENTIONS))
    if rng.random() < HASHTAG_SHARE:
        insert(rng.choice(_HASHTAGS))
    if rng.random() < URL_SHARE:
        insert(f"https://t.co/{rng.getrandbits(40):010x}")
    text = " ".join(out)
    return text[0].upper() + text[1:]


def labeled_posts(seed: int, n: int, words: tuple[int, int] = REDDIT_WORDS
                  ) -> list[tuple[str, int]]:
    """``n`` distinct (text, label) pairs; label 1 is suicide."""
    rng = random.Random(f"labeled/{seed}")
    seen: set[str] = set()
    out = []
    while len(out) < n:
        label = 1 if rng.random() < POSITIVE_SHARE else 0
        text = _post(rng, label, words)
        if text not in seen:
            seen.add(text)
            out.append((text, label))
    return out


def feed_posts(seed: int, n: int, words: tuple[int, int] = TWEET_WORDS
               ) -> list[tuple[str, int]]:
    """``n`` (text, label) pairs in send order, with retweets and exact
    repeats of a recent post mixed in. A repeat keeps its original label."""
    rng = random.Random(f"feed/{seed}")
    out: list[tuple[str, int]] = []
    for _ in range(n):
        if out and rng.random() < DUPLICATE_SHARE:
            out.append(out[-rng.randint(1, min(len(out), DEDUPE_WINDOW // 2))])
            continue
        label = 1 if rng.random() < POSITIVE_SHARE else 0
        text = _post(rng, label, words)
        if rng.random() < RETWEET_SHARE:
            text = f"RT {rng.choice(_MENTIONS)}: {text}"
        out.append((text, label))
    return out


def write_csv(path, posts: list[tuple[str, int]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["text", "class"])
        for text, label in posts:
            writer.writerow([text, "suicide" if label else "non-suicide"])


_URL_RE = re.compile(r"https?://|www\.")
_MENTION_RE = re.compile(r"@\w")
_HASHTAG_RE = re.compile(r"#\w")
_CONTRACTION_RE = re.compile(r"\b\w+'\w+\b")


def input_shares(posts: list[tuple[str, int]]) -> dict:
    """Measured share of posts with each property the program reacts to."""
    n = len(posts)
    window: OrderedDict[str, None] = OrderedDict()
    counts = dict.fromkeys(("positive", "keyword", "retweet", "duplicate",
                            "non_ascii", "url", "mention", "hashtag",
                            "contraction"), 0)
    lengths = []
    for text, label in posts:
        lengths.append(len(text.split()))
        lowered = text.lower()
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest in window:
            counts["duplicate"] += 1
            window.move_to_end(digest)
        else:
            window[digest] = None
            if len(window) > DEDUPE_WINDOW:
                window.popitem(last=False)
        counts["positive"] += label
        counts["keyword"] += any(k in lowered for k in KEYWORDS)
        counts["retweet"] += text.startswith("RT ")
        counts["non_ascii"] += not text.isascii()
        counts["url"] += bool(_URL_RE.search(text))
        counts["mention"] += bool(_MENTION_RE.search(text))
        counts["hashtag"] += bool(_HASHTAG_RE.search(text))
        counts["contraction"] += bool(_CONTRACTION_RE.search(lowered))
    shares = {k: round(v / n, 4) for k, v in counts.items()}
    return {"posts": n, "words_min": min(lengths), "words_max": max(lengths),
            **shares}
