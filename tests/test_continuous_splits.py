"""The differential fuzz of the first contract (ROADMAP item 23), with its
splits pinned.

On a continuous function, the definition and the characterization of each
property must agree, so every split ``continuous_corpus.splits`` finds is
a checker defect.  The splits of its three runs (seeds 1 and 2 at 257
points, seed 1 at 4097, 1000 functions each) are pinned in
``continuous_splits.json``, in the order the runs find them.  A change
that adds a split fails here.  So does one that mends a split, until it
drops the split from the list: the list only shrinks, and CHANGES.md names
what each change took out of it.  The three runs take about 8 s on a
2-core x86-64 VM.

Like the benchmark's recorded digests, the list holds for the numpy build
and SIMD dispatch they were recorded with, numpy 2.4.6 with AVX-512 loops
on x86-64 (ROADMAP item 12): under another dispatch some values round
otherwise, and a split on a tie can come or go.
"""

import json
from dataclasses import replace
from pathlib import Path

from dinicvx import charact

from continuous_corpus import COUNT, pinned_runs, random_continuous, splits

PINNED = [tuple(split) for split in
          json.loads(Path(__file__).with_name("continuous_splits.json").read_text())]


def test_the_methods_split_on_exactly_the_pinned_functions():
    assert pinned_runs() == PINNED


def test_a_verdict_flipped_on_one_function_fails_the_comparison(monkeypatch):
    # the characterization of pseudoconvexity turned round on the first
    # function it decides, among the first 40 of seed 1 at 257 points
    cases = random_continuous(COUNT, 1)[:40]
    pinned = [s for s in PINNED if s[2] == 257 and s[:2] in cases]
    assert splits(cases, 257) == pinned
    real, flipped = charact.pseudoconvex_char, []

    def spy(p):
        verdicts = real(p)
        if not flipped and verdicts[0].outcome != "inconclusive":
            flipped.append(verdicts[0].outcome)
            verdicts = (replace(verdicts[0], outcome={"holds": "fails", "fails": "holds"}[
                verdicts[0].outcome]),)
        return verdicts

    monkeypatch.setattr(charact, "pseudoconvex_char", spy)
    assert splits(cases, 257) != pinned and len(flipped) == 1
