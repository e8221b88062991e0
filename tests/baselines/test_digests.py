"""The golden-digest corpus is committed, complete, and reproducible.

``tests/baselines/digests.json`` pins a dozen (seed, scenario)
trajectories (:mod:`repro.sim.golden`).  Recomputing every entry from
scratch and comparing bit-for-bit is the repository's broadest
regression net: any change to any simulated number anywhere in the
stack — fading, alignment, MAC, traffic, faults, multi-cell merging —
lands here.  Intentional changes regenerate the file with
``python -m repro digest --update``; this test makes sure nothing
changes it silently.
"""

from repro.sim import golden


class TestGoldenCorpus:
    def test_committed_file_exists(self):
        assert golden.DEFAULT_BASELINE.is_file(), (
            "tests/baselines/digests.json is missing; generate it with "
            "`python -m repro digest --update`"
        )

    def test_key_set_matches_case_registry(self):
        """Every registered case is committed; no stale entries linger."""
        baseline = golden.load_baseline()
        assert sorted(baseline) == golden.golden_case_names()

    def test_corpus_is_reproducible_bit_for_bit(self):
        """Recompute the full corpus from scratch: zero drift allowed."""
        problems = golden.compare(golden.compute_digests(), golden.load_baseline())
        assert problems == []

    def test_engine_pair_entries_are_identical(self):
        """Each single-cell case's fast run and its reference run both
        equal the committed digest — the fast path and its oracle are
        pinned by the same artifact."""
        baseline = golden.load_baseline()
        for name in sorted(golden.GOLDEN_WLAN):
            assert golden.compute_digest(name) == baseline[name], name
            assert (
                golden.compute_digest(name, reference=True) == baseline[name]
            ), name

    def test_compare_reports_drift_and_staleness(self):
        computed = {"a": "1", "b": "2"}
        baseline = {"a": "x" * 64, "c": "3"}
        problems = golden.compare(computed, baseline)
        assert any("a: digest changed" in p for p in problems)
        assert any("b: not in baseline" in p for p in problems)
        assert any("c: stale baseline entry" in p for p in problems)
