"""Registry integrity: entries, claims, stored examples, negative controls."""
import pytest

from hermlie.catalog import (
    CATALOG_VERSION,
    CONDITIONS,
    get_entry,
    list_entries,
    negative_controls,
    verify_entry,
    verify_example,
)

EXPECTED_COUNTS = {
    "kahler": 2,
    "skt": 15,
    "balanced": 13,
    "lck": 8,
    "lcskt": 8,
    "lcb": 31,
    "first_gauduchon": 21,
}


class TestRegistryShape:
    def test_entry_counts(self):
        assert len(list_entries()) == 34
        assert len(negative_controls()) == 4
        assert len(list_entries(include_controls=True)) == 38

    def test_names_unique(self):
        names = [e.name for e in list_entries(include_controls=True)]
        assert len(names) == len(set(names))

    def test_condition_counts(self):
        # entries admitting each condition for some allowed parameter value
        counts = {c: sum(e.claims.get(c, "never") != "never" for e in list_entries())
                  for c in CONDITIONS}
        assert counts == EXPECTED_COUNTS

    def test_catalog_version_is_set(self):
        assert isinstance(CATALOG_VERSION, str) and CATALOG_VERSION

    def test_get_entry(self):
        assert get_entry("s6.25").name == "s6.25"
        with pytest.raises(KeyError):
            get_entry("does-not-exist")

    def test_controls_admit_no_complex_structure(self):
        for e in negative_controls():
            assert not e.admits_complex
            assert not e.examples


class TestClaimsConsistency:
    def test_example_conditions_back_claims(self):
        # every condition asserted by a stored example must be claimed
        # attainable by its entry
        for e in list_entries():
            for ex in e.examples:
                for cond in ex.conditions:
                    assert e.claims.get(cond, "never") != "never", \
                        f"{e.name} example asserts {cond} against the claims"

    def test_every_positive_claim_has_an_example(self):
        for e in list_entries():
            for cond in CONDITIONS:
                if e.claims.get(cond, "never") != "never":
                    assert any(cond in ex.conditions for ex in e.examples), \
                        f"{e.name} claims {cond} but stores no witness"

    def test_kahler_claims(self):
        names = {e.name for e in list_entries()
                 if e.claims.get("kahler", "never") != "never"}
        assert names == {"s3.3^0+R3", "s5.13^p,-p,r+R"}


class TestVerification:
    @pytest.mark.parametrize("name", ["s6.25", "s6.145^0", "s6.147^0",
                                      "h3+s3.3^0", "s6.140^-1"])
    def test_verify_entry(self, name):
        report = verify_entry(get_entry(name))
        assert report["ok"], report

    @pytest.mark.parametrize("name", ["s3.3^0+R3", "s6.154^0", "s5.4^0+R"])
    def test_verify_examples(self, name):
        for ex in get_entry(name).examples:
            report = verify_example(ex)
            assert report["ok"], report

    def test_verify_example_detects_bad_omega(self):
        import dataclasses

        ex = get_entry("s6.25").examples[0]
        bad = dataclasses.replace(ex, omega="f15+f23-f46")
        report = verify_example(bad)
        assert not report["ok"]

    def test_verify_example_detects_bad_j(self):
        import dataclasses

        ex = get_entry("s6.154^0").examples[0]
        bad = dataclasses.replace(ex, j_images={1: "f2", 3: "f4", 5: "2f6"},
                                  j_matrix=None)
        report = verify_example(bad)
        assert not report["ok"]
        assert report["error"] == "J not integrable"
