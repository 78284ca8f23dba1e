"""Self-check battery: every named check runs, and corruption is caught."""

import pytest

from ergokit import CHECK_NAMES, run_verification


def test_all_checks_pass_on_small_corpus():
    results = run_verification(count=1, dims=(2, 3), samples=2000)
    assert [r.name for r in results] == list(CHECK_NAMES)
    for r in results:
        assert r.failed == 0, (r.name, r.messages)
        assert r.passed > 0, r.name


def test_unknown_corruption_target_rejected():
    with pytest.raises(ValueError, match="unknown check"):
        run_verification(count=1, dims=(2,), corrupt="no-such-check")


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_corruption_fails_exactly_the_named_check(name):
    results = run_verification(count=1, dims=(2, 3), samples=2000, corrupt=name)
    broken = [r.name for r in results if r.failed]
    assert broken == [name]
    bad = next(r for r in results if r.name == name)
    assert bad.messages
