"""The invariant checks of `looise selftest`, one Tier-1 test per check.

The test id is the check's name, so a broken invariant fails under its own
name. The checks live only in `looise.selftest.CHECKS`.
"""

import pytest

from looise.selftest import CHECKS


@pytest.mark.parametrize("check", [fn for _, fn in CHECKS], ids=[name for name, _ in CHECKS])
def test_invariant(check):
    check()
