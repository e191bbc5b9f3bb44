from collections import Counter

import tpqsim


def test_every_export_resolves_once():
    # an export left behind by a deleted name fails `from tpqsim import *`
    repeated = [name for name, k in Counter(tpqsim.__all__).items() if k > 1]
    assert repeated == []
    assert [name for name in tpqsim.__all__ if not hasattr(tpqsim, name)] == []
    namespace = {}
    exec("from tpqsim import *", namespace)
    assert set(tpqsim.__all__) <= set(namespace)
