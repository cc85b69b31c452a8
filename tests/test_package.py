"""The package's public surface."""

import flowsra


def test_every_exported_name_resolves_and_the_list_is_sorted_and_unique():
    assert [name for name in flowsra.__all__ if not hasattr(flowsra, name)] == []
    assert flowsra.__all__ == sorted(set(flowsra.__all__))
