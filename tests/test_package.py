import capsched


def test_every_exported_name_resolves_and_the_list_is_sorted():
    assert capsched.__all__ == sorted(set(capsched.__all__))
    assert [name for name in capsched.__all__ if not hasattr(capsched, name)] == []
