import hypothesis.strategies as st
from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=60)
# deeper fuzz: pytest tests/test_kernels.py tests/test_properties.py tests/test_synth.py
#              tests/test_ingest.py tests/test_baselines.py tests/test_seqcore.py
#              --hypothesis-profile=deep
settings.register_profile("deep", deadline=None, max_examples=500)


def pytest_configure(config):
    # a profile chosen with --hypothesis-profile wins over the suite's default
    if not config.getoption("--hypothesis-profile", None):
        settings.load_profile("suite")


def symbol_tuples(min_size=2, max_size=40, alphabet=2):
    return st.lists(
        st.integers(min_value=0, max_value=alphabet - 1),
        min_size=min_size,
        max_size=max_size,
    ).map(tuple)
