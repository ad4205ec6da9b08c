from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Fixed example sequence and no example database: the property tests
# draw the same cases on every run.
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")


def pytest_configure(config):
    # Hypothesis still caches the constants it reads from the source in
    # its home directory; keep that cache in pytest's own cache directory.
    if getattr(config, "cache", None) is not None:
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))
