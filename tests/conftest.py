from hypothesis import HealthCheck, settings

# Deterministic, CI-friendly property testing: no wall-clock deadlines and a
# fixed derivation so identical runs explore identical examples.
settings.register_profile(
    "default",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
# The default profile never meets a new example, so CI also runs the suite
# with `--hypothesis-profile=explore`: random examples, five times as many,
# different on every run.  A failure prints a `@reproduce_failure` line that
# replays it.
settings.register_profile(
    "explore",
    settings.get_profile("default"),
    derandomize=False,
    max_examples=500,
    print_blob=True,
)
settings.load_profile("default")
