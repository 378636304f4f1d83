"""Suite-wide pytest configuration: the ``--wide`` option.

By default the slow sweeps run at tier-1 size.  ``--wide`` (CI's
everything-on leg and its chaos-conformance job) widens three of them,
and changes no behaviour of ``src/``:

* ``test_chaos_scenarios.py`` runs every canned fault plan, not three;
* ``test_properties.py`` draws 40 random fault plans per chaos property
  instead of 12 (the ``chaos-plans`` Hypothesis profile);
* ``test_streaming_equivalence.py`` adds seeds 1 and 2 to seed 0.

Cases that run only under ``--wide`` carry the ``wide`` mark and are
deselected without it, so the default run collects the same ids.
"""

from hypothesis import settings


def pytest_addoption(parser):
    parser.addoption(
        "--wide",
        action="store_true",
        default=False,
        help="widen the chaos, chaos-property and streaming-equivalence "
        "sweeps (tests/conftest.py)",
    )


def pytest_configure(config):
    config.addinivalue_line("markers", "wide: runs only under --wide")
    # Registered before collection imports the test modules, whose
    # decorators load it by name.
    settings.register_profile(
        "chaos-plans",
        max_examples=40 if config.getoption("--wide") else 12,
        deadline=None,
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--wide"):
        return
    wide = [item for item in items if item.get_closest_marker("wide")]
    if wide:
        config.hook.pytest_deselected(items=wide)
        items[:] = [item for item in items if not item.get_closest_marker("wide")]
