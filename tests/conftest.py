"""Repo-wide pytest configuration."""


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the golden result fixtures under "
             "tests/integration/golden/ instead of comparing against them",
    )


def pytest_collection_modifyitems(config, items):
    # The golden manifest digests fixtures that other tests rewrite under
    # --update-golden, so it has to run after all of them.
    if config.getoption("--update-golden"):
        items.sort(key=lambda item: item.name == "test_golden_manifest")
