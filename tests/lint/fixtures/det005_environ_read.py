"""Fixture: DET005 fires on environment reads outside repro.rt."""

import os


def read_subscript() -> str:
    return os.environ["REPRO_SEED"]  # lint-expect[DET005]


def read_get() -> str | None:
    return os.environ.get("REPRO_SEED")  # lint-expect[DET005]


def read_getenv() -> str | None:
    return os.getenv("REPRO_SEED")  # lint-expect[DET005]


def explicit_config_is_clean(seed: int) -> int:
    return seed


def suppressed() -> str | None:
    return os.getenv("REPRO_SEED")  # repro-lint: ignore[DET005]


def suppressed_wrong_rule() -> str | None:
    return os.getenv("REPRO_SEED")  # repro-lint: ignore[DET001]  # lint-expect[DET005]
