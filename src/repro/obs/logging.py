"""The ``repro.*`` logger convention and a one-call configuration helper.

Every module logs under a ``repro.``-prefixed logger
(:func:`get_logger` enforces the prefix), so one
``logging.getLogger("repro")`` level or handler controls the whole
stack.  The library itself never configures handlers — importing repro
stays silent — but scripts and services call :func:`configure_logging`
once to get timestamped stderr output at a chosen level.
"""

from __future__ import annotations

import logging as _logging
from typing import Optional, Union

__all__ = ["configure_logging", "get_logger"]

#: The root of the library's logger namespace.
ROOT_LOGGER_NAME = "repro"

#: Marker attribute identifying the handler configure_logging installs.
_HANDLER_TAG = "_repro_obs_handler"

_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"


def get_logger(name: str = ROOT_LOGGER_NAME) -> _logging.Logger:
    """A logger inside the ``repro.`` namespace.

    ``get_logger("persistence.wal")`` and
    ``get_logger("repro.persistence.wal")`` return the same logger.
    """
    if name != ROOT_LOGGER_NAME and not name.startswith(ROOT_LOGGER_NAME + "."):
        name = f"{ROOT_LOGGER_NAME}.{name}"
    return _logging.getLogger(name)


def configure_logging(
    level: Union[int, str] = "INFO",
    stream=None,
) -> _logging.Logger:
    """Install one stderr handler on the ``repro`` root logger.

    Idempotent: repeated calls adjust the level of the handler installed
    earlier instead of stacking duplicates.  Returns the root logger.

    Args:
        level: a :mod:`logging` level name or number.
        stream: destination stream (default ``sys.stderr``).
    """
    if isinstance(level, str):
        level = _logging.getLevelName(level.upper())
        if not isinstance(level, int):
            raise ValueError(f"unknown logging level {level!r}")
    root = _logging.getLogger(ROOT_LOGGER_NAME)
    handler: Optional[_logging.Handler] = None
    for existing in root.handlers:
        if getattr(existing, _HANDLER_TAG, False):
            handler = existing
            break
    if handler is None:
        handler = _logging.StreamHandler(stream)
        handler.setFormatter(_logging.Formatter(_FORMAT))
        setattr(handler, _HANDLER_TAG, True)
        root.addHandler(handler)
    elif stream is not None:
        handler.setStream(stream)
    handler.setLevel(level)
    root.setLevel(level)
    root.propagate = False
    return root
