"""Tests of the ``repro.*`` logger convention and configuration helper."""

from __future__ import annotations

import io
import logging

from repro.obs.logging import configure_logging, get_logger


def _fresh_root():
    logger = logging.getLogger("repro")
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    return logger


def test_get_logger_prefixes_repro_namespace():
    assert get_logger("persistence.wal").name == "repro.persistence.wal"
    assert get_logger("repro.engine").name == "repro.engine"
    assert get_logger().name == "repro"


def test_configure_logging_is_idempotent():
    root = _fresh_root()
    try:
        first = configure_logging(stream=io.StringIO())
        second = configure_logging(stream=io.StringIO())
        assert first is second
        handlers = [
            handler for handler in root.handlers
            if getattr(handler, "_repro_obs_handler", False)
        ]
        assert len(handlers) == 1
    finally:
        _fresh_root()


def test_configured_logger_emits_to_stream():
    _fresh_root()
    try:
        stream = io.StringIO()
        configure_logging(level="DEBUG", stream=stream)
        get_logger("trajectories.shared").debug("exported %d segment(s)", 2)
        output = stream.getvalue()
        assert "repro.trajectories.shared" in output
        assert "exported 2 segment(s)" in output
        assert "DEBUG" in output
    finally:
        _fresh_root()


def test_level_filters_below_threshold():
    _fresh_root()
    try:
        stream = io.StringIO()
        configure_logging(level="WARNING", stream=stream)
        get_logger("engine").info("quiet")
        get_logger("engine").warning("loud")
        output = stream.getvalue()
        assert "quiet" not in output
        assert "loud" in output
    finally:
        _fresh_root()
