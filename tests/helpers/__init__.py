"""Helpers shared by the test modules."""
