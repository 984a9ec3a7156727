"""Legacy setup shim: enables `pip install -e .` on environments whose
setuptools predates PEP-660 editable wheels (no `wheel` package needed).
It declares no metadata of its own: setuptools' automatic discovery
finds the packages under `src/`."""

from setuptools import setup

setup()
