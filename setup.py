"""Package metadata: ``pip install -e .`` installs ``repro`` from ``src/``.

The version is read from ``src/repro/__init__.py`` (not imported, so
building needs nothing but setuptools).
"""
import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
