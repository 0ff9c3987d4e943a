"""Setuptools entry point.

Kept alongside ``pyproject.toml`` so that ``pip install -e .`` works in
offline environments without the ``wheel`` package (legacy editable
installs do not build a wheel).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description=(
        "Reproduction of SNAP: Small-world Network Analysis and "
        "Partitioning (Bader & Madduri, IPDPS 2008)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
    entry_points={
        "console_scripts": ["snap-repro=repro.cli:main"],
    },
)
