"""Package metadata for the HKPR local-clustering reproduction.

Kept in ``setup.py`` (not ``pyproject.toml``) so ``pip install -e .`` works
in offline environments without the ``wheel``/``build`` packages — pip then
falls back to ``setup.py develop``.

Extras:

* ``test`` — everything the test/benchmark suite needs on top of the
  runtime dependencies.
"""

from setuptools import find_packages, setup

setup(
    name="repro-hkpr",
    version="0.4.0",
    description=(
        "Reproduction of 'Efficient Estimation of Heat Kernel PageRank for "
        "Local Clustering' (Yang et al., SIGMOD 2019) with a vectorized "
        "walk engine and an online query-serving layer"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=[
        "numpy>=1.24",
        "scipy>=1.10",
        "networkx>=3.0",
    ],
    extras_require={
        "test": [
            "pytest>=7.0",
            "pytest-benchmark",
            "pytest-cov",
            "hypothesis",
        ],
    },
    entry_points={
        "console_scripts": [
            "repro-cli = repro.cli:main",
        ],
    },
)
