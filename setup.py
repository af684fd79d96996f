"""Package metadata and the ``repro`` console script.

Kept as a plain ``setup.py`` (rather than PEP 517 metadata) so that
``pip install -e .`` works on minimal offline environments that lack the
``wheel`` package required for pyproject editable builds -- legacy
``setup.py develop`` installs need no wheel building.
"""

from setuptools import find_packages, setup

setup(
    name="repro-checkmate",
    version="1.0.0",  # mirrors repro.__version__
    description=("From-scratch reproduction of Checkmate (MLSys 2020): "
                 "optimal tensor rematerialization, plus a solve-as-a-service "
                 "daemon and CLI"),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy", "scipy>=1.17"],
    extras_require={"test": ["pytest"]},
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
        ],
    },
)
