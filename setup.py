"""Legacy setup shim so `pip install -e .` works offline (no wheel pkg).

The version is single-sourced from ``repro.__version__`` through
``[tool.setuptools.dynamic]`` in pyproject.toml.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    description=(
        "Reproduction of 'SQL to XQuery Translation in the AquaLogic Data "
        "Services Platform' (ICDE 2006)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
)
