"""Setup script (kept PEP-517-free so `pip install -e .` works offline)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Graph-based partitioning of matrix algorithms for systolic arrays "
        "(Moreno & Lang, 1988) - full reproduction"
    ),
    python_requires=">=3.10",
    install_requires=["numpy>=2.0", "networkx"],
    extras_require={"dev": ["pytest", "hypothesis"]},
    package_dir={"": "src"},
    packages=find_packages(where="src"),
)
