"""Package metadata for the SmartExchange reproduction.

``pip install -e .`` makes ``import repro`` work without PYTHONPATH=src.
"""

from setuptools import find_packages, setup

setup(
    name="repro-smartexchange",
    version="1.0.0",  # keep in sync with src/repro/version.py
    description=(
        "Reproduction of SmartExchange (ISCA 2020): trading memory "
        "storage/access for computation, from the decomposition "
        "algorithm to accelerator cost models and compressed-model "
        "serving"
    ),
    long_description=open("README.md").read(),
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    packages=find_packages("src"),
    package_dir={"": "src"},
    python_requires=">=3.9",
    install_requires=["numpy>=1.22"],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "License :: OSI Approved :: MIT License",
        "Topic :: Scientific/Engineering :: Artificial Intelligence",
    ],
)
