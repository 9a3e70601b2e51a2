"""Build script: compiles the optional C++ extensions, the rank-engine core
and the model-text line scanner.

The package works without them (a pure-Python engine and scanner are
selected at import time), so each extension is optional: where it cannot be
compiled, for instance with no C++ compiler, the build warns and goes on
pure-Python only.
"""

from setuptools import Extension, setup

setup(ext_modules=[
    Extension("hypergame.ranks._core", ["src/hypergame/ranks/_core.cpp"],
              language="c++", optional=True),
    Extension("hypergame._scan", ["src/hypergame/_scan.cpp"],
              language="c++", optional=True),
])
