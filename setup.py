"""Build script: compiles the optional C++ extension `hypergame._native`,
the package's compiled code in one module: the model-text line scanner, the
edge kernels that build a declaration's edges and check them, and the rank
engine with its whole-session move loop.

The package works without it: a pure-Python scanner, edge kernels and
engine are selected at import time whenever the extension does not import.
So the extension is optional: where it cannot be compiled, for instance
with no C++ compiler, the build warns and goes on pure-Python only.
"""

from setuptools import Extension, setup

setup(ext_modules=[
    Extension("hypergame._native", ["src/hypergame/_native.cpp"],
              language="c++", optional=True),
])
