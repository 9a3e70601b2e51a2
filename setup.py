"""Build script: compiles the optional C++ extensions, the rank-engine core
and the model kernels (`hypergame._scan`: the model-text line scanner and
the edge kernels that build a declaration's edges and check them).

The package works without them: a pure-Python engine, scanner and edge
kernels are selected at import time whenever an extension does not import.
So each extension is optional: where it cannot be compiled, for instance
with no C++ compiler, the build warns and goes on pure-Python only.
"""

from setuptools import Extension, setup

setup(ext_modules=[
    Extension("hypergame.ranks._core", ["src/hypergame/ranks/_core.cpp"],
              language="c++", optional=True),
    Extension("hypergame._scan", ["src/hypergame/_scan.cpp"],
              language="c++", optional=True),
])
