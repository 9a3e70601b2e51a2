"""Build script: compiles the optional C++ rank-engine core.

The package works without the extension (a pure-Python engine is selected
at import time), so the extension is optional: where it cannot be compiled,
for instance with no C++ compiler, the build warns and goes on pure-Python
only.
"""

from setuptools import Extension, setup

setup(ext_modules=[
    Extension("hypergame.ranks._core", ["src/hypergame/ranks/_core.cpp"],
              language="c++", optional=True),
])
