from setuptools import Extension, setup

# The scan/orbit kernel is an optional speedup, hand-written against the
# CPython API.  Without a C compiler the install still succeeds and
# quandles._kernel falls back to the pure-Python implementation.
setup(
    ext_modules=[
        Extension("quandles._speedups", ["src/quandles/_speedups.c"], optional=True),
    ]
)
