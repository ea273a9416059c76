from setuptools import Extension, setup

# optional: without a C compiler the package installs pure Python and
# `indmatch.native_available()` reports False.
setup(ext_modules=[Extension("indmatch._fastcore", ["src/indmatch/_fastcore.c"], optional=True)])
