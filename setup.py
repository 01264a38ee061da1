"""Setup shim for offline editable installs.

Every piece of metadata is declared once, in ``pyproject.toml``, and
setuptools reads it from there.  This file exists for environments
without the ``wheel`` package, where ``pip install --no-index -e .
--no-build-isolation`` cannot build the PEP 660 editable wheel and fails
with ``invalid command 'bdist_wheel'`` (setuptools 65).  There the one
editable install that works offline is::

    python setup.py develop

which needs this file.  Delete it once ``wheel`` can be assumed.
"""

from setuptools import setup

setup()
