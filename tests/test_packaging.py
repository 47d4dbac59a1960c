"""What an install of pyproject.toml would state, read through setuptools' own reader.

Building a wheel needs packages this suite does not assume, so these tests
read the configuration the way the build backend reads it and check each
fact against the package: the version comes from `ascon_aead.__version__`
alone, the console script runs `cli.main`, and the package data is exactly
the C files the kernel loader compiles.
"""

import importlib
import os
import sys
from pathlib import Path

import pytest

import ascon_aead
from ascon_aead import _accel

pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

# setuptools warns that its [tool.setuptools] table is in beta
pytestmark = pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")


def config(expand: bool) -> dict:
    return pyprojecttoml.read_configuration(str(PYPROJECT), expand=expand)


def test_version_is_stated_once_in_the_package():
    project = config(expand=False)["project"]
    assert "version" not in project
    assert "version" in project["dynamic"]
    assert config(expand=True)["project"]["version"] == ascon_aead.__version__


def test_console_script_runs_main_as_the_generated_wrapper_does(capsys, monkeypatch):
    project = config(expand=True)["project"]
    target = project["scripts"]["ascon-aead"]
    assert target == "ascon_aead.cli:main"
    module, _, name = target.partition(":")
    main = getattr(importlib.import_module(module), name)
    monkeypatch.setattr(sys, "argv", ["ascon-aead", "--version"])
    with pytest.raises(SystemExit) as info:
        sys.exit(main())
    assert info.value.code == 0
    assert capsys.readouterr().out == f"ascon-aead {project['version']}\n"


def test_package_data_is_the_c_files_the_loader_compiles():
    package_data = config(expand=True)["tool"]["setuptools"]["package-data"]["ascon_aead"]
    assert sorted(package_data) == sorted(
        os.path.basename(path) for path in (_accel._SOURCE, _accel._BINDING)
    )
