"""The package loads its submodules on first use, a `dvfield` command
imports only the modules it calls, and the runtime imports nothing
outside the standard library."""

import ast
import glob
import importlib
import json
import os
import subprocess
import sys

import pytest

import dvfield

SRC = os.path.dirname(os.path.dirname(os.path.abspath(dvfield.__file__)))

# the public surface as it stood when every submodule was imported eagerly
EXPORTS = {
    "errors": ["AllCoefficientsIndistinguishableFromZero", "ContractionFails",
               "DerivativeIndistinguishableFromZero", "DivisionByIndistinguishableZero",
               "DomainError", "HypothesesFail", "InsufficientPrecision", "ParseError",
               "PrecisionExhausted", "TailInconclusive", "UltrametricError",
               "UndecidedMultipleRoot"],
    "localfield": ["FieldDescriptor", "FieldElement", "FieldKind", "Qp",
                   "invert_one_minus", "laurent_field", "laurent_invert"],
    "measure": ["BallFamily", "BallRelation", "BallSpec", "ContentEstimate",
                "DigitSetReport", "DimensionValue", "RationalMeasure", "admissible_ball",
                "ball_relation", "digit_set_analysis", "haar_union_measure",
                "hausdorff_alpha", "image_measure", "maximal_disjointify", "scale_family"],
    "rootfind": ["HenselProblem", "HypothesisReport", "RootCertificate",
                 "StrassmannReport", "check_hypotheses", "enumerate_roots",
                 "fixed_point_solve", "hensel_solve", "strassmann_bound"],
    "series": ["TailProfile", "TruncatedSeries", "polynomial"],
    "special": ["e_min", "exp_eval", "exp_series", "log_solve"],
    "valuation": ["INFINITY", "Valuation", "factorial_valuation", "is_infinite",
                  "is_prime", "vp"],
}
SUBMODULES = ["arith", *EXPORTS]


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


class TestPackageSurface:
    def test_all_is_the_eager_surface(self):
        names = [n for names in EXPORTS.values() for n in names] + SUBMODULES
        assert len(names) == 64
        assert dvfield.__all__ == sorted(names)

    def test_each_name_is_its_modules_attribute_and_is_cached(self):
        for module, names in EXPORTS.items():
            home = importlib.import_module(f"dvfield.{module}")
            for name in names:
                assert getattr(dvfield, name) is getattr(home, name), name
                assert vars(dvfield)[name] is getattr(home, name), name
        for module in SUBMODULES:
            assert getattr(dvfield, module) is importlib.import_module(f"dvfield.{module}")

    def test_dir_lists_every_name(self):
        assert set(dvfield.__all__) <= set(dir(dvfield))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            dvfield.no_such_name
        assert not hasattr(dvfield, "no_such_name")

    def test_retired_magnitude_is_gone(self):
        # absolute values are valuations: INFINITY or an int
        with pytest.raises(AttributeError, match="Magnitude"):
            dvfield.Magnitude
        assert not hasattr(dvfield.valuation, "Magnitude")
        assert not hasattr(dvfield.FieldElement, "magnitude")

    def test_star_import(self):
        namespace = {}
        exec("from dvfield import *", namespace)
        for name in dvfield.__all__:
            assert namespace[name] is getattr(dvfield, name), name

    def test_submodules_import_on_access(self):
        code = ("import json, sys, dvfield\n"
                "before = sorted(m for m in sys.modules if m.startswith('dvfield.'))\n"
                "rootfind = dvfield.rootfind\n"
                "print(json.dumps([before, rootfind is sys.modules['dvfield.rootfind'],\n"
                "                  'dvfield.special' in sys.modules]))\n")
        proc = fresh_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        before, same, special = json.loads(proc.stdout)
        assert before == [] and same and not special


# Runs `dvfield.cli` as `python -m` does, then reports the dvfield modules in
# sys.modules when the command exits.  `-X importtime` would miss the modules
# the package's __getattr__ loads through importlib.import_module.
RUN_CLI = """\
import atexit, json, runpy, sys
atexit.register(lambda: print(json.dumps(sorted(
    m for m in sys.modules if m.startswith("dvfield."))), file=sys.stderr))
runpy.run_module("dvfield.cli", run_name="__main__", alter_sys=True)
"""


def cli_modules(*argv: str):
    """stdout of a fresh `dvfield` command process and the dvfield modules
    loaded when it exits."""
    proc = fresh_python("-c", RUN_CLI, *argv)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stderr.splitlines()[-1])
    return proc.stdout, {m[len("dvfield."):] for m in loaded}


class TestImportBoundary:
    def test_val_loads_no_solver_or_measure(self):
        out, loaded = cli_modules("val", "-p", "2", "--", "12")
        assert out == "2\n"
        assert "localfield" in loaded and "textio" in loaded
        assert not loaded & {"series", "rootfind", "special", "measure"}

    def test_measure_union_loads_no_series(self):
        out, loaded = cli_modules("measure", "-p", "5", "union", "1@1", "2@1")
        assert out == "2/5\n"
        assert "measure" in loaded
        assert not loaded & {"series", "rootfind", "special"}

    def test_exp_loads_no_measure(self):
        out, loaded = cli_modules("exp", "-p", "3", "-N", "4", "3")
        assert out == "1 + 1*3 + 1*3^2 + 2*3^3 + O(3^4)\n"
        assert "special" in loaded
        assert "measure" not in loaded
        assert "rootfind" not in loaded


def test_runtime_imports_only_the_standard_library():
    outside = []
    for path in sorted(glob.glob(os.path.join(SRC, "dvfield", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue
            outside += [(os.path.basename(path), top) for top in tops
                        if top not in sys.stdlib_module_names]
    assert outside == []
