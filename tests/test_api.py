import os
import subprocess
import sys

import dgalift


def test_all_exports_resolve():
    names = dgalift.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(dgalift, n)]
    assert missing == []
    namespace = {}
    exec("from dgalift import *", namespace)
    assert set(names) <= set(namespace)


def test_the_command_line_does_not_load_the_tensor_oracles():
    """`dgalift.tensor` is the test oracle of the splitting and the odd
    sequence: importing the package or its command line leaves it out."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = "import sys, dgalift.cli; print('dgalift.tensor' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
