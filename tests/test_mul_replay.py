"""tools/mul_replay.py: one point's jet multiplies replayed under two trees."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# appended to a copy of jets.py: every product moves its first coefficient by one ulp
PERTURB = """

_exact_kernel = PolyRing._mul_coeffs


def _perturbed_kernel(self, *args):
    out = _exact_kernel(self, *args)
    out.flat[0] = np.nextafter(out.flat[0], np.inf)
    return out


PolyRing._mul_coeffs = _perturbed_kernel
"""


def _tool():
    spec = importlib.util.spec_from_file_location("mul_replay", ROOT / "tools" / "mul_replay.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(capsys, old: Path, new: Path) -> tuple[int, str]:
    code = _tool().main([str(old), str(new), "--workload", "eval-randers3", "--repeats", "1"])
    return code, capsys.readouterr().out


def test_a_tree_replayed_against_itself_agrees(capsys):
    code, out = _run(capsys, ROOT, ROOT)
    assert code == 0
    assert "61 calls, 1 replays per tree" in out
    assert "outputs: values differ in 0 calls, layout in 0" in out
    assert "via exp" in out  # call sites name the jet function they went through


def test_a_kernel_that_moves_one_coefficient_is_caught(tmp_path, capsys):
    fake = tmp_path / "fake"
    shutil.copytree(ROOT / "src" / "spraylab", fake / "src" / "spraylab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    jets_py = fake / "src" / "spraylab" / "jets.py"
    jets_py.write_text(jets_py.read_text() + PERTURB)
    code, out = _run(capsys, ROOT, fake)
    assert code == 1
    assert "outputs: values differ in 61 calls, layout in 0" in out
