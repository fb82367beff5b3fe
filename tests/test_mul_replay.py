"""tools/mul_replay.py: one point's jet multiplies replayed under two trees."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# appended to a copy of jets.py: every product, on the pair table or as a seed
# shift, moves its first coefficient by one ulp
PERTURB = """

def _perturbed(kernel):
    def perturbed(self, *args):
        out = kernel(self, *args)
        out.flat[0] = np.nextafter(out.flat[0], np.inf)
        return out
    return perturbed


PolyRing._mul_coeffs = _perturbed(PolyRing._mul_coeffs)
PolyRing._shift_coeffs = _perturbed(PolyRing._shift_coeffs)
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
    assert "53 calls (47 table, 6 shift), 1 replays per tree" in out
    assert "outputs: values differ in 0 calls, layout in 0" in out
    assert "via solve" in out  # call sites name the jet function they went through


def test_a_kernel_that_moves_one_coefficient_is_caught(tmp_path, capsys):
    fake = tmp_path / "fake"
    shutil.copytree(ROOT / "src" / "spraylab", fake / "src" / "spraylab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    jets_py = fake / "src" / "spraylab" / "jets.py"
    jets_py.write_text(jets_py.read_text() + PERTURB)
    code, out = _run(capsys, ROOT, fake)
    assert code == 1
    assert "outputs: values differ in 53 calls, layout in 0" in out
