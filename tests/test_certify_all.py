"""scripts/certify_all.py: every certificate it writes must verify, or it
exits 1."""

import importlib.util
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "certify_all.py"


def _load_script(path=SCRIPT):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_certify_all_exits_1_when_a_certificate_fails_to_verify(tmp_path, monkeypatch, capsys):
    script = _load_script()
    args = ["--k-max", "5", "--m-max", "5"]
    assert script.main(["--out", str(tmp_path / "ok"), *args]) == 0
    out, err = capsys.readouterr()
    # bowtie k=5, kpm m=4 and 5, and the search panel's nine finds
    assert out.count("verified=True") == 12 and "verified=False" not in out
    # K_{3,3}, K_{4,4}, Q_3, C_8 and kpm 4 are weakly norming: each spends
    # its budget
    assert out.count(" NONE ") == 5
    assert err == ""

    # one failing certificate is enough; the rest of the sweep still runs
    verify = script.verify_certificate
    monkeypatch.setattr(
        script, "verify_certificate",
        lambda cert: cert.kind != "not_norming" and verify(cert),
    )
    assert script.main(["--out", str(tmp_path / "bad"), *args]) == 1
    out, err = capsys.readouterr()
    assert out.count("verified=True") == 7 and out.count("verified=False") == 5
    assert "C_6 at half=1" in out
    kpm5_searches = ", ".join(f"search kpm5 seed={seed}" for seed in range(4))
    assert err == f"failed to verify: kpm m=5, {kpm5_searches}\n"
    # the certificates written are the same either way
    written = sorted(p.name for p in (tmp_path / "ok").iterdir())
    assert written == sorted(p.name for p in (tmp_path / "bad").iterdir())
    for name in written:
        assert (tmp_path / "bad" / name).read_bytes() == (tmp_path / "ok" / name).read_bytes()


def test_certify_all_prints_a_row_for_each_case_past_its_limits(tmp_path, capsys):
    # bowtie k = 9 and kpm m = 9 colour 3^9 cover colourings, past the
    # enumeration limit, and the k = 9 blow-up has 18 vertices, past the
    # structure limit of 16: each prints a REFUSED row, the sweep goes on,
    # and nothing that was written fails to verify
    script = _load_script()
    assert script.main(["--out", str(tmp_path), "--k-max", "9", "--m-max", "9"]) == 0
    out, err = capsys.readouterr()
    guard = re.escape("enumeration guard: 3^9 = 19683 colourings > 10000")
    for label in ("bowtie k=9", "kpm m=9"):
        assert re.search(rf"^{label} +REFUSED +[0-9.]+s  {guard}$", out, re.M), label
    assert "blow-up k=9: REFUSED  structure guard: 18 vertices > 16\n" in out
    assert "blow-up k=8: unique-4-cycle edge=[0, 9]" in out
    assert "C_6 at half=1" in out
    assert "verified=False" not in out and err == ""
    assert (tmp_path / "bowtie_k=8.json").exists() and (tmp_path / "kpm_m=8.json").exists()
    assert not any("=9" in p.name for p in tmp_path.iterdir())
