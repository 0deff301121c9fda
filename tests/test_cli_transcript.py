"""Golden CLI transcript, compared byte for byte.

The transcript holds ``analyze`` (plain and compact) and ``blowdowns`` for
every catalog key, plus ``isomorphic`` from paper-W to W-bar (the contraction
of e7 in paper-Y steered by {e1,e6}) with its map. After an intended change
of output, regenerate it with

    PYTHONPATH=src python tests/test_cli_transcript.py
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

from toricfan import catalog, cli, contract_ray, serialize_fan

GOLDEN = Path(__file__).parent / "data" / "cli_transcript.txt"


def _commands() -> list[list[str]]:
    out = []
    for key in catalog.catalog_keys():
        out.append(["analyze", f"{key}.fan"])
        out.append(["analyze", "--format", "compact", f"{key}.fan"])
        out.append(["blowdowns", f"{key}.fan"])
    out.append(["isomorphic", "paper-W.fan", "wbar.fan"])
    return out


def transcript(workdir: Path) -> str:
    """Run every command on fan files written into ``workdir``."""
    fans = {key: catalog.catalog_fan(key) for key in catalog.catalog_keys()}
    fans["wbar"] = contract_ray(fans["paper-Y"], "e7", ("e1", "e6"))
    for key, fan in fans.items():
        (workdir / f"{key}.fan").write_text(serialize_fan(fan), encoding="utf-8")
    chunks = []
    for argv in _commands():
        out, err = io.StringIO(), io.StringIO()
        paths = [str(workdir / a) if a.endswith(".fan") else a for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(paths)
        chunks.append(
            f"$ toricfan {' '.join(argv)}\n{out.getvalue()}{err.getvalue()}"
            f"[exit {code}]\n"
        )
    return "\n".join(chunks)


def test_cli_transcript_is_byte_identical(tmp_path):
    assert transcript(tmp_path) == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(transcript(Path(tmp)), encoding="utf-8")
