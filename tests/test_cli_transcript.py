"""Golden CLI transcript, compared byte for byte.

The transcript holds ``analyze`` (plain and compact) and ``blowdowns`` for
every catalog key, plus ``isomorphic`` from paper-W to W-bar (the contraction
of e7 in paper-Y steered by {e1,e6}) with its map, ``enumerate`` in
dimensions 1, 2 and 3, ``factor`` along the paper tower (with ``--all``,
and with ``--require-fano``, which finds no path and exits 3) and from one
seeded blow-up chain back to P^4, and ``analyze`` (plain and compact) of the
six named invalid fans of ``conftest``, whose witnesses come from the
pairwise face check. After an intended change of output, regenerate it with

    PYTHONPATH=src python tests/test_cli_transcript.py
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

from conftest import (
    DOUBLE_P2,
    FOLDED_CYCLE,
    NON_SMOOTH_OVERLAP,
    OVERLAPPING_TEXT,
    TWICE_WINDING,
    ZIGZAG_CYCLE,
    blowup_chain,
)
from toricfan import catalog, cli, contract_ray, serialize_fan

GOLDEN = Path(__file__).parent / "data" / "cli_transcript.txt"

INVALID = {
    "twice-winding": serialize_fan(TWICE_WINDING),
    "folded-cycle": serialize_fan(FOLDED_CYCLE),
    "double-p2": serialize_fan(DOUBLE_P2),
    "zigzag-cycle": serialize_fan(ZIGZAG_CYCLE),
    "non-smooth-overlap": serialize_fan(NON_SMOOTH_OVERLAP),
    "overlapping": OVERLAPPING_TEXT,
}


def _commands() -> list[list[str]]:
    out = []
    for key in catalog.catalog_keys():
        out.append(["analyze", f"{key}.fan"])
        out.append(["analyze", "--format", "compact", f"{key}.fan"])
        out.append(["blowdowns", f"{key}.fan"])
    out.append(["isomorphic", "paper-W.fan", "wbar.fan"])
    out.append(["enumerate", "--dim", "1"])
    out.append(["enumerate", "--dim", "2"])
    out.append(["enumerate", "--dim", "3"])
    out.append(["factor", "paper-Y.fan", "paper-X.fan", "--all"])
    out.append(["factor", "paper-Y.fan", "paper-X.fan", "--require-fano"])
    out.append(["factor", "paper-Y.fan", "p4.fan"])
    out.append(["factor", "paper-W.fan", "paper-X.fan"])
    out.append(["factor", "paper-X.fan", "p4.fan"])
    out.append(["factor", "chain.fan", "p4.fan"])
    for key in INVALID:
        out.append(["analyze", f"{key}.fan"])
        out.append(["analyze", "--format", "compact", f"{key}.fan"])
    return out


def transcript(workdir: Path) -> str:
    """Run every command on fan files written into ``workdir``."""
    fans = {key: catalog.catalog_fan(key) for key in catalog.catalog_keys()}
    fans["wbar"] = contract_ray(fans["paper-Y"], "e7", ("e1", "e6"))
    fans["chain"] = blowup_chain(2, 4, 6)
    texts = {key: serialize_fan(fan) for key, fan in fans.items()} | INVALID
    for key, text in texts.items():
        (workdir / f"{key}.fan").write_text(text, encoding="utf-8")
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
