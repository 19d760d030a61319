import json
import os
import stat
import threading
from math import comb

import pytest

from gact import make_group
from gact.cli import main
from gact.presentation import (
    build_gr_presentation,
    build_quotient_presentation,
    lavers_presentation,
    presentation_from_text,
    presentation_to_text,
    schreier_build,
)
from gact.endo import parse_wreath
from gact.fpgroup import todd_coxeter
from gact.rees import build_sandwich, matrix_to_text

from helpers import value_positions


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_ok(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4", "--r", "2", "--group", "Z2")
    assert code == 0
    assert out.strip() == "order=8 expected=8 OK"


def test_verify_trivial_small(capsys):
    code, out, _ = run(capsys, "verify", "--n", "5", "--r", "3", "--group", "trivial")
    assert code == 0
    assert out.strip() == "order=6 expected=6 OK"


def test_verify_rank_top(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4", "--r", "4", "--group", "Z3")
    assert code == 0
    assert "order=1 expected=1 OK" in out


def test_verify_rank_free_branch(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4", "--r", "3", "--group", "Z2")
    assert code == 0
    assert out.startswith("r3-relators=0 expected=0 OK")
    assert "torsion=none" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4", "--r", "2", "--group", "trivial", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["computed_order"] == 2
    assert report["expected_order"] == 2
    assert report["ok"] is True


def test_usage_errors(capsys):
    assert run(capsys, "verify", "--n", "2", "--r", "1", "--group", "Z2")[0] == 2
    assert run(capsys, "verify", "--n", "4", "--r", "5", "--group", "Z2")[0] == 2
    assert run(capsys, "verify", "--n", "4", "--r", "2", "--group", "Q8")[0] == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "4"])  # argparse rejects the missing flags
    assert exc.value.code == 2


def test_resource_cap_exit(capsys):
    for flag, cap in (("--max-entries", "3"), ("--max-relators", "10")):
        code, _, err = run(
            capsys, "verify", "--n", "4", "--r", "2", "--group", "Z2", flag, cap
        )
        assert code == 3
        assert f"cap {cap}" in err


def test_verify_below_rank_free_skips_position_presentation(monkeypatch):
    import gact.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("position presentation built")

    monkeypatch.setattr(cli, "build_gr_presentation", refuse)
    monkeypatch.setattr(cli, "schreier_build", refuse)
    for spec, n, r in (("Z2", 4, 2), ("trivial", 5, 3), ("Z2", 4, 4)):
        assert cli.run_verify(cli.make_group(spec), n, r, cli.DEFAULT_CAPS)["ok"]


def test_cap_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("GACT_MAX_ENTRIES", "3")
    code, _, err = run(capsys, "verify", "--n", "4", "--r", "2", "--group", "Z2")
    assert code == 3
    monkeypatch.setenv("GACT_MAX_ENTRIES", "100000")
    assert run(capsys, "verify", "--n", "4", "--r", "2", "--group", "Z2")[0] == 0


def test_rising_point_cli(capsys):
    code, out, _ = run(
        capsys, "rising-point", "--r", "4", "--group", "Z2", "--alpha", "3:0;2:1;4:0;1:0"
    )
    assert code == 0
    assert out.strip() == "3"


def test_decompose_cli(capsys):
    code, out, _ = run(
        capsys, "decompose", "--r", "4", "--group", "Z2", "--alpha", "3:0;2:1;4:0;1:0"
    )
    assert code == 0
    assert out.strip() == "beta=2:0;3:0;4:0;1:0 gamma=1:0;3:0;2:1;4:0"
    code, out, _ = run(
        capsys, "decompose", "--r", "4", "--group", "Z2", "--alpha", "3:0;2:1;4:0;1:0", "--json"
    )
    assert code == 0
    assert json.loads(out) == {"beta": "2:0;3:0;4:0;1:0", "gamma": "1:0;3:0;2:1;4:0"}


def test_decompose_cli_rejects_low(capsys):
    code, _, err = run(
        capsys, "decompose", "--r", "3", "--group", "Z2", "--alpha", "1:0;2:0;3:0"
    )
    assert code == 2
    assert "rising point" in err


def test_occurrences_cli(capsys):
    code, out, _ = run(
        capsys,
        "occurrences", "--n", "4", "--r", "2", "--group", "Z2", "--alpha", "1:1;2:1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "count=2"
    assert "kernel=" in lines[1] and "district=1.2 lambda=3.4" in lines[1]
    assert "district=1.3 lambda=2.4" in lines[2]
    # --json lists the positions the entries-based oracle finds, in its order
    for spec, alphas in (("Z2", ("1:1;2:1", "2:0;1:1", "1:0;2:0")), ("S3", ("2:3;1:1", "1:0;2:0"))):
        m = build_sandwich(make_group(spec), 4, 2)
        for alpha in alphas:
            argv = ["occurrences", "--n", "4", "--r", "2", "--group", spec, "--alpha", alpha]
            code, out, _ = run(capsys, *argv, "--json")
            assert code == 0
            want = value_positions(m).get(parse_wreath(m.group, 2, alpha), [])
            assert json.loads(out) == [
                {"kernel": i, "district": list(m.districts[i]), "lambda": list(m.lambdas[l_idx])}
                for i, l_idx in want
            ]
            assert run(capsys, *argv)[1].splitlines()[0] == f"count={len(want)}"


def test_connectivity_cli(capsys):
    code, out, _ = run(capsys, "connectivity", "--n", "4", "--r", "2", "--group", "Z2")
    assert code == 0
    lines = dict(
        (line.split()[0].split("=", 1)[1], line) for line in out.strip().splitlines()
    )
    assert lines["1:1;2:1"].endswith("positions=2 components=2")
    # --json carries the plain output's rows, in the same order: by value text
    for spec in ("Z2", "S3"):
        argv = ["connectivity", "--n", "4", "--r", "2", "--group", spec]
        code, out, _ = run(capsys, *argv)
        code_json, out_json, _ = run(capsys, *argv, "--json")
        assert code == code_json == 0
        rows = json.loads(out_json)
        assert [
            f"value={row['value']} positions={row['positions']} components={row['components']}"
            for row in rows
        ] == out.splitlines()
        assert [row["value"] for row in rows] == sorted(row["value"] for row in rows)


def test_squares_cli(capsys):
    code, out, _ = run(capsys, "squares", "--n", "3", "--group", "trivial")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("rank=1 idempotents=3")
    assert lines[2] == "rank=3 idempotents=1 squares=0 singular=0"


def test_sandwich_cli_to_file(capsys, tmp_path):
    path = tmp_path / "matrix.txt"
    code, out, _ = run(
        capsys,
        "sandwich", "--n", "4", "--r", "2", "--group", "Z2", "--output", str(path),
    )
    assert code == 0
    assert out == ""
    text = path.read_text()
    assert text.startswith("sandwich n=4 r=2 group-order=2 lambdas=6 kernels=28\n")
    # --json has one entry per nonzero position: C(n, r) * (r|G|)^(n-r) idempotents
    for spec in ("Z2", "S3"):
        m = build_sandwich(make_group(spec), 4, 2)
        code, out, _ = run(capsys, "sandwich", "--n", "4", "--r", "2", "--group", spec, "--json")
        assert code == 0
        data = json.loads(out)
        assert len(data["entries"]) == comb(4, 2) * (2 * m.group.order) ** 2
        assert [(e["kernel"], tuple(e["lambda"])) for e in data["entries"]] == [
            (i, m.lambdas[l_idx]) for i, l_idx in m.nonzero_positions()
        ]
        for e in data["entries"]:
            v = m.entries[m.lambda_pos[tuple(e["lambda"])]][e["kernel"]]
            assert (e["perm"], e["weights"]) == (list(v.perm), list(v.weights))


def test_presentation_cli_round_trip(capsys):
    # the Lavers presentation needs no sandwich matrix, so its entries cap never fires
    for spec, n, extra, order in (("Z2", "4", (), 8), ("Z3", "9", ("--max-entries", "10"), 18)):
        code, out, _ = run(
            capsys, "presentation", "--n", n, "--r", "2", "--group", spec, "--kind", "lavers", *extra
        )
        assert code == 0
        p = presentation_from_text(out)
        assert todd_coxeter(p).order == order


def test_presentation_cli_json(capsys):
    code, out, _ = run(
        capsys,
        "presentation", "--n", "4", "--r", "2", "--group", "trivial",
        "--kind", "quotient", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"generators", "relators", "tags"}
    # the gr --json export carries build_gr_presentation's relators and tags
    for spec in ("Z2", "S3"):
        g = make_group(spec)
        p = build_gr_presentation(build_sandwich(g, 4, 2), schreier_build(g, 4, 2))
        code, out, _ = run(
            capsys, "presentation", "--n", "4", "--r", "2", "--group", spec, "--kind", "gr", "--json"
        )
        assert code == 0
        assert json.loads(out) == {
            "generators": p.generators,
            "relators": [list(w) for w in p.relators],
            "tags": p.tags,
        }


def test_group_table_file_spec(capsys, tmp_path):
    path = tmp_path / "z2.txt"
    path.write_text("# two elements\norder 2\n0 1\n1 0\n")
    code, out, _ = run(
        capsys, "verify", "--n", "4", "--r", "2", "--group", f"table:{path}"
    )
    assert code == 0
    assert "order=8 expected=8 OK" in out


def test_reports_byte_reproducible(capsys):
    outs = []
    for _ in range(2):
        code = main(["connectivity", "--n", "4", "--r", "2", "--group", "Z2"])
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    outs = []
    for _ in range(2):
        code = main(["sandwich", "--n", "4", "--r", "2", "--group", "Z2"])
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_text_exports_equal_the_collected_text(capsys, tmp_path):
    # the streamed file and stdout equal the text of the collected object
    path = tmp_path / "export.txt"
    for spec, n, r in (("Z2", 4, 2), ("S3", 4, 2), ("trivial", 5, 3), ("Z2", 5, 3)):
        g = make_group(spec)
        m = build_sandwich(g, n, r)
        want = {
            ("presentation", "gr"): presentation_to_text(build_gr_presentation(m, schreier_build(g, n, r))),
            ("presentation", "quotient"): presentation_to_text(build_quotient_presentation(m)),
            ("presentation", "lavers"): presentation_to_text(lavers_presentation(g, r)),
            ("sandwich", None): matrix_to_text(m),
        }
        for (command, kind), text in want.items():
            argv = [command, "--group", spec, "--n", str(n), "--r", str(r)]
            argv += ["--kind", kind] if kind else []
            assert run(capsys, *argv, "--output", str(path)) == (0, "", "")
            assert path.read_text() == text, (spec, n, r, command, kind)
            assert run(capsys, *argv) == (0, text, "")
    assert os.listdir(tmp_path) == ["export.txt"]
    ref = tmp_path / "ref"
    open(ref, "w").close()
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(ref.stat().st_mode)


def test_capped_gr_export_leaves_output_untouched(capsys, tmp_path):
    # one cap fires in R1/R2, the other after the first R3 relator
    g = make_group("Z2")
    p = build_gr_presentation(build_sandwich(g, 4, 2), schreier_build(g, 4, 2))
    mid_r3 = p.tag_count("R1") + p.tag_count("R2") + 1
    assert 10 < mid_r3 < len(p.relators)
    full = presentation_to_text(p)
    path = tmp_path / "P"
    argv = ["presentation", "--kind", "gr", "--group", "Z2", "--n", "4", "--r", "2"]
    for before in (None, b"kept\n"):
        for cap in (10, mid_r3):
            if before is None:
                path.unlink(missing_ok=True)
            else:
                path.write_bytes(before)
            code, out, err = run(capsys, *argv, "--output", str(path), "--max-relators", str(cap))
            assert (code, out) == (3, "")
            assert f"cap {cap}" in err
            assert (path.read_bytes() if path.exists() else None) == before
            assert os.listdir(tmp_path) == ([] if before is None else ["P"])
            # on stdout the lines written before the cap stay written
            code, out, err = run(capsys, *argv, "--max-relators", str(cap))
            assert code == 3 and f"cap {cap}" in err
            assert full.startswith(out) and out.count("\nrel ") == cap


def test_export_targets_keep_their_kind(capsys, tmp_path):
    # a symlink is written through and a pipe is written in place, as by a plain open
    text = matrix_to_text(build_sandwich(make_group("Z2"), 4, 2))
    argv = ["sandwich", "--group", "Z2", "--n", "4", "--r", "2", "--output"]
    real, link = tmp_path / "real", tmp_path / "link"
    real.write_text("old\n")
    link.symlink_to(real)
    assert run(capsys, *argv, str(link)) == (0, "", "")
    assert link.is_symlink() and real.read_text() == text
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    assert run(capsys, *argv, str(fifo)) == (0, "", "")
    reader.join(timeout=30)
    assert got == [text] and stat.S_ISFIFO(fifo.lstat().st_mode)
    assert sorted(os.listdir(tmp_path)) == ["fifo", "link", "real"]


def test_capped_lavers_export(capsys, tmp_path):
    # the Lavers export honours --max-relators like the other presentations
    count = len(lavers_presentation(make_group("S3"), 4).relators)
    assert count > 5
    argv = ["presentation", "--kind", "lavers", "--group", "S3", "--n", "4", "--r", "4"]
    path = tmp_path / "L"
    for extra in ((), ("--output", str(path))):
        code, out, err = run(capsys, *argv, *extra, "--max-relators", "5")
        assert (code, out) == (3, "") and "cap 5" in err
        assert os.listdir(tmp_path) == []
    assert run(capsys, *argv, "--max-relators", str(count - 1))[0] == 3
    assert run(capsys, *argv, "--max-relators", str(count), "--output", str(path)) == (0, "", "")
    assert os.listdir(tmp_path) == ["L"]


def test_output_error_names_the_given_path(capsys, tmp_path):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run(
        capsys, "sandwich", "--group", "Z2", "--n", "4", "--r", "2", "--output", str(target)
    )
    assert (code, out) == (2, "")
    assert f"No such file or directory: '{target}'\n" in err and ".tmp" not in err
