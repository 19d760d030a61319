import contextlib
import hashlib
import io
import json
import os
import shlex
import stat
import threading
from math import comb

import pytest

from gact import biorder, cli, fpgroup, make_group, presentation, reduction, rees
from gact.cli import DEFAULT_CAPS, main
from gact.presentation import (
    Presentation,
    build_gr_presentation,
    build_quotient_presentation,
    gr_relators,
    lavers_presentation,
    presentation_to_text,
)
from gact.endo import parse_wreath
from gact.fpgroup import todd_coxeter
from gact.rees import build_sandwich, matrix_to_text
from gact.verify import run_verify

from helpers import KLEIN, presentation_from_text, quaternion_group, sandwich_text, value_positions


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


def test_verify_at_large_n(capsys, monkeypatch):
    # the partitions are made without recursion, and the entries cap on a far
    # larger slice fires before any row is built: Z2 4000 2000 is over the
    # nonzero count; Z2 1200 1199 and trivial 3000 2999 fit it (2.88M and 9.0M
    # cells) but not their rows times r (1.73e9 and 1.35e13)
    assert run(capsys, "verify", "--group", "Z2", "--n", "1200", "--r", "1200") == (
        0, "order=1 expected=1 OK\n", ""
    )

    def no_rows(*args):
        raise AssertionError("rows made before the entries cap")

    monkeypatch.setattr(rees, "set_partitions", no_rows)
    for spec, n, r in (("Z2", "4000", "2000"), ("Z2", "1200", "1199"), ("trivial", "3000", "2999")):
        assert run(capsys, "verify", "--group", spec, "--n", n, "--r", r) == (
            3, "", "error: sandwich matrix entries exceeds the cap 10000000\n")


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


def test_gr_grids_check_their_dense_cells(capsys, tmp_path, monkeypatch):
    # Z2 4 2 has 96 nonzero cells, 56 rows times r and 168 rows times columns:
    # the matrix fits a cap of 100, the gr letter grids do not, and a capped gr
    # export stops before any row is built and writes nothing
    argv = ["--group", "Z2", "--n", "4", "--r", "2", "--max-entries", "100"]
    assert run(capsys, "sandwich", *argv)[0] == 0
    assert run(capsys, "verify", *argv) == (0, "order=8 expected=8 OK\n", "")

    def no_rows(*args):
        raise AssertionError("rows made before the entries cap")

    path = tmp_path / "P"
    path.write_bytes(b"kept\n")
    with monkeypatch.context() as mp:
        mp.setattr(rees, "set_partitions", no_rows)
        for extra in ((), ("--json",), ("--output", str(path)), ("--json", "--output", str(path))):
            assert run(capsys, "presentation", "--kind", "gr", *argv, *extra) == (
                3, "", "error: sandwich matrix entries exceeds the cap 100\n")
        # rank n-1 verify reads the same grids: Z2 4 3 has 24 nonzero cells, 36 rows times r, 48 dense
        assert run(capsys, "verify", "--group", "Z2", "--n", "4", "--r", "3", "--max-entries", "40") == (
            3, "", "error: sandwich matrix entries exceeds the cap 40\n")
    assert path.read_bytes() == b"kept\n" and os.listdir(tmp_path) == ["P"]
    assert run(capsys, "sandwich", "--group", "Z2", "--n", "4", "--r", "3", "--max-entries", "40")[0] == 0
    assert run(capsys, "verify", "--group", "Z2", "--n", "4", "--r", "3", "--max-entries", "48")[0] == 0


def test_rank_free_abelianization_checks_its_matrix_cells(capsys, monkeypatch):
    # Z2 4 3 passes the sandwich checks at a cap of 48 (its gr grids' dense
    # cells); a Tietze residue of 7 relators on 7 generators is 49 cells of the
    # abelianization's dense matrix, so the cap fires before it is built, and
    # one more unit of cap lets it run; the residue presents the trivial
    # group, not the free group of rank 2 * C(4, 2) - 4 + 1 = 9, so it fails
    residue = Presentation([f"a{k}" for k in range(1, 8)], [(k,) for k in range(1, 8)], ["rel"] * 7)
    called, real = [], fpgroup.abelianization

    def abelianization(pres):
        called.append(pres)
        return real(pres)

    monkeypatch.setattr(presentation, "eliminate_generators", lambda p: (residue, []))
    monkeypatch.setattr(fpgroup, "abelianization", abelianization)
    argv = ["verify", "--group", "Z2", "--n", "4", "--r", "3", "--max-entries"]
    assert run(capsys, *argv, "48") == (3, "", "error: abelianization matrix entries exceeds the cap 48\n")
    assert called == []
    assert run(capsys, *argv, "49") == (
        1, "r3-relators=0 expected=0 MISMATCH free-rank=0 torsion=none expected-free-rank=9\n", "")
    assert called == [residue]


def test_rank_free_verify_checks_the_free_rank(capsys, monkeypatch):
    # a position presentation missing one R1 or one R2 relator still has no
    # R3, but its free rank is one over 2 * C(6, 2) - 6 + 1 = 25, so verify fails
    argv = ["verify", "--group", "Z2", "--n", "6", "--r", "5"]
    assert run(capsys, *argv) == (0, "r3-relators=0 expected=0 OK free-rank=25 torsion=none\n", "")
    real = presentation._gr_words
    for dropped in ("R1", "R2"):
        def short(m, names, dropped=dropped):
            for tag, words in real(m, names):
                yield tag, words[1:] if tag == dropped else words

        with monkeypatch.context() as mp:
            mp.setattr(presentation, "_gr_words", short)
            assert run(capsys, *argv) == (
                1, "r3-relators=0 expected=0 MISMATCH free-rank=26 torsion=none expected-free-rank=25\n", "")


def test_verify_below_rank_free_skips_position_presentation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("position presentation built")

    monkeypatch.setattr(presentation, "build_gr_presentation", refuse)
    monkeypatch.setattr(presentation, "schreier_build", refuse)
    for spec, n, r in (("Z2", 4, 2), ("trivial", 5, 3), ("Z2", 4, 4)):
        assert run_verify(make_group(spec), n, r, DEFAULT_CAPS)["ok"]


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
        p = build_gr_presentation(build_sandwich(g, 4, 2))
        code, out, _ = run(
            capsys, "presentation", "--n", "4", "--r", "2", "--group", spec, "--kind", "gr", "--json"
        )
        assert code == 0
        assert json.loads(out) == {
            "generators": p.generators,
            "relators": [list(w) for w in p.relators],
            "tags": p.tags,
        }


def test_gr_json_is_written_from_the_batches(capsys, tmp_path, monkeypatch):
    # the streamed gr --json has the bytes of json.dumps of the collected
    # presentation, at r = n - 1 (no R3), r = n and r = 1 too; capped, a file
    # target is left untouched and stdout holds a prefix of the whole text
    monkeypatch.chdir(tmp_path)
    for spec, n, r in (("Z2", 4, 2), ("trivial", 5, 3), ("Z3", 4, 3), ("S3", 3, 3), ("Z3", 5, 1)):
        g = make_group(spec)
        p = build_gr_presentation(build_sandwich(g, n, r))
        whole = json.dumps({"generators": p.generators, "relators": p.relators, "tags": p.tags}) + "\n"
        argv = ["presentation", "--group", spec, "--n", str(n), "--r", str(r), "--json"]
        assert run(capsys, *argv) == (0, whole, "")
        for cap in (0, len(p.relators) // 2):
            code, out, err = run(capsys, *argv, "--max-relators", str(cap), "--output", "P")
            assert (code, out, os.listdir()) == (3, "", []) and f"cap {cap}" in err
            code, out, _ = run(capsys, *argv, "--max-relators", str(cap))
            assert code == 3 and whole.startswith(out) and '"relators": [' in out


@pytest.mark.parametrize("argv, message", [
    ("verify --group Z0 --n 4 --r 2", "bad cyclic order in 'Z0'"),
    ("verify --group S0 --n 4 --r 2", "bad symmetric degree in 'S0'"),
    ("verify --group table:{order x} --n 4 --r 2", "bad order 'x'"),
    ("verify --group table:{order 0} --n 4 --r 2", "bad order 0"),
    ("rising-point --group Z2 --r 2 --alpha 1:0;2", "entry 2 is not of the form t:g: '2'"),
    ("rising-point --group Z2 --r 2 --alpha 1:0;a:0", "entry 2 has non-integer fields: 'a:0'"),
    ("verify --group Z2 --n 4 --r 0", "rank r=0 must be at least 1"),
])
def test_outside_input_exits_2_naming_its_fault(capsys, tmp_path, argv, message):
    # `table:{text}` names a table file holding that one line
    head, brace, rest = argv.partition("{")
    if brace:
        text, _, tail = rest.partition("}")
        (tmp_path / "g.txt").write_text(text + "\n")
        argv = head + str(tmp_path / "g.txt") + tail
    assert run(capsys, *argv.split()) == (2, "", f"error: {message}\n")


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
    # the streamed file and stdout equal the text of the collected object,
    # at r = 1 and r = n too
    path = tmp_path / "export.txt"
    for spec, n, r in (("Z2", 4, 2), ("S3", 4, 2), ("trivial", 5, 3), ("Z2", 5, 3), ("Z2", 4, 1), ("Z3", 5, 4),
                       ("S3", 4, 4)):
        g = make_group(spec)
        m = build_sandwich(g, n, r)
        want = {
            ("presentation", "gr"): presentation_to_text(build_gr_presentation(m)),
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


def test_sandwich_exports_equal_the_per_entry_oracle(capsys, tmp_path):
    # the text, spelt one string per row, equals one record per nonzero entry
    # from value_at; the streamed --json equals json.dumps of the entries as
    # dicts; table groups, r = 1, r = n and a non-abelian group
    klein, q8 = tmp_path / "klein.txt", tmp_path / "q8.txt"
    klein.write_text(KLEIN)
    q8.write_text("order 8\n" + "".join(" ".join(map(str, row)) + "\n" for row in quaternion_group().table))
    cases = [(f"table:{klein}", 5, 3), (f"table:{q8}", 5, 3), ("Z3", 6, 1), ("Z2", 5, 5), ("S3", 5, 3)]
    for spec, n, r in cases:
        g = make_group(spec)
        m = build_sandwich(g, n, r)
        argv = ["sandwich", "--group", spec, "--n", str(n), "--r", str(r)]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, sandwich_text(m), ""), (spec, n, r)
        assert sum(line.startswith("lambda=") for line in out.splitlines()) == comb(n, r) * (r * g.order) ** (n - r)
        entries = [{"lambda": list(m.lambdas[l]), "kernel": i, "perm": list(v.perm), "weights": list(v.weights)}
                   for i, l in m.nonzero_positions() for v in [m.value_at(i, l)]]
        whole = {"n": n, "r": r, "group_order": g.order, "lambdas": len(m.lambdas), "kernels": len(m.districts),
                 "entries": entries}
        assert run(capsys, *argv, "--json") == (0, json.dumps(whole) + "\n", ""), (spec, n, r)


def test_capped_gr_export_leaves_output_untouched(capsys, tmp_path):
    # one cap fires in R1/R2, the others at every relator from the first R3
    # one through the end of the first two R3 rows, each row one batch
    g = make_group("Z2")
    m = build_sandwich(g, 4, 2)
    p = build_gr_presentation(m)
    mid_r3 = p.tag_count("R1") + p.tag_count("R2") + 1
    r3_rows = [len(words) for tag, words in gr_relators(m) if tag == "R3"]
    two_rows = mid_r3 - 1 + r3_rows[0] + r3_rows[1]
    assert 10 < mid_r3 and min(r3_rows[:2]) > 1 and two_rows < len(p.relators)
    full = presentation_to_text(p)
    path = tmp_path / "P"
    argv = ["presentation", "--kind", "gr", "--group", "Z2", "--n", "4", "--r", "2"]
    for before in (None, b"kept\n"):
        for cap in (10, *range(mid_r3, two_rows + 1)):
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
    # S3 4 2: every cap inside R1, R2 and the first two R3 rows leaves on stdout
    # exactly the relators under it, and a file target untouched
    g = make_group("S3")
    m = build_sandwich(g, 4, 2)
    batches = [len(words) for _, words in gr_relators(m)]
    full = presentation_to_text(build_gr_presentation(m))
    argv = ["presentation", "--kind", "gr", "--group", "S3", "--n", "4", "--r", "2"]
    for cap in range(1, sum(batches[:4]) + 1):
        code, out, err = run(capsys, *argv, "--max-relators", str(cap))
        assert code == 3 and f"cap {cap}" in err
        assert full.startswith(out) and out.count("\nrel ") == cap, cap
    path.write_bytes(b"kept\n")
    for cap in (batches[0], sum(batches[:2]) + 1, sum(batches[:4])):
        assert run(capsys, *argv, "--output", str(path), "--max-relators", str(cap))[:2] == (3, "")
        assert path.read_bytes() == b"kept\n" and os.listdir(tmp_path) == ["P"]


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


OUT_OF_MEMORY = "error: out of memory; lower --max-cosets or --max-entries\n"
OUT_OF_MEMORY_EXPORT = "error: out of memory; lower --max-relators or --max-entries\n"


def test_out_of_memory_exits_3(capsys, monkeypatch):
    # memory running out is a resource limit, not a mismatch: one line, no traceback
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(fpgroup, "todd_coxeter", exhausted)
    assert run(capsys, "verify", "--group", "Z2", "--n", "4", "--r", "2") == (3, "", OUT_OF_MEMORY)


def test_out_of_memory_export_leaves_no_file(capsys, monkeypatch, tmp_path):
    # memory runs out after the first relators were streamed to the temporary file
    real = presentation.gr_relators

    def exhausted(*args):
        relators = real(*args)
        yield next(relators)
        yield next(relators)
        raise MemoryError

    monkeypatch.setattr(presentation, "gr_relators", exhausted)
    path = tmp_path / "P"
    argv = ["presentation", "--kind", "gr", "--group", "Z2", "--n", "4", "--r", "2", "--output", str(path)]
    assert run(capsys, *argv) == (3, "", OUT_OF_MEMORY_EXPORT)
    assert os.listdir(tmp_path) == []


def test_out_of_memory_names_only_the_subcommand_caps(capsys, monkeypatch):
    # each line advises flags the subcommand takes, or none when it takes none
    def exhausted(*args, **kwargs):
        raise MemoryError

    for module, name in ((cli, "build_sandwich"), (reduction, "rising_point")):
        monkeypatch.setattr(module, name, exhausted)
    sandwich = ["sandwich", "--group", "Z2", "--n", "4", "--r", "2"]
    assert run(capsys, *sandwich) == (3, "", "error: out of memory; lower --max-entries\n")
    rising = ["rising-point", "--group", "Z2", "--r", "2", "--alpha", "1:0;2:0"]
    assert run(capsys, *rising) == (3, "", "error: out of memory\n")


# exit code and sha256 of stdout, stderr and ./out.txt (None: no file) per
# invocation, recorded before the command-table rewrite of the front end
EMPTY = hashlib.sha256(b"").hexdigest()
GOLDEN = {
    "sandwich --group Z2 --n 4 --r 2":
        (0, "fea5a9db3ba3baf852a6037efb86cc25b551d3da616075d14287b26fd211e791", EMPTY, None),
    "sandwich --group Z2 --n 4 --r 2 --json":
        (0, "49e87f07b0e15bfdd7fbeee45f0849a7fdc1b8bb7d4593fcf2da5157ac40e87a", EMPTY, None),
    "presentation --group Z2 --n 4 --r 2":
        (0, "fe13099ce5f7d078a28f252c0f2e8712d06f5f4ff4ac48ce690f31cf73a9acfa", EMPTY, None),
    "presentation --group Z2 --n 4 --r 2 --json":
        (0, "e251677c63982ed6bfd2f78643576acbc8ad2f8206dbe706a509da9e2a2aaaca", EMPTY, None),
    "presentation --kind quotient --group trivial --n 4 --r 2":
        (0, "25826bfc69de44158524716f502ce9bc944a69704570f25b032a425714307baa", EMPTY, None),
    "presentation --kind quotient --group S3 --n 4 --r 2 --json":
        (0, "2730974fa730bf6e26fef10e9bdad032397e60a19921a355425bce6be6699566", EMPTY, None),
    "presentation --kind lavers --group Z2 --n 4 --r 2":
        (0, "534f41a59950a9245d06bec7d61371815d0ae86ca0ae100f553b0760ebca79e4", EMPTY, None),
    "presentation --kind lavers --group S3 --n 4 --r 3 --json":
        (0, "b23be851933fdbb3bf5334877f855141dd1aa05fb98c97751170fd2500452a2b", EMPTY, None),
    "verify --group Z2 --n 4 --r 2":
        (0, "b9ab0b8af735d2903929823bc4d8e725961d6df5c8003006a242745b43005023", EMPTY, None),
    "verify --group S3 --n 4 --r 2 --json":
        (0, "817ce50b2af373e11b4f3bcb69087d862f981495c9c60c9cae7d6f46be69364b", EMPTY, None),
    "verify --group Z2 --n 4 --r 3":
        (0, "fd1e7a4ee10643abed17be69c03876edfa37cb1b70cb9d0d7cca6ada57a662e0", EMPTY, None),
    "verify --group Z2 --n 4 --r 3 --json":
        (0, "9ce7a7076e08b7768df9b06fe2185dfaddc98e1a46b09832538d8c408195343b", EMPTY, None),
    "verify --group Z3 --n 4 --r 4":
        (0, "651cfecdf66a91e7cb19218ea3fa3034281da69e7e5f2eaceb606662f329844b", EMPTY, None),
    "verify --group Z3 --n 4 --r 4 --json":
        (0, "522dd8d541e3f8efd939d50f666f1df058541eed3a04ff04433618e34ce23e6c", EMPTY, None),
    "rising-point --group Z2 --r 4 --alpha 3:0;2:1;4:0;1:0":
        (0, "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2", EMPTY, None),
    "rising-point --group Z2 --r 4 --alpha 3:0;2:1;4:0;1:0 --json":
        (0, "0851a1e77c78a974fea11e987b787c1204bde808cb230aeb59ce063eb3617d75", EMPTY, None),
    "decompose --group Z2 --r 4 --alpha 3:0;2:1;4:0;1:0":
        (0, "75d3d7ceca16b4134df3ca0f87cd0418be088ebcf523fed213acc21ea53a78af", EMPTY, None),
    "decompose --group Z2 --r 4 --alpha 3:0;2:1;4:0;1:0 --json":
        (0, "8373cdf197a5a935e7cb9d615fbbb1a02a7129bf2dbfff64755046f2503b736a", EMPTY, None),
    "connectivity --group S3 --n 4 --r 2":
        (0, "8b5f6072b7acf3e9b02743396ac749cd3d727c603a052cacde6440dba459f67c", EMPTY, None),
    "connectivity --group Z2 --n 5 --r 3 --json":
        (0, "e2d716579a9c77a9e938d97f39e5aa4206da8acdfd435308fcd845cc8e7316b8", EMPTY, None),
    "squares --group Z2 --n 3":
        (0, "38ec0efca789ea5921dce4c05990109d394f0da424b51cd227e70072548072e8", EMPTY, None),
    "squares --group trivial --n 4 --json":
        (0, "b36d80de82b8ff257c9f1c11dd45c3aa3fb287007d0eef610b23e9f4583e6927", EMPTY, None),
    "occurrences --group Z2 --n 4 --r 2 --alpha 1:1;2:1":
        (0, "b1535eec4bbe04c41b591e5f3ab647fe47899c1d11c0c7ad77da1568735a3f04", EMPTY, None),
    "occurrences --group S3 --n 4 --r 2 --alpha 1:0;2:0 --json":
        (0, "8a54db24b8b9e263c3c45d31a9e7b1ef5ef8d972b854fad66fad4e2e5a418cad", EMPTY, None),
    "verify --group Z2 --n 4 --r 2 --max-relators 10":
        (3, EMPTY, "9862a54ec7b288b7a58a4018c58cfbc1635ac26edf3b8025a547f7257594e424", None),
    # cap 4: over <h> the run defines 5 cosets (index 4, |<h>| = 2) and decides at cap 5
    "verify --group Z2 --n 4 --r 2 --max-cosets 4":
        (3, EMPTY, "2824a9790829942a9807c172396283eadc1a601cd574388356ca0b693f5322f0", None),
    "verify --group Z2 --n 4 --r 2 --max-entries 3 --json":
        (3, EMPTY, "e8c51f01aad4c2b6b8fef26bc52ef4ab5d992d9af3f6a8936036a55f4a06a3c2", None),
    "verify --group Q8 --n 4 --r 2":
        (2, EMPTY, "c88634fde197b263ed26df003796dafb38446266f088c693e1e73d80c0f5a854", None),
    "verify --group Z2 --n 2 --r 1":
        (2, EMPTY, "22c6b1509e5ce342d3258b7619321808cf7d48d77d16bca103c1164279da80f9", None),
    "verify --group Z2 --n 4 --r 5":
        (2, EMPTY, "743abf10226245f170b17c32f390f1c1ab6f25ab8e640eab35d6d6a7cd1729f8", None),
    "verify --group Z2 --n 4":
        (2, EMPTY, "bd2aabe1362302dde91bfd1d2f79d40338a931a74af200441c226e80690cd8c2", None),
    "rising-point --group Z2 --r 3 --alpha 1:0;2:0":
        (2, EMPTY, "966180ccd3d540b9f89b84fa182ca8f276f863cc3ad0042817f14b7d0f37a535", None),
    "decompose --group Z2 --r 3 --alpha 1:0;2:0;3:0":
        (2, EMPTY, "5a1f5a2433318afdfce1edfd0c4802e7ab998e1d29f33ef60246e46c371e84ff", None),
    "occurrences --group Z2 --n 4 --r 2 --alpha bogus":
        (2, EMPTY, "8f46dcf23d0d74ca7cbaf66ff95748c22224024326e7765747df8a745faa35cd", None),
    "occurrences --group Z2 --n 4 --r 2 --alpha bogus --max-entries 3":
        (3, EMPTY, "e8c51f01aad4c2b6b8fef26bc52ef4ab5d992d9af3f6a8936036a55f4a06a3c2", None),
    "connectivity --group Z2 --n 4 --r 2 --max-entries 10":
        (3, EMPTY, "8f0be08d005abcfab1e99420bfa780cd6080a928b8d14c461a03813b6452a3af", None),
    "squares --group Z2 --n 3 --max-entries 10":
        (3, EMPTY, "8f0be08d005abcfab1e99420bfa780cd6080a928b8d14c461a03813b6452a3af", None),
    "sandwich --group Z2 --n 4 --r 2 --max-entries 10 --output out.txt":
        (3, EMPTY, "8f0be08d005abcfab1e99420bfa780cd6080a928b8d14c461a03813b6452a3af", None),
    "presentation --kind lavers --group Z3 --n 9 --r 2 --max-entries 10":
        (0, "5efbe90e1008b81aa2a8ace92af74a0aa06aeb426e393d8f7d74216285e8dba9", EMPTY, None),
    "presentation --group Z2 --n 4 --r 2 --max-relators 10":
        (3,
         "1af41c5497a05f50607d36990100494f52b52c368344769f1ea529cb3592b911",
         "9862a54ec7b288b7a58a4018c58cfbc1635ac26edf3b8025a547f7257594e424",
         None),
    "presentation --kind gr --group Z2 --n 4 --r 2 --output out.txt":
        (0, EMPTY, EMPTY, "fe13099ce5f7d078a28f252c0f2e8712d06f5f4ff4ac48ce690f31cf73a9acfa"),
    "sandwich --group Z2 --n 4 --r 2 --output missing/out.txt":
        (2, EMPTY, "83efe36c1d6581a5bc366b62cd7701c0ede2c33fbda3b3947b983e3c328c3aa8", None),
    # the Lavers builder's text, recorded before it numbered generators by arithmetic
    "presentation --kind lavers --group S3 --n 4 --r 4":
        (0, "7d7e5d205e7d77f48cee902d92e8f93ab231948dafa25aaf1a80869cbef8ca23", EMPTY, None),
    "presentation --kind lavers --group Z3 --n 3 --r 3":
        (0, "ebe05487152ae688eee4ff3381ebb4bff36d54da1c0ed6e23e0413b86f09a595", EMPTY, None),
    # a negative cap is a usage error that names it
    "verify --group Z2 --n 4 --r 2 --max-cosets -1":
        (2, EMPTY, "aca78631237bdb7ce1f2963540b321e565d7b56287b86f0563deb5cfb7069b45", None),
}


def _sha(data):
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def golden_run(case):
    """(exit code, sha256 of stdout, of stderr, of ./out.txt or None) of one in-process run.

    Where argparse exits, stderr is kept from its error line on: the usage
    text above it lists the subcommand's flags.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(shlex.split(case))
        except SystemExit as exc:
            code = exc.code
            text = err.getvalue()
            err = io.StringIO(text[text.index("\ngact ") + 1:])
    file_sha = _sha(open("out.txt", "rb").read()) if os.path.exists("out.txt") else None
    return code, _sha(out.getvalue()), _sha(err.getvalue()), file_sha


@pytest.mark.parametrize("case", list(GOLDEN))
def test_golden_invocations(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert golden_run(case) == GOLDEN[case]


def test_unread_cap_flag_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["squares", "--group", "Z2", "--n", "3", "--max-cosets", "5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # reported with the subcommand's own usage, which lists the flags it takes
    assert err.startswith("usage: gact squares [-h] --group GROUP --n N")
    assert "gact squares: error: unrecognized arguments: --max-cosets 5" in err
    # verify reads all three caps and still takes each of them
    caps = ["--max-entries", "1000", "--max-relators", "1000", "--max-cosets", "1000"]
    code, out, _ = run(capsys, "verify", "--group", "Z2", "--n", "4", "--r", "2", *caps)
    assert (code, out) == (0, "order=8 expected=8 OK\n")


def test_caps_are_read_from_their_flags_alone(capsys, monkeypatch):
    # variables named like the caps change neither the output nor the exit code
    argv = ["verify", "--group", "Z2", "--n", "4", "--r", "2"]
    want = run(capsys, *argv)
    monkeypatch.setenv("GACT_MAX_ENTRIES", "3")
    monkeypatch.setenv("GACT_MAX_COSETS", "many")
    assert run(capsys, *argv) == want == (0, "order=8 expected=8 OK\n", "")


def test_subcommand_help_lists_its_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rising-point", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "--alpha" in text and "--max-" not in text and "--n " not in text


# exit code and sha256 of stdout and stderr at 80 columns, recorded while every
# subparser was given its flags: only the one a run names gets them now
HELP_PINS = {
    "--help": (0, "5079422947f67091786b4ce1c16aeadb7598ac7a72e67974e04bfe5429e713b7", EMPTY),
    "sandwich --help": (0, "260c8b54f7eee36214544bc4961d0a6c3f9feb904e6bd9e22c5ad79f6d0840d6", EMPTY),
    "presentation --help": (0, "5e13d77c4a2c7844424a5b6141f2e417289b03db25755ae849b6fcc64996ac6c", EMPTY),
    "verify --help": (0, "94d1b45be70e3ba78b02963014af359cede585de43a1418016123175854dec5f", EMPTY),
    "rising-point --help": (0, "2b50c17c330714ed1a355ac17ed4df369a01247b7c7bbcac1ccab0e4ece92831", EMPTY),
    "decompose --help": (0, "f1152d2237b4b3df41e3d977d919b335fc0d7666fa00dcd51763d322640baef4", EMPTY),
    "connectivity --help": (0, "1c5b4686ab0ae675c8f157a6537d3dff58e2bf4e8a885116c9fdec655798ef36", EMPTY),
    "squares --help": (0, "a016e30d72a17f08c17d25ffe559e9aae45c951713ecd013cbc6eda21a5bef34", EMPTY),
    "occurrences --help": (0, "30e262b8f03736d565b3600e13028fe83c90d4925b7ad3fa5f270216630bc1a2", EMPTY),
    "sandwich --group Z2 --n 4 --r 2 --bogus":
        (2, EMPTY, "343b581a2ed7631b76c8a737fce3210168b402d0e05512a921546744f571c60c"),
    "presentation --group Z2 --n 4 --r 2 --bogus":
        (2, EMPTY, "fe1f8a9bcc3c00117edfc668f1fbea0b325c70d8728cb3ab0a8f360c654e3c20"),
    "verify --group Z2 --n 4 --r 2 --bogus":
        (2, EMPTY, "ad37cf59fca887bf4bac2a2395d78e9595692b1fda12a7af66d94bae707ab112"),
    "rising-point --group Z2 --r 2 --alpha 1:0;2:0 --bogus":
        (2, EMPTY, "d12bc11be413f47edebf6aaf85d535400f7f8c1e5c10a0731a463420f2221f10"),
    "decompose --group Z2 --r 2 --alpha 1:0;2:0 --bogus":
        (2, EMPTY, "a18498d47e9cb64fa7bd11e73d768ac4e5e4c3f3eece6ce50f66d82635ca42af"),
    "connectivity --group Z2 --n 4 --r 2 --bogus":
        (2, EMPTY, "00938fe94e22afea78714c5f4f05da55695e0e680288945563e2bd4d5bb402ba"),
    "squares --group Z2 --n 3 --bogus":
        (2, EMPTY, "a3e09f9f3ac25328dc03419039e14091669d3f82b99fd263fd7c109e8aebbeec"),
    "occurrences --group Z2 --n 4 --r 2 --alpha 1:0;2:0 --bogus":
        (2, EMPTY, "137abc0d484f8b4fc200adf592eec9b9794712ccb8139fbd27f93c0a32a316f0"),
    # an unknown flag ahead of the subcommand is reported with its usage too
    "--bogus verify --group Z2 --n 4 --r 2":
        (2, EMPTY, "ad37cf59fca887bf4bac2a2395d78e9595692b1fda12a7af66d94bae707ab112"),
}


@pytest.mark.parametrize("case", list(HELP_PINS))
def test_help_and_unknown_flag_texts_pinned(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps at the terminal's width
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(case.split())
    assert (exc.value.code, _sha(out.getvalue()), _sha(err.getvalue())) == HELP_PINS[case]



def test_commands_read_the_id_grid_alone(capsys, monkeypatch, tmp_path):
    # every matrix a command builds is read through its value ids; the
    # entries view is never made
    built = []

    def capture(*args):
        built.append(build_sandwich(*args))
        return built[-1]

    for module in (cli, biorder, rees):
        monkeypatch.setattr(module, "build_sandwich", capture)
    monkeypatch.chdir(tmp_path)
    common = ["--group", "Z2", "--n", "5"]
    for argv in (
        ["verify", *common, "--r", "3"],
        ["verify", *common, "--r", "4"],
        ["presentation", *common, "--r", "3", "--output", "gr.txt"],
        ["presentation", *common, "--r", "3", "--json"],
        ["presentation", "--kind", "quotient", *common, "--r", "3"],
        ["sandwich", *common, "--r", "3"],
        ["sandwich", *common, "--r", "3", "--json"],
        ["connectivity", *common, "--r", "3"],
        ["occurrences", *common, "--r", "3", "--alpha", "2:0;3:0;1:1"],
        ["squares", "--group", "Z2", "--n", "4"],
    ):
        before = len(built)
        assert run(capsys, *argv)[0] == 0, argv
        assert len(built) > before, argv
        assert all("entries" not in vars(m) for m in built), argv


def test_verify_and_text_exports_leave_thetas_unbuilt(capsys, monkeypatch, tmp_path):
    # the sandwich is built from the partitions' transversals; below rank n-1
    # verify and every text export run without one transversal map per row
    built = []

    def capture(*args):
        built.append(build_sandwich(*args))
        return built[-1]

    for module in (cli, rees):
        monkeypatch.setattr(module, "build_sandwich", capture)
    monkeypatch.chdir(tmp_path)
    for spec, n, r in (("Z2", 5, 3), ("S3", 4, 2), ("trivial", 6, 3), ("Z3", 4, 1)):
        report = run_verify(make_group(spec), n, r, DEFAULT_CAPS)
        assert report["ok"] and "thetas" not in vars(built[-1]), (spec, n, r)
    common = ["--group", "Z2", "--n", "5", "--r", "3"]
    for argv in (
        ["presentation", *common, "--output", "gr.txt"],
        ["presentation", *common],
        ["presentation", "--kind", "quotient", *common],
        ["presentation", "--kind", "quotient", *common, "--output", "q.txt"],
        ["sandwich", *common],
        ["sandwich", *common, "--output", "sw.txt"],
    ):
        before = len(built)
        assert run(capsys, *argv)[0] == 0, argv
        assert len(built) == before + 1 and "thetas" not in vars(built[-1]), argv


def test_verify_sandwich_and_gr_exports_leave_kernels_unbuilt(capsys, monkeypatch, tmp_path):
    # the fill iterates the set partitions itself and the row count is read
    # off districts: verify on every route and the sandwich and gr exports,
    # text and JSON, make no row index
    built = []

    def capture(*args):
        built.append(build_sandwich(*args))
        return built[-1]

    for module in (cli, rees):
        monkeypatch.setattr(module, "build_sandwich", capture)
    monkeypatch.chdir(tmp_path)
    for spec, n, r in (("Z2", 5, 3), ("Z2", 6, 3), ("S3", 4, 3), ("Z3", 4, 1)):
        report = run_verify(make_group(spec), n, r, DEFAULT_CAPS)
        assert report["ok"] and all("kernels" not in vars(m) for m in built), (spec, n, r)
    common = ["--group", "Z2", "--n", "5", "--r", "3"]
    for argv in (
        ["sandwich", *common],
        ["sandwich", *common, "--json"],
        ["sandwich", *common, "--output", "sw.txt"],
        ["presentation", *common],
        ["presentation", *common, "--json"],
        ["presentation", *common, "--output", "gr.txt"],
    ):
        before = len(built)
        assert run(capsys, *argv)[0] == 0, argv
        assert len(built) == before + 1 and "kernels" not in vars(built[-1]), argv
