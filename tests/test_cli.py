import json
import pathlib
import xml.etree.ElementTree as ET

import pytest

from twocenter import cli
from twocenter.cli import main

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_gen_deterministic(capsys):
    code1, out1, _ = _run(capsys, "gen", "--seed", "1")
    code2, out2, _ = _run(capsys, "gen", "--seed", "1")
    assert code1 == code2 == 0
    assert out1 == out2
    obj = json.loads(out1)
    assert len(obj["polygon"]) == 12 and len(obj["points"]) == 6


def test_gen_family_and_sizes(capsys):
    code, out, _ = _run(capsys, "gen", "--family", "comb", "--n", "16",
                        "--m", "3", "--seed", "5")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["polygon"]) == 16 and len(obj["points"]) == 3


def test_gen_rejects_unknown_family(capsys):
    code, out, err = _run(capsys, "gen", "--family", "moons")
    assert code == 1 and out == "" and "error" in err


def test_solve_square(capsys):
    code, out, err = _run(capsys, "solve", str(FIXTURES / "sq4_qsym.json"))
    assert code == 0
    rec = json.loads(out)
    assert abs(rec["radius"] - 1.0) <= 1e-9
    assert len(rec["centers"]) == 2 and len(rec["pair"]) == 2
    assert rec["assignment"] and set(rec["assignment"]) <= {1, 2}
    assert isinstance(rec["wall_time_ms"], int) and rec["wall_time_ms"] >= 0
    assert isinstance(rec["branch_stats"], dict)


def test_solve_arms(capsys):
    code, out, _ = _run(capsys, "solve", str(FIXTURES / "l6_arms.json"))
    assert code == 0
    assert abs(json.loads(out)["radius"] - 0.25) <= 1e-9


def test_solve_oracle_agreement(capsys):
    code, out, err = _run(capsys, "solve", "--oracle",
                          str(FIXTURES / "sq4_qsym.json"))
    assert code == 0
    assert "oracle agreement" in err


def test_solve_oracle_skipped_past_its_cap(capsys, tmp_path):
    # 13 distinct points, one more than the oracle enumerates; the repeat
    # of (1, 1) is not counted
    pts = [[1 + k % 4 * 2, 1 + k // 4 * 2] for k in range(13)] + [[1, 1]]
    inst = tmp_path / "grid13.json"
    inst.write_text(json.dumps({"polygon": [[0, 0], [10, 0], [10, 10], [0, 10]],
                                "points": pts}))
    code, out, err = _run(capsys, "solve", "--oracle", str(inst))
    assert code == 0 and "oracle skipped" in err
    assert len(json.loads(out)["assignment"]) == 14


def test_solve_deterministic_modulo_time(capsys):
    path = str(FIXTURES / "rnd_seed7.json")
    _, out1, _ = _run(capsys, "solve", path)
    _, out2, _ = _run(capsys, "solve", path)
    a, b = json.loads(out1), json.loads(out2)
    a.pop("wall_time_ms"), b.pop("wall_time_ms")
    assert a == b


def test_solve_invalid_polygon(capsys):
    code, out, err = _run(capsys, "solve", str(FIXTURES / "bowtie.json"))
    assert code == 1 and out == "" and "error" in err


def test_solve_repeated_vertex(capsys, tmp_path):
    # the ring passes (2, 4) twice; triangulating it would find no ear
    bad = tmp_path / "spike.json"
    bad.write_text(json.dumps({
        "polygon": [[0, 0], [4, 0], [4, 4], [2, 4], [2, 6], [2, 4], [0, 4]],
        "points": [[1, 1], [3, 3], [1, 3]]}))
    code, out, err = _run(capsys, "solve", str(bad))
    assert code == 1 and out == ""
    assert err.startswith("error: vertex 3 coincides with vertex 5")
    assert "Traceback" not in err


def test_solve_missing_file(capsys):
    code, _, err = _run(capsys, "solve", str(FIXTURES / "nope.json"))
    assert code == 1 and "error" in err


def test_solve_point_outside(capsys, tmp_path):
    bad = tmp_path / "outside.json"
    bad.write_text(json.dumps({"polygon": [[0, 0], [4, 0], [4, 4], [0, 4]],
                               "points": [[2, 2], [9, 9]]}))
    code, out, err = _run(capsys, "solve", str(bad))
    assert code == 2 and out == "" and "outside" in err


@pytest.mark.parametrize("exc", cli.SOLVER_ERRORS,
                         ids=lambda e: e.__name__)
def test_solve_solver_error_exit_code(capsys, monkeypatch, exc):
    def failing(poly, points):
        raise exc("stitching failed")

    monkeypatch.setattr(cli, "two_center", failing)
    code, out, err = _run(capsys, "solve", str(FIXTURES / "sq4_qsym.json"))
    assert code == 4 and out == ""
    assert "solver could not certify" in err and exc.__name__ in err


def test_solve_out_and_svg(capsys, tmp_path):
    rec_path = tmp_path / "sol.json"
    svg_path = tmp_path / "sol.svg"
    code, out, _ = _run(capsys, "solve", str(FIXTURES / "sq4_qsym.json"),
                        "--out", str(rec_path), "--svg", str(svg_path))
    assert code == 0 and out == ""
    rec = json.loads(rec_path.read_text())
    assert abs(rec["radius"] - 1.0) <= 1e-9
    ET.fromstring(svg_path.read_text())


def test_render_instance(capsys):
    code, out, _ = _run(capsys, "render", str(FIXTURES / "l6_arms.json"))
    assert code == 0
    ET.fromstring(out)


def test_render_with_solution(capsys, tmp_path):
    rec_path = tmp_path / "sol.json"
    _run(capsys, "solve", str(FIXTURES / "l6_arms.json"), "--out", str(rec_path))
    code, out, _ = _run(capsys, "render", str(FIXTURES / "l6_arms.json"),
                        str(rec_path), "--out", str(tmp_path / "pic.svg"))
    assert code == 0 and out == ""
    doc = (tmp_path / "pic.svg").read_text()
    assert "#c03028" in doc


def test_render_rejects_bad_solution(capsys, tmp_path):
    rec_path = tmp_path / "sol.json"
    rec_path.write_text(json.dumps({"radius": 0.01,
                                    "centers": [[1, 1], [3, 3]],
                                    "assignment": [1, 1, 2, 2]}))
    code, _, err = _run(capsys, "render", str(FIXTURES / "sq4_qsym.json"),
                        str(rec_path))
    assert code == 1 and "error" in err


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["prove"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv", [["solve"], ["gen", "--n", "x"], ["gen", "--bogus"]])
def test_usage_errors_exit_1(capsys, argv):
    """A usage error is an invalid parameter (1), not a point outside (2)."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert "--oracle" in capsys.readouterr().out
