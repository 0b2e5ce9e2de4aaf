import json

import pytest

from fracseq.cli import run
from fracseq.serialize import json_dumps


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, obj):
    path.write_text(json_dumps(obj) + "\n", encoding="utf-8")


def test_coeffs_golden_exact(capsys):
    code, out, _ = invoke(capsys, "coeffs", "--order", "1/2", "--n", "5", "--mode", "exact")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "order": "1/2",
        "mode": "exact-rational",
        "entries": ["1", "-1/2", "-1/8", "-1/16", "-5/128"],
    }


def test_coeffs_csv_and_table_formats(capsys):
    code, out, _ = invoke(capsys, "coeffs", "--order", "0.5", "--n", "3", "--format", "csv")
    assert code == 0
    assert [float(v) for v in out.split()] == [1.0, -0.5, -0.125]
    code, out, _ = invoke(capsys, "coeffs", "--order", "1/2", "--n", "3",
                          "--mode", "exact", "--format", "table")
    assert code == 0
    assert "-1/8" in out


def test_transform_order_zero_echoes(tmp_path, capsys):
    seq = tmp_path / "x.json"
    write_json(seq, {"entries": [1.0, 2.0, 3.0]})
    code, out, _ = invoke(capsys, "transform", "--order", "0", "--in", str(seq))
    assert code == 0
    assert json.loads(out) == {"entries": [1.0, 2.0, 3.0]}


def test_inverse_undoes_transform(tmp_path, capsys):
    seq = tmp_path / "x.json"
    write_json(seq, {"entries": [0.5, -1.5, 2.0]})
    code, out, _ = invoke(capsys, "transform", "--order", "2/3", "--in", str(seq))
    mid = tmp_path / "y.json"
    mid.write_text(out, encoding="utf-8")
    code, out, _ = invoke(capsys, "inverse", "--order", "2/3", "--in", str(mid))
    back = json.loads(out)["entries"]
    assert back == pytest.approx([0.5, -1.5, 2.0], abs=1e-13)


def test_sequence_csv_input(tmp_path, capsys):
    seq = tmp_path / "x.csv"
    seq.write_text("1.0\n-2.0\n", encoding="utf-8")
    code, out, _ = invoke(capsys, "betadual", "--order", "1/2", "--in", str(seq))
    assert code == 0
    entries = json.loads(out)["entries"]
    assert len(entries) == 2


def test_norm_and_dualnorm(tmp_path, capsys):
    seq = tmp_path / "e0.json"
    write_json(seq, {"entries": [1.0]})
    code, out, _ = invoke(capsys, "norm", "--order", "1", "--p", "1", "--in", str(seq))
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 2.0
    assert payload["report"]["tail_flagged"] is False

    e1 = tmp_path / "e1.json"
    write_json(e1, {"entries": [0.0, 1.0]})
    code, out, _ = invoke(capsys, "dualnorm", "--order", "1/2", "--p", "1", "--in", str(e1))
    assert json.loads(out)["value"] == 1.0


def test_hat_and_opnorms(tmp_path, capsys):
    matrix = tmp_path / "m.json"
    write_json(matrix, {"kind": "generator", "rule": "identity", "params": {}})
    code, out, _ = invoke(capsys, "hat", "--order", "1/2", "--matrix", str(matrix),
                          "--rows", "3", "--cols", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][2] == pytest.approx([0.375, 0.5, 1.0])
    assert payload["exactness"] == "exact"

    code, out, _ = invoke(capsys, "opnorm-linf", "--order", "0", "--p", "2",
                          "--matrix", str(matrix), "--rows", "4", "--cols", "4")
    assert json.loads(out)["value"] == 1.0

    code, out, _ = invoke(capsys, "opnorm-l1", "--order", "0", "--p", "inf",
                          "--matrix", str(matrix), "--rows", "3", "--cols", "3")
    payload = json.loads(out)
    assert payload["value"] == 3.0
    assert payload["certificate"] == [0, 1, 2]


def test_mnc_c0_finite_rows_compact(tmp_path, capsys):
    matrix = tmp_path / "fr.json"
    write_json(matrix, {"kind": "generator", "rule": "finite-rows",
                        "params": {"rows": [[1.0, 2.0], [0.5]]}})
    code, out, _ = invoke(capsys, "mnc-c0", "--order", "1/2", "--p", "2",
                          "--matrix", str(matrix), "--r-grid", "0:64:8",
                          "--rows", "64", "--cols", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "compact"
    assert payload["grid"]["r_values"] == [0, 8, 16, 24, 32, 40, 48, 56]


def test_report_formats(tmp_path, capsys):
    matrix = tmp_path / "fr.json"
    write_json(matrix, {"kind": "generator", "rule": "finite-rows",
                        "params": {"rows": [[1.0]]}})
    base = ["mnc-c0", "--order", "1/2", "--p", "2", "--matrix", str(matrix),
            "--r-grid", "0:16:2", "--rows", "16", "--cols", "4"]
    code, table, _ = invoke(capsys, *base, "--format", "table")
    assert code == 0 and "verdict     compact" in table
    code, csv_text, _ = invoke(capsys, *base, "--format", "csv")
    assert code == 0 and csv_text.splitlines()[0].startswith("0,")


def test_sargent_and_linfdom_commands(tmp_path, capsys):
    matrix = tmp_path / "const.json"
    write_json(matrix, {"kind": "dense-window", "rows": [[1.0, 2.0]] * 16,
                        "row_bound": None, "column_decay": True})
    code, out, _ = invoke(capsys, "sargent", "--order", "0", "--matrix", str(matrix),
                          "--m-grid", "1:13:2", "--rows", "16", "--cols", "4")
    assert code == 0
    assert json.loads(out)["verdict"] == "compact"

    code, out, _ = invoke(capsys, "crit-linfdom", "--order", "0", "--matrix", str(matrix),
                          "--r-grid", "0:16:2", "--rows", "16", "--cols", "4")
    assert code == 0
    assert json.loads(out)["criterion"] == "LINF-DOMAIN"


def test_crit_linf_and_mnc_variants(tmp_path, capsys):
    matrix = tmp_path / "band.json"
    write_json(matrix, {"kind": "banded", "band": {"offsets": [0], "diagonals": [1.0]},
                        "row_bound": None})
    code, out, _ = invoke(capsys, "crit-linf", "--order", "0", "--p", "2",
                          "--matrix", str(matrix), "--r-grid", "0:24:3",
                          "--rows", "24", "--cols", "24")
    assert code == 0
    assert json.loads(out)["verdict"] == "noncompact"

    code, out, _ = invoke(capsys, "mnc-c", "--order", "1/2", "--p", "2",
                          "--matrix", str(matrix), "--r-grid", "0:24:3",
                          "--rows", "32", "--cols", "16")
    assert code == 0
    payload = json.loads(out)
    assert payload["upper"] == 2 * payload["lower"]

    code, out, _ = invoke(capsys, "mnc-l1", "--order", "1/2", "--p", "2",
                          "--matrix", str(matrix), "--r-grid", "0:10:2",
                          "--rows", "12", "--cols", "12", "--method", "greedy")
    assert code == 0
    payload = json.loads(out)
    assert payload["upper"] == 4 * payload["lower"]


def test_exit_code_2_on_bad_input(tmp_path, capsys):
    code, _, err = invoke(capsys, "coeffs", "--order", "-2", "--n", "5")
    assert code == 2
    assert "order" in err

    code, _, err = invoke(capsys, "coeffs", "--order", "x/y", "--n", "5")
    assert code == 2

    seq = tmp_path / "bad.json"
    seq.write_text('{"entries": "nope"}', encoding="utf-8")
    code, _, err = invoke(capsys, "transform", "--order", "1/2", "--in", str(seq))
    assert code == 2
    assert "entries" in err

    matrix = tmp_path / "bad_matrix.json"
    matrix.write_text('{"kind": "mystery"}', encoding="utf-8")
    code, _, err = invoke(capsys, "hat", "--order", "1/2", "--matrix", str(matrix))
    assert code == 2
    assert "kind" in err

    code, _, err = invoke(capsys, "mnc-c0", "--order", "1/2", "--p", "2",
                          "--matrix", str(matrix), "--r-grid", "0:8")
    assert code == 2


@pytest.mark.parametrize("payload, path", [
    ({"kind": "banded", "band": {"offsets": [None], "diagonals": [1.0]}}, "matrix.band.offsets[0]"),
    ({"kind": "banded", "band": {"offsets": [0, 1], "diagonals": [1.0, [2.0, None]]}},
     "matrix.band.diagonals[1][1]"),
    ({"kind": "banded", "band": {"offsets": [0], "diagonals": ["1"]}}, "matrix.band.diagonals[0]"),
    ({"kind": "dense-window", "rows": [[None]]}, "matrix.rows[0][0]"),
    ({"kind": "dense-window", "rows": [[1.0]], "row_bound": "1"}, "matrix.row_bound"),
    ({"kind": "generator", "rule": "diagonal", "params": {"ratio": None}}, "matrix.params.ratio"),
    ({"kind": "generator", "rule": "finite-rows", "params": {"rows": [[1.0, None]]}},
     "matrix.params.rows[0][1]"),
])
def test_malformed_matrix_payload_exits_2(tmp_path, capsys, payload, path):
    matrix = tmp_path / "m.json"
    write_json(matrix, payload)
    code, _, err = invoke(capsys, "hat", "--order", "1/2", "--matrix", str(matrix),
                          "--rows", "3", "--cols", "3")
    assert code == 2
    assert path in err
    assert "Traceback" not in err


def test_malformed_sequence_entry_exits_2(tmp_path, capsys):
    seq = tmp_path / "x.json"
    write_json(seq, {"entries": [1, None]})
    code, _, err = invoke(capsys, "transform", "--order", "1/2", "--in", str(seq))
    assert code == 2
    assert "sequence.entries[1]" in err
    assert "Traceback" not in err


def test_zero_denominator_p_exits_2(tmp_path, capsys):
    seq = tmp_path / "x.json"
    write_json(seq, {"entries": [1.0]})
    code, _, err = invoke(capsys, "norm", "--order", "1/2", "--p", "1/0", "--in", str(seq))
    assert code == 2
    assert err.startswith("error: p:")
    assert "Traceback" not in err


def test_norm_overflow_exits_2(tmp_path, capsys):
    seq = tmp_path / "big.json"
    write_json(seq, {"entries": [1e308, 1e308]})
    code, out, err = invoke(capsys, "norm", "--order", "1/2", "--in", str(seq))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_banded_sum_overflow_exits_2(tmp_path, capsys):
    matrix = tmp_path / "band.json"
    write_json(matrix, {"kind": "banded", "band": {"offsets": [0, 0], "diagonals": [1e308, 1e308]}})
    code, _, err = invoke(capsys, "hat", "--order", "1/2", "--matrix", str(matrix),
                          "--rows", "3", "--cols", "3")
    assert code == 2
    assert err == "error: row 0 entry 0 is not a finite number: inf\n"


def test_json_output_never_carries_non_finite_floats(capsys):
    code, out, err = invoke(capsys, "coeffs", "--order", "1e308", "--n", "4")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "inf" in err and err.count("\n") == 1
    assert "Traceback" not in err
    code, out, _ = invoke(capsys, "coeffs", "--order", "1e308", "--n", "4", "--format", "csv")
    assert code == 0
    assert out.split() == ["1", "-1e+308", "inf", "-inf"]


def test_exit_code_3_on_cost_guard(tmp_path, capsys, monkeypatch):
    matrix = tmp_path / "ident.json"
    write_json(matrix, {"kind": "generator", "rule": "identity", "params": {}})
    code, _, err = invoke(capsys, "opnorm-l1", "--order", "0", "--matrix", str(matrix),
                          "--rows", "23", "--cols", "23")
    assert code == 3
    assert "FRACSEQ_MAX_SUBSET_ROWS" in err

    monkeypatch.setenv("FRACSEQ_MAX_SUBSET_ROWS", "4")
    code, _, err = invoke(capsys, "opnorm-l1", "--order", "0", "--matrix", str(matrix),
                          "--rows", "5", "--cols", "5")
    assert code == 3


def test_deterministic_output_bytes(tmp_path):
    matrix = tmp_path / "m.json"
    write_json(matrix, {"kind": "dense-window",
                        "rows": [[0.1, 0.2, 0.30000000000000004], [1 / 3]],
                        "row_bound": 2, "column_decay": True})
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = ["mnc-c0", "--order", "2/3", "--p", "1.5", "--matrix", str(matrix),
            "--r-grid", "0:8:1", "--rows", "8", "--cols", "4"]
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_emitted_sequences_reparse(tmp_path, capsys):
    seq = tmp_path / "x.json"
    write_json(seq, {"entries": [0.1, -0.7, 0.30000000000000004]})
    code, out, _ = invoke(capsys, "transform", "--order", "1/2", "--in", str(seq))
    assert code == 0
    emitted = tmp_path / "y.json"
    emitted.write_text(out, encoding="utf-8")
    code, out2, _ = invoke(capsys, "inverse", "--order", "1/2", "--in", str(emitted))
    assert code == 0
    back = json.loads(out2)["entries"]
    assert back == pytest.approx([0.1, -0.7, 0.30000000000000004], abs=1e-15)


def test_verify_command(tmp_path, capsys):
    matrix = tmp_path / "band.json"
    write_json(matrix, {"kind": "banded",
                        "band": {"offsets": [-1, 0, 1],
                                 "diagonals": [0.5, 1.0, -0.25]},
                        "row_bound": None})
    code, out, _ = invoke(capsys, "verify", "--order", "2/3", "--matrix", str(matrix),
                          "--rows", "12", "--cols", "12", "--trials", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    names = [c["name"] for c in payload["checks"]]
    assert names == ["convolution-inverse", "round-trip", "duality",
                     "master-consistency", "opnorm-grid-agreement"]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
