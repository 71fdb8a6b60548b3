"""Tests for the command-line interface: state input, JSON reports, CSV
sweeps, simulation records, the reconstruction pipeline and exit codes."""

import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from biphoton import cli, measurement, qutrit


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# quantify

def test_quantify_maximally_entangled_qutrit(capsys):
    doc = run_json(capsys, "quantify", "--kind", "qutrit",
                   "--amplitudes", "[0,1,0]")
    ent = doc["entanglement"]
    assert ent["schmidt_k"] == pytest.approx(2.0, abs=1e-12)
    assert ent["concurrence"] == pytest.approx(1.0, abs=1e-12)
    assert ent["entropy"] == pytest.approx(1.0, abs=1e-12)
    assert doc["polarization"]["degree_p"] == pytest.approx(0.0, abs=1e-12)


def test_quantify_product_qutrit(capsys):
    doc = run_json(capsys, "quantify", "--kind", "qutrit",
                   "--amplitudes", "[1,0,0]")
    assert doc["entanglement"]["schmidt_k"] == pytest.approx(1.0, abs=1e-12)
    assert doc["polarization"]["degree_p"] == pytest.approx(1.0, abs=1e-12)


def test_quantify_product_qutrit_prints_positive_zero_entropy(capsys):
    code, out, err = run_cli(capsys, "quantify", "--amplitudes", "[1,0,0]")
    assert code == 0, err
    assert '"entropy":0,' in out


def test_quantify_product_qutrit_prints_positive_zero_polarization(capsys):
    code, out, err = run_cli(capsys, "quantify", "--amplitudes", "[1,0,0]")
    assert code == 0, err
    assert '"polarization":{"degree_p":1,"xi":[0,0,1]}' in out


def test_quantify_maximal_ququart(capsys):
    amp = 1 / math.sqrt(2)
    doc = run_json(capsys, "quantify", "--kind", "ququart",
                   "--amplitudes", f"[{amp},0,0,{amp}]")
    ent = doc["entanglement"]
    assert ent["schmidt_k"] == pytest.approx(4.0, abs=1e-10)
    assert ent["i_concurrence"] == pytest.approx(math.sqrt(1.5), abs=1e-10)


def test_quantify_family_input(capsys):
    doc = run_json(capsys, "quantify", "--kind", "ququart",
                   "--family", "psi_phi", "--param", str(math.pi / 4))
    assert doc["entanglement"]["schmidt_k"] == pytest.approx(4.0, abs=1e-10)


def test_quantify_complex_amplitudes(capsys):
    doc = run_json(capsys, "quantify", "--kind", "qutrit",
                   "--amplitudes", '[{"re":0,"im":1},0,0]')
    assert doc["amplitudes"][0]["im"] == pytest.approx(1.0)


def test_quantify_dump_density(capsys):
    doc = run_json(capsys, "quantify", "--kind", "qutrit",
                   "--amplitudes", "[0,1,0]", "--dump-density")
    rho = doc["density_matrix"]
    assert len(rho) == 4
    assert rho[1][1]["re"] == pytest.approx(0.5)
    doc = run_json(capsys, "quantify", "--kind", "ququart",
                   "--amplitudes", "[1,0,0,0]", "--dump-density")
    assert len(doc["density_matrix"]) == 16


def test_quantify_malformed_amplitudes(capsys):
    code, _, err = run_cli(capsys, "quantify", "--kind", "qutrit",
                           "--amplitudes", "not json")
    assert code == 2
    assert err


def test_quantify_wrong_amplitude_count(capsys):
    code, _, _ = run_cli(capsys, "quantify", "--kind", "qutrit",
                         "--amplitudes", "[1,0,0,0]")
    assert code == 2


def test_quantify_zero_state(capsys):
    code, _, _ = run_cli(capsys, "quantify", "--kind", "qutrit",
                         "--amplitudes", "[0,0,0]")
    assert code == 2


def test_output_byte_identical(capsys):
    args = ("quantify", "--kind", "qutrit", "--amplitudes", "[0.6,0,0.8]")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


# `biphoton quantify` stdout for generic complex states, pinned byte for byte;
# the 16x16 density dump of a ququart is pinned by its SHA-256
_QUANTIFY_STDOUT = [
    (['--amplitudes', '[[0.3,0.4],[-0.5,0.1],[0.2,-0.6]]'],
     '{"amplitudes":[{"im":0.41931393468876732,"re":0.31448545101657549},{"im":0.10482'
     '848367219183,"re":-0.52414241836095909},{"im":-0.62897090203315098,"re":0.209656'
     '96734438366}],"entanglement":{"concurrence":0.41058333389603091,"entropy":0.2607'
     '3338427094506,"lambda_minus":0.04408846090309898,"lambda_plus":0.955911539096901'
     '08,"schmidt_k":1.092048002109983},"kind":"qutrit","polarization":{"degree_p":0.9'
     '1182307819380204,"xi":[-0.41960182619861058,0.79258122726404234,-0.1648351648351'
     '6492]},"schema":"report/1","schmidt":{"lambdas":[0.95591153909690063,0.044088460'
     '903099057],"modes":[[{"im":-0.28079044876246995,"re":-0.57512523255895931},{"im"'
     ':-0.45250166907313016,"re":0.62099108708886042}],[{"im":0.36448493127451564,"re"'
     ':0.6764158673712386},{"im":-0.35589378337857297,"re":0.53193225526819854}]]}}\n'),
    (['--amplitudes', '[[0.7,-0.2],[0.1,0.45],[-0.35,0.3]]', '--dump-density'],
     '{"amplitudes":[{"im":-0.20465780403866035,"re":0.7163023141353112},{"im":0.46048'
     '00590869858,"re":0.10232890201933018},{"im":0.3069867060579905,"re":-0.358151157'
     '0676556}],"density_matrix":[[{"im":5.1078876123452956e-18,"re":0.554973821989528'
     '72},{"im":-0.24804269287695646,"re":-0.014808518977728755},{"im":-0.248042692876'
     '95646,"re":-0.014808518977728755},{"im":-0.14659685863874344,"re":-0.31937172774'
     '869105}],[{"im":0.24804269287695646,"re":-0.014808518977728755},{"im":5.48185314'
     '20838561e-19,"re":0.11125654450261781},{"im":5.4818531420838561e-19,"re":0.11125'
     '654450261781},{"im":-0.13882986541620695,"re":0.074042594888643717}],[{"im":0.24'
     '804269287695646,"re":-0.014808518977728755},{"im":5.4818531420838561e-19,"re":0.'
     '11125654450261781},{"im":5.4818531420838561e-19,"re":0.11125654450261781},{"im":'
     '-0.13882986541620695,"re":0.074042594888643717}],[{"im":0.14659685863874344,"re"'
     ':-0.31937172774869105},{"im":0.13882986541620698,"re":0.074042594888643717},{"im'
     '":0.13882986541620698,"re":0.074042594888643717},{"im":-6.1097758125573311e-18,"'
     're":0.22251308900523559}]],"entanglement":{"concurrence":0.52607380906701462,"en'
     'tropy":0.38351562197989797,"lambda_minus":0.074780542715375542,"lambda_plus":0.9'
     '252194572846244,"schmidt_k":1.1606001678179294},"kind":"qutrit","polarization":{'
     '"degree_p":0.85043891456924892,"xi":[0.11846815182182993,0.77374511658632694,0.3'
     '3246073298429324]},"schema":"report/1","schmidt":{"lambdas":[0.92521945728462385'
     ',0.074780542715375625],"modes":[[{"im":0.095732132772877968,"re":-0.828431991135'
     '53467},{"im":-0.53229705497645929,"re":-0.1455872249936726}],[{"im":0.1829254480'
     '5269537,"re":-0.52064774586344886},{"im":0.73589549641874463,"re":0.392328973608'
     '42367}]]}}\n'),
    (['--amplitudes', '[[0.3,0.4],[-0.5,0.1],[0.2,-0.6],[0.1,0.25]]'],
     '{"amplitudes":[{"im":0.40354661784425466,"re":0.30265996338319096},{"im":0.10088'
     '665446106367,"re":-0.50443327230531831},{"im":-0.60531992676638191,"re":0.201773'
     '30892212733},{"im":0.25221663615265916,"re":0.10088665446106367}],"entanglement"'
     ':{"entropy":1.2719633164211968,"i_concurrence":1.0435207263005759,"lambdas":[0.4'
     '7667832212772321,0.4766783221277231,0.02332167787227693,0.023321677872276791],"s'
     'chmidt_k":2.1952342711760817},"kind":"ququart","schema":"report/1","schmidt":{"l'
     'ambdas":[0.47667832212772349,0.47667832212772254,0.023321677872276896,0.02332167'
     '7872276826],"modes":[[{"im":2.4990220226455438e-17,"re":-0.51041522971593012},{"'
     'im":-0.44046470796864523,"re":-0.38090885783951578},{"im":0.43435111020699829,"r'
     'e":0.22542272808211306},{"im":-0.039388528739942329,"re":0.39918395115183991}],['
     '{"im":-0.51041522971593012,"re":-2.9780462547120058e-17},{"im":0.380908857839515'
     '67,"re":-0.44046470796864495},{"im":0.225422728082113,"re":-0.43435111020699818}'
     ',{"im":-0.39918395115183958,"re":-0.03938852873994219}],[{"im":0.487806894587015'
     '09,"re":-0.038996498142872427},{"im":0.37652865133430835,"re":-0.138294821948830'
     '19},{"im":0.19827084408890938,"re":-0.47033220080091975},{"im":0.479246954819281'
     '87,"re":0.3307915858103917}],[{"im":-0.03899649814287235,"re":-0.487806894587015'
     '59},{"im":0.1382948219488298,"re":0.37652865133430813},{"im":-0.4703322008009201'
     '4,"re":-0.19827084408890971},{"im":-0.33079158581039153,"re":0.47924695481928187'
     '}]]}}\n'),
]
_QUANTIFY_STDOUT_SHA256 = [
    (['--amplitudes', '[[-0.6,0.15],[0.2,0.3],[0.45,-0.1],[0.05,0.5]]', '--dump-density'],
     'a4bcdbfe573473b56db1ad634b8c4ac566c990bc235eb44e71b4fa497442f323'),
]


@pytest.mark.parametrize("argv, expected", _QUANTIFY_STDOUT)
def test_quantify_stdout_is_pinned(capsys, argv, expected):
    code, out, err = run_cli(capsys, "quantify", *argv)
    assert code == 0, err
    assert out == expected


@pytest.mark.parametrize("argv, digest", _QUANTIFY_STDOUT_SHA256)
def test_quantify_density_dump_is_pinned(capsys, argv, digest):
    code, out, err = run_cli(capsys, "quantify", *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# compare-2qubit

def test_compare_2qubit_contrast(capsys):
    doc = run_json(capsys, "compare-2qubit", "--kind", "ququart",
                   "--amplitudes", "[1,0,0,0]")
    assert doc["two_qudit"]["schmidt_k"] == pytest.approx(2.0, abs=1e-12)
    assert doc["two_qubit_model"]["schmidt_k"] == pytest.approx(1.0, abs=1e-12)
    assert doc["ratio"] == pytest.approx(2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# sweep

def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    return header, rows


def test_sweep_fig1_extrema(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--family", "fig1", "--grid", "5")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["c_plus", "K", "C", "S_r"]
    assert len(rows) == 5
    by_cp = {round(r[0], 6): r for r in rows}
    for cp in (-1.0, 0.0, 1.0):
        assert by_cp[cp][1] == pytest.approx(2.0, abs=1e-12)
        assert by_cp[cp][2] == pytest.approx(1.0, abs=1e-12)
        assert by_cp[cp][3] == pytest.approx(1.0, abs=1e-12)


def test_sweep_fig4_values(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--family", "fig4", "--grid", "5")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["phi", "K", "C_I", "S_r"]
    # phi = pi/4 row: the maximally entangled point
    row = rows[1]
    assert row[0] == pytest.approx(math.pi / 4)
    assert row[1] == pytest.approx(4.0, abs=1e-10)
    assert row[3] == pytest.approx(2.0, abs=1e-10)


def test_sweep_fig5_asymmetry(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--family", "fig5", "--grid", "5")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[1][0] == pytest.approx(math.pi / 4)
    assert rows[1][1] == pytest.approx(2.0, abs=1e-10)
    assert rows[3][0] == pytest.approx(3 * math.pi / 4)
    assert rows[3][1] == pytest.approx(4.0, abs=1e-10)


def test_sweep_writes_file(tmp_path, capsys):
    out_path = tmp_path / "fig1.csv"
    code, _, _ = run_cli(capsys, "sweep", "--family", "fig1",
                         "--grid", "11", "--out", str(out_path))
    assert code == 0
    header, rows = parse_csv(out_path.read_text())
    assert header == ["c_plus", "K", "C", "S_r"]
    assert len(rows) == 11


def test_sweep_unwritable_path(capsys):
    code, _, err = run_cli(capsys, "sweep", "--family", "fig1",
                           "--out", "/nonexistent-dir/x.csv")
    assert code == 3
    assert err


# ---------------------------------------------------------------------------
# simulate

def test_simulate_ideal_record(capsys):
    doc = run_json(capsys, "simulate", "--kind", "qutrit",
                   "--amplitudes", "[0,1,0]", "--pairs", "1000000")
    rec = measurement.CoincidenceRecord.from_dict(doc)
    w = rec.conditional_probabilities()
    assert w["H|V"] == pytest.approx(0.5)
    assert w["V|H"] == pytest.approx(0.5)


def test_simulate_sampled_deterministic(capsys):
    args = ("simulate", "--kind", "qutrit", "--amplitudes", "[0.6,0,0.8]",
            "--noise", "sampled", "--pairs", "100000", "--seed", "5")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["seed"] == 5
    assert doc["mode"] == "sampled"


def test_simulate_seed_env_fallback(capsys, monkeypatch):
    argv = ("simulate", "--kind", "qutrit", "--amplitudes", "[0.6,0,0.8]",
            "--noise", "sampled", "--pairs", "100000")
    monkeypatch.setenv("BIPHOTON_SEED", "77")
    _, out_env, _ = run_cli(capsys, *argv)
    monkeypatch.delenv("BIPHOTON_SEED")
    _, out_flag, _ = run_cli(capsys, *argv, "--seed", "77")
    assert out_env == out_flag


# ---------------------------------------------------------------------------
# reconstruct

def write_records(tmp_path, state, kinds=("natural", "rotated45")):
    paths = []
    for basis in kinds:
        cfg = measurement.ExperimentConfig(total_pairs=10**6, basis=basis)
        rec = measurement.expected_coincidences(state, cfg)
        p = tmp_path / f"{basis}.json"
        p.write_text(json.dumps(rec.to_dict()) + "\n")
        paths.append(str(p))
    return paths


def test_reconstruct_from_files(tmp_path, capsys):
    q = qutrit.make_qutrit(np.exp(1j * math.pi / 3), 1, np.exp(-1j * math.pi / 3))
    paths = write_records(tmp_path, q)
    doc = run_json(capsys, "reconstruct", *paths)
    assert doc["schema"] == "recon/1"
    assert doc["kind"] == "qutrit"
    amps = np.array([complex(a["re"], a["im"]) for a in doc["amplitudes"]])
    c_true = qutrit.quantify(q).concurrence
    c_got = qutrit.concurrence(qutrit.make_qutrit(*amps))
    assert abs(c_got - c_true) <= 1e-6


def test_reconstruct_basis_mismatch_exit_code(tmp_path, capsys):
    q = qutrit.make_qutrit(0.6, 0, 0.8)
    paths = write_records(tmp_path, q, kinds=("natural",))
    code, _, err = run_cli(capsys, "reconstruct", paths[0], paths[0])
    assert code == 4
    assert err


def test_reconstruct_requires_two_records(tmp_path, capsys):
    q = qutrit.make_qutrit(0.6, 0, 0.8)
    paths = write_records(tmp_path, q, kinds=("natural",))
    code, _, _ = run_cli(capsys, "reconstruct", paths[0])
    assert code == 4


def test_reconstruct_unreadable_file(capsys):
    code, _, _ = run_cli(capsys, "reconstruct", "/no/such/file.json",
                         "/no/such/other.json")
    assert code == 3


def test_reconstruct_phase_unobservable_still_succeeds(tmp_path, capsys):
    q = qutrit.make_qutrit(1, 0, 1)
    paths = write_records(tmp_path, q)
    code, out, err = run_cli(capsys, "reconstruct", *paths)
    assert code == 0
    doc = json.loads(out)
    assert doc["warnings"]
    amps = np.array([complex(a["re"], a["im"]) for a in doc["amplitudes"]])
    assert abs(qutrit.concurrence(qutrit.make_qutrit(*amps)) - 1) <= 1e-6


def test_reconstruct_names_misspelt_setting(tmp_path, capsys):
    # a qutrit record with one misspelt setting stays a qutrit record
    paths = write_records(tmp_path, qutrit.make_qutrit(0.8, 0.36j, 0.48))
    doc = json.loads(Path(paths[0]).read_text())
    doc["counts"]["VV|V"] = doc["counts"].pop("V|V")
    Path(paths[0]).write_text(json.dumps(doc) + "\n")
    code, out, err = run_cli(capsys, "reconstruct", *paths)
    assert code == 2
    assert out == ""
    assert "'VV|V'" in err and "foreign to a qutrit" in err
    assert "Traceback" not in err


def test_reconstruct_corrupted_records_exit_code(tmp_path, capsys):
    qa = qutrit.make_qutrit(0.8, 0.36j, 0.48)
    qb = qutrit.make_qutrit(0.2, 0.5, math.sqrt(1 - 0.04 - 0.25))
    path_n = write_records(tmp_path, qa, kinds=("natural",))[0]
    path_r = write_records(tmp_path, qb, kinds=("rotated45",))[0]
    code, _, err = run_cli(capsys, "reconstruct", path_n, path_r)
    assert code == 4
    assert err


# ---------------------------------------------------------------------------
# shell pipeline

def test_full_pipeline_through_shell():
    amps = "[0.5,{\"re\":0.5,\"im\":0.5},0.5]"
    script = (
        f"{sys.executable} -m biphoton simulate --kind qutrit --amplitudes '{amps}' "
        f"| {sys.executable} -m biphoton simulate --kind qutrit --amplitudes '{amps}' "
        "--basis rotated45 "
        f"| {sys.executable} -m biphoton reconstruct"
    )
    proc = subprocess.run(script, shell=True, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    truth = qutrit.make_qutrit(0.5, 0.5 + 0.5j, 0.5)
    amps_got = np.array([complex(a["re"], a["im"]) for a in doc["amplitudes"]])
    c_true = qutrit.quantify(truth).concurrence
    assert abs(qutrit.concurrence(qutrit.make_qutrit(*amps_got)) - c_true) <= 1e-6


# ---------------------------------------------------------------------------
# non-finite, huge, tiny and malformed input

@pytest.mark.parametrize("amps", ["[NaN,0,1]", "[Infinity,0,1]", "[[1,-Infinity],0,1]",
                                  "[1e999,0,1]", '[["1",0],0,1]'])
def test_quantify_rejects_non_finite_amplitudes(capsys, amps):
    code, out, err = run_cli(capsys, "quantify", "--amplitudes", amps)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize("scale", ["1e200", "1e-200"])
def test_quantify_scales_huge_and_tiny_amplitudes(capsys, scale):
    doc = run_json(capsys, "quantify", "--amplitudes", f"[{scale},0,{scale}]")
    amps = [a["re"] for a in doc["amplitudes"]]
    assert amps == pytest.approx([1 / math.sqrt(2), 0, 1 / math.sqrt(2)], abs=1e-15)
    assert doc["entanglement"]["concurrence"] == pytest.approx(1.0, abs=1e-12)
    doc = run_json(capsys, "quantify", "--amplitudes", f"[{scale},0,1]")
    assert doc["amplitudes"][0]["re"] == pytest.approx(1.0 if scale == "1e200" else 1e-200)


@pytest.mark.parametrize("argv", [
    ["quantify", "--family", "max_entangled", "--param", "nan"],
    ["quantify", "--family", "psi_phi", "--param", "inf"],
    ["quantify", "--family", "psi_phi", "--param", "1e308"],
    ["quantify", "--family", "max_entangled", "--param", "0,1e308,1e308"],
    ["simulate", "--amplitudes", "[1,0,0]", "--noise", "sampled", "--seed", "-1"],
    ["sweep", "--family", "fig1", "--grid", str(10**20)],
])
def test_out_of_range_flags_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err


def test_simulate_rejects_pairs_beyond_the_sampler(capsys):
    code, out, err = run_cli(capsys, "simulate", "--amplitudes", "[0.6,0,0.8]",
                             "--noise", "sampled", "--pairs", str(10**20))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value", [
    ("H|H", "NaN"), ("H|H", '"abc"'), ("H|H", "Infinity"), ("eta", "NaN"),
    ("total_pairs", "Infinity"), ("total_pairs", "1.5"), ("total_pairs", '"many"'),
    ("basis", "5"), ("counts", "[1,2]"),
])
def test_reconstruct_rejects_malformed_record_values(tmp_path, capsys, field, value):
    q = qutrit.make_qutrit(0.6, 0.3, 0.8)
    path_n, path_r = write_records(tmp_path, q)
    doc = json.loads(Path(path_n).read_text())
    if field in doc:
        doc[field] = "@"
    else:
        doc["counts"][field] = "@"
    Path(path_n).write_text(json.dumps(doc).replace('"@"', value) + "\n")
    code, out, err = run_cli(capsys, "reconstruct", path_n, path_r)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err


def test_reconstruct_rejects_undecodable_file(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe\x00")
    code, out, err = run_cli(capsys, "reconstruct", str(path), str(path))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err


def test_cli_import_leaves_scipy_unloaded():
    code = ("import sys, biphoton.cli; "
            "print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
