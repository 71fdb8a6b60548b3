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

from biphoton import cli, jsonio, measurement, ququart, qutrit
from biphoton.tensor import ConsistencyError


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


# each --family with its --param flags, and the same state built directly
_FAMILY_STATES = [
    ("non_entangled", [], lambda: qutrit.non_entangled_family(0.0, 0.0, 0.0)),
    ("non_entangled", ["--param", "0.7,1.3", "--param", "-2.1"],
     lambda: qutrit.non_entangled_family(0.7, 1.3, -2.1)),
    ("max_entangled", [], lambda: qutrit.max_entangled_family(0.0, 0.0, 0.0)),
    ("max_entangled", ["--param", "0.4"], lambda: qutrit.max_entangled_family(0.4, 0.0, 0.0)),
    ("psi_phi", [], lambda: ququart.family_psi_phi(0.0)[0]),
    ("psi_phi", ["--param", "0.3"], lambda: ququart.family_psi_phi(0.3)[0]),
    ("psi_phi_prime", [], lambda: ququart.family_psi_phi_prime(0.0)),
    ("psi_phi_prime", ["--param", "2.2"], lambda: ququart.family_psi_phi_prime(2.2)),
]


@pytest.mark.parametrize("family, params, build", _FAMILY_STATES)
def test_quantify_family_prints_the_reports_of_its_state(capsys, family, params, build):
    code, out, err = run_cli(capsys, "quantify", "--family", family, *params)
    assert code == 0, err
    state = build()
    amps = [jsonio.complex_to_json(c) for c in state.amplitudes]
    assert '"amplitudes":' + jsonio.dumps(amps) + "," in out
    if isinstance(state, qutrit.QutritState):
        rep, pol = qutrit.quantify(state), qutrit.polarization(state)
        ent = {"schmidt_k": rep.schmidt_k, "concurrence": rep.concurrence,
               "entropy": rep.entropy, "lambda_plus": rep.lambda_plus,
               "lambda_minus": rep.lambda_minus}
        polarization = {"xi": list(pol.xi), "degree_p": pol.degree_p}
        assert '"polarization":' + jsonio.dumps(polarization) + "," in out
    else:
        rep = ququart.quantify(state)
        ent = {"schmidt_k": rep.schmidt_k, "i_concurrence": rep.i_concurrence,
               "entropy": rep.entropy, "lambdas": list(rep.lambdas)}
        assert '"polarization"' not in out
    assert '"entanglement":' + jsonio.dumps(ent) + "," in out


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
     '3338427094511,"lambda_minus":0.044088460903098987,"lambda_plus":0.955911539096901'
     '08,"schmidt_k":1.092048002109983},"kind":"qutrit","polarization":{"degree_p":0.9'
     '1182307819380204,"xi":[-0.41960182619861058,0.79258122726404234,-0.1648351648351'
     '6492]},"schema":"report/1","schmidt":{"lambdas":[0.95591153909690108,0.044088460'
     '903098987],"modes":[[{"im":-0.28079044876246995,"re":-0.57512523255895964},{"im"'
     ':-0.45250166907313022,"re":0.62099108708886042}],[{"im":-0.36448493127451564,"re'
     '":-0.67641586737123838},{"im":0.35589378337857291,"re":-0.53193225526819865}]]}}\n'),
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
     'tropy":0.38351562197989802,"lambda_minus":0.074780542715375556,"lambda_plus":0.9'
     '252194572846244,"schmidt_k":1.1606001678179294},"kind":"qutrit","polarization":{'
     '"degree_p":0.85043891456924892,"xi":[0.11846815182182993,0.77374511658632694,0.3'
     '3246073298429324]},"schema":"report/1","schmidt":{"lambdas":[0.9252194572846244,'
     '0.074780542715375556],"modes":[[{"im":-0.095732132772878051,"re":0.8284319911355'
     '3445},{"im":0.53229705497645918,"re":0.1455872249936726}],[{"im":0.1829254480526'
     '9528,"re":-0.52064774586344897},{"im":0.73589549641874485,"re":0.392328973608423'
     '78}]]}}\n'),
    (['--amplitudes', '[[0.3,0.4],[-0.5,0.1],[0.2,-0.6],[0.1,0.25]]'],
     '{"amplitudes":[{"im":0.40354661784425466,"re":0.30265996338319096},{"im":0.10088'
     '665446106367,"re":-0.50443327230531831},{"im":-0.60531992676638191,"re":0.201773'
     '30892212733},{"im":0.25221663615265916,"re":0.10088665446106367}],"entanglement"'
     ':{"entropy":1.2719633164211968,"i_concurrence":1.0435207263005759,"lambdas":[0.4'
     '7667832212772321,0.47667832212772321,0.023321677872276826,0.023321677872276826],"s'
     'chmidt_k":2.1952342711760817},"kind":"ququart","schema":"report/1","schmidt":{"l'
     'ambdas":[0.47667832212772321,0.47667832212772321,0.023321677872276826,0.02332167'
     '7872276826],"modes":[[{"im":0,"re":0.51041522971593001},{"im":0.4404647079686450'
     '6,"re":0.38090885783951589},{"im":-0.43435111020699846,"re":-0.22542272808211314'
     '},{"im":0.039388528739942315,"re":-0.39918395115183986}],[{"im":0.51041522971593'
     '001,"re":0},{"im":-0.38090885783951589,"re":0.44046470796864506},{"im":-0.225422'
     '72808211314,"re":0.43435111020699846},{"im":0.39918395115183986,"re":0.039388528'
     '739942315}],[{"im":-0.43435111020699846,"re":0.22542272808211314},{"im":-0.40068'
     '040375952096,"re":-0.01882809328102512},{"im":0,"re":0.51041522971593001},{"im":'
     '-0.31311555523157752,"re":-0.4909779689747078}],[{"im":0.22542272808211314,"re":'
     '0.43435111020699846},{"im":0.01882809328102512,"re":-0.40068040375952096},{"im":'
     '0.51041522971593001,"re":0},{"im":0.4909779689747078,"re":-0.31311555523157752}]'
     ']}}\n'),
]
_QUANTIFY_STDOUT_SHA256 = [
    (['--amplitudes', '[[-0.6,0.15],[0.2,0.3],[0.45,-0.1],[0.05,0.5]]', '--dump-density'],
     'ebb805036c7c6d90b9726591f39c36e3ff405f31d3a50ec978432568ecc62422'),
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


def _sweep_reference(family, grid):
    # the figure's rows computed straight from the family states
    if family == "fig1":
        rows = []
        for c_plus in np.linspace(-1.0, 1.0, grid):
            c2 = math.sqrt(max(0.0, 1.0 - c_plus * c_plus))
            rep = qutrit.quantify(qutrit.from_bell(
                qutrit.BellCoefficients(c_plus=float(c_plus), c_minus=0.0, c2=c2)))
            rows.append((c_plus, rep.schmidt_k, rep.concurrence, rep.entropy))
        return "c_plus,K,C,S_r", rows
    rows = []
    for phi in np.linspace(0.0, math.pi, grid):
        if family == "fig4":
            state = ququart.family_psi_phi(float(phi))[0]
        else:
            state = ququart.family_psi_phi_prime(float(phi))
        rep = ququart.quantify(state)
        rows.append((phi, rep.schmidt_k, rep.i_concurrence, rep.entropy))
    return "phi,K,C_I,S_r", rows


# grids of 1000 and 10001 rows reach past every SIMD block length, so the
# vector sqrt and log2 of the array quantifiers meet the scalar bits on
# every leg; grid 101 keeps the family's name as its id
_SWEEP_GRIDS = [(family, grid) for family in ("fig1", "fig4", "fig5")
                for grid in (2, 3, 101, 1000, 10001)]


@pytest.mark.parametrize("family, grid", _SWEEP_GRIDS,
                         ids=[f if g == 101 else f"{f}-{g}" for f, g in _SWEEP_GRIDS])
def test_sweep_rows_are_the_family_quantifiers(capsys, family, grid):
    code, out, err = run_cli(capsys, "sweep", "--family", family, "--grid", str(grid))
    assert code == 0, err
    header, rows = _sweep_reference(family, grid)
    want = [header] + [",".join(repr(float(x)) for x in row) for row in rows]
    assert out.splitlines() == want


@pytest.mark.parametrize("family", ["fig1", "fig4", "fig5"])
def test_sweep_blocks_write_the_bytes_of_one_block(capsys, monkeypatch, family):
    # a sweep of blocks of 7 rows, against the same grid in one block
    want = run_cli(capsys, "sweep", "--family", family, "--grid", "101")
    monkeypatch.setattr(cli, "SWEEP_BLOCK", 7)
    assert run_cli(capsys, "sweep", "--family", family, "--grid", "101") == want


def test_sweep_check_names_its_row_of_the_whole_grid(capsys, monkeypatch):
    # the third block of 10 rows fails its check on its row 5: row 25 of the
    # grid
    monkeypatch.setattr(cli, "SWEEP_BLOCK", 10)
    calls, purity = [], qutrit._block_purity

    def shifted(*args):
        out = np.array(purity(*args))
        calls.append(len(out))
        if len(calls) == 3:
            out[5] += 1e-6
        return out

    monkeypatch.setattr(qutrit, "_block_purity", shifted)
    with pytest.raises(ConsistencyError, match="^row 25: closed-form K"):
        cli.main(["sweep", "--family", "fig1", "--grid", "101"])
    assert calls == [10, 10, 10]


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


# stdout SHA-256 of `coincidence/1` records of the README qutrit and the CI
# ququart, in both frames, ideal and sampled
_SEED_1 = ("--noise", "sampled", "--seed", "1")
_SIMULATE_SHA256 = [
    ("[[0.5,0],[0.5,0.5],[0.5,0]]", "natural", (),
     "bdcdc4039b09e03f17b9eacd60e4ca22ef354db6c9eaad0c349419dae5f3d9ea"),
    ("[[0.5,0],[0.5,0.5],[0.5,0]]", "natural", _SEED_1,
     "2b08c85682901d77f97ef716e1f2930ca7675b3c9d57d46d180e79ce4c16c858"),
    ("[[0.5,0],[0.5,0.5],[0.5,0]]", "rotated45", (),
     "ab984e9eb7af92e3a9f68c0b935cdb112b5e6157f1a89276a1e7072bfac1f69c"),
    ("[[0.5,0],[0.5,0.5],[0.5,0]]", "rotated45", _SEED_1,
     "b9872d5b5db074a3c51070357b2bd3283f56cf92bf2962f2dc78edb493a21bea"),
    ("[[0.5,0],[0.3,0.4],[0.1,-0.5],[0.2,0.45]]", "natural", (),
     "8525a5c7f1e162043660425920646d3777aafc620059aa6e41b7aa0903dc2730"),
    ("[[0.5,0],[0.3,0.4],[0.1,-0.5],[0.2,0.45]]", "natural", _SEED_1,
     "9d39edde8175249eabc12813e740589d1fc5053a93cbbbaa6ff9b1311644f267"),
    ("[[0.5,0],[0.3,0.4],[0.1,-0.5],[0.2,0.45]]", "rotated45", (),
     "072ba6a602d844ff921a0448e608010786d4438b430c708b71d5e19477b3161f"),
    ("[[0.5,0],[0.3,0.4],[0.1,-0.5],[0.2,0.45]]", "rotated45", _SEED_1,
     "8fa5fe69972ef5ff9f3917d47123e17283299501daf17f3afc121f71696db133"),
]


@pytest.mark.parametrize("amps, basis, flags, digest", _SIMULATE_SHA256,
                         ids=[f"{kind}_{basis}_{mode}" for kind in ("qutrit", "ququart")
                              for basis in ("natural", "rotated45")
                              for mode in ("ideal", "sampled")])
def test_simulate_stdout_is_pinned(capsys, amps, basis, flags, digest):
    code, out, err = run_cli(capsys, "simulate", "--amplitudes", amps, "--basis", basis, *flags)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def test_reconstruct_unknown_basis_exits_2(tmp_path, capsys):
    # each record is checked on its own before the pair is, so an unknown
    # basis is malformed input, as an unknown mode is
    paths = write_records(tmp_path, qutrit.make_qutrit(0.8, 0.36j, 0.48))
    doc = json.loads(Path(paths[0]).read_text())
    doc["basis"] = "foo"
    Path(paths[0]).write_text(json.dumps(doc) + "\n")
    code, out, err = run_cli(capsys, "reconstruct", *paths)
    assert code == 2
    assert out == ""
    assert "basis 'foo'" in err
    assert "Traceback" not in err


def test_reconstruct_corrupted_records_exit_code(tmp_path, capsys):
    qa = qutrit.make_qutrit(0.8, 0.36j, 0.48)
    qb = qutrit.make_qutrit(0.2, 0.5, math.sqrt(1 - 0.04 - 0.25))
    path_n = write_records(tmp_path, qa, kinds=("natural",))[0]
    path_r = write_records(tmp_path, qb, kinds=("rotated45",))[0]
    code, _, err = run_cli(capsys, "reconstruct", path_n, path_r)
    assert code == 4
    assert err


@pytest.mark.parametrize("natural, rotated", [
    ([0.6, 0, 0.8], [0.1, 0.9, 0.3]),
    ([0, 1, 0], [0.1, 0.9, 0.3]),
    ([1, 0, 0, 0], [0.1, 0.9, 0.3, 0.2]),
], ids=["c2_below_threshold", "outer_amplitudes_pinned", "one_ququart_amplitude"])
def test_reconstruct_mismatched_records_exit_4_in_every_branch(tmp_path, capsys, natural,
                                                                 rotated):
    paths = []
    for basis, amps in (("natural", natural), ("rotated45", rotated)):
        code, out, _ = run_cli(capsys, "simulate", "--amplitudes", json.dumps(amps),
                               "--basis", basis)
        assert code == 0
        paths.append(tmp_path / f"{basis}.json")
        paths[-1].write_text(out)
    code, out, err = run_cli(capsys, "reconstruct", *map(str, paths))
    assert code == 4
    assert out == ""
    assert "no phase assignment fits the records" in err


def test_reconstruct_records_of_two_kinds_exit_4(tmp_path, capsys):
    natural = write_records(tmp_path, qutrit.make_qutrit(0.6, 0.3, 0.8), ("natural",))
    rotated = write_records(tmp_path, ququart.make_ququart(0.5, 0.5, 0.5, 0.5), ("rotated45",))
    code, out, err = run_cli(capsys, "reconstruct", *natural, *rotated)
    assert code == 4
    assert out == ""
    assert "different state kinds" in err


def reconstruct_pipe(tmp_path, capsys, amps, natural_flags=(), rotated_flags=()):
    # the CI pipe `simulate | simulate --basis rotated45 | reconstruct`, with
    # each record in a file
    paths = []
    for basis, flags in (("natural", natural_flags), ("rotated45", rotated_flags)):
        code, out, err = run_cli(capsys, "simulate", "--amplitudes", amps, *flags,
                                 "--basis", basis)
        assert code == 0, err
        paths.append(tmp_path / f"{basis}.json")
        paths[-1].write_text(out)
    return run_cli(capsys, "reconstruct", *map(str, paths))


_SEEDS_1_2 = (["--noise", "sampled", "--seed", "1"], ["--noise", "sampled", "--seed", "2"])
_README_STATE = "[[0.5,0],[0.5,0.5],[0.5,0]]"
_AMPS4 = "[[0.5,0],[0.3,0.4],[0.1,-0.5],[0.2,0.45]]"
_C2_WARNING = "warning: C2 below threshold: phases only observable through phi1 - phi3\n"

# stdout SHA-256 of qutrit pipes, recorded before rows were deduplicated as
# one amplitude array
_RECONSTRUCT_QUTRIT_SHA256 = [
    (_README_STATE, ((), ()), "",
     "6cfa7493e02eb6be991be9a659d7bca8d6b9d391e47c75cf14507c60fced1530"),
    (_README_STATE, _SEEDS_1_2, "",
     "233405051eedcd61a25fcb026406a338ee76b9a38a065afeb3c18e860d286e0e"),
    ("[1,0,-1]", ((), ()), _C2_WARNING,
     "cf6737d711304bdb1589e47ebb3e327c2cdb8e89c7d08e5fdb17d4e50f78523e"),
    ("[0.6,0.001,[0.48,0.64]]", _SEEDS_1_2, _C2_WARNING,
     "9b33a11f604e7de0e5f179237998a25e7430e16305252fa822be9bd31641ab43"),
]


@pytest.mark.parametrize("amps, flags, warning, digest", _RECONSTRUCT_QUTRIT_SHA256,
                         ids=["readme_ideal", "readme_sampled", "c2_zero_ideal",
                              "c2_below_threshold_sampled"])
def test_reconstruct_qutrit_stdout_is_pinned(tmp_path, capsys, amps, flags, warning, digest):
    code, out, err = reconstruct_pipe(tmp_path, capsys, amps, *flags)
    assert (code, err) == (0, warning)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ququart solution sets, recorded as the qutrit digests were; the printed
# order and representative follow np.roots' root order, which may differ
# between numpy versions, so only the set up to global phase is pinned
_RECONSTRUCT_QUQUART = [
    (_AMPS4, ((), ()), "", 3.583229404124382e-17, [
        [(0.4916077673561543, 0.08774030817468409), (0.36515690695344, -0.34064202898011287),
         (0.010581245296546865, 0.509155828991091), (0.27560938429967713, -0.4073508673506655)],
        [(0.4075725972875922, 0.28855005899104824), (-0.4993761692009932, -1.541532430624348e-05),
         (0.3565941085656577, 0.3635825390250401), (-0.07816661192217975, 0.48557722622255867)],
        [(-0.4991170301518431, 0.01608567113599541), (0.4320831660965242, 0.2503611315270298),
         (-0.10156801024337074, 0.49903462830031486), (0.31447797006994443, 0.37815191151979344)],
        [(-0.08774030817468406, -0.4916077673561543), (0.34064202898011303, -0.3651569069534398),
         (-0.509155828991091, -0.010581245296546896), (0.4073508673506654, -0.2756093842996773)],
        [(0.016085671135995044, -0.4991170301518431), (0.25036113152703043, 0.4320831660965238),
         (0.49903462830031486, -0.10156801024337056), (0.3781519115197932, 0.31447797006994477)],
        [(0.31355040083238195, -0.3886678591565604), (-0.09580660446188066, -0.4900996359363839),
         (0.44420187505422104, -0.24907090385258793), (-0.4916717035528106, -0.012417639504501025)],
        [(0.38866785915656055, -0.3135504008323817), (0.49009963593638384, 0.0958066044618808),
         (0.24907090385258776, -0.44420187505422115), (0.012417639504500994, 0.4916717035528106)],
        [(0.4075725972875922, -0.28855005899104824), (-0.4993761692009932, 1.541532430646525e-05),
         (0.3565941085656578, -0.36358253902504), (-0.07816661192217954, -0.4855772262225587)],
    ]),
    (_AMPS4, _SEEDS_1_2, "", 3.925231146709438e-17, [
        [(0.490918598788604, 0.08775906558597028), (0.3652350406593748, -0.34155951264287016),
         (0.010340667695512343, 0.5091288082569564), (0.2758198430749805, -0.4072371318153298)],
        [(0.2882311590786005, 0.40697115765775776), (0.00043233605340223317, -0.5000593451659784),
         (0.3632951052366703, 0.35684133633397114), (0.48548588814350524, -0.07888041440430589)],
        [(0.016571526497117985, 0.4984256300980562), (0.24840073681582517, -0.43400070224787113),
         (0.49875165641644037, 0.10279035960339225), (0.3793844484566832, -0.3130273272931637)],
        [(-0.2882311590786004, 0.40697115765775776), (-0.000432336053402283, -0.5000593451659784),
         (-0.36329510523667047, 0.356841336333971), (-0.48548588814350524, -0.07888041440430595)],
        [(0.016571526497117874, -0.4984256300980562), (0.24840073681582517, 0.43400070224787113),
         (0.49875165641644037, -0.10279035960339225), (0.37938444845668307, 0.31302732729316385)],
        [(0.3115223776505164, -0.38943103683715047), (-0.09776782874278477, -0.49040899998390286),
         (0.4455129813382861, -0.24665209560149617), (-0.4916635334455456, -0.013624875886553955)],
        [(0.38943103683715047, -0.3115223776505164), (0.4904089999839029, 0.0977678287427847),
         (0.2466520956014962, -0.4455129813382861), (0.013624875886553926, 0.49166353344554564)],
        [(0.490918598788604, -0.08775906558597028), (0.3652350406593746, 0.3415595126428703),
         (0.010340667695512343, -0.5091288082569564), (0.27581984307498064, 0.40723713181532967)],
    ]),
    ("[[0.5,0],[0.3,0.4],[0.1,-0.5],[0.00004,0.00003]]", ((), ()),
     "warning: amplitudes below threshold leave some phase combinations unobservable\n",
     2.278261357874107e-06, [
        [(0.5672139540746823, 0.08494526262219157), (0.2723271403590146, 0.5047626134757511),
         (0.1984179344794581, -0.5502141267810687), (5.735393337330831e-05, 0)],
        [(0.5672139540746823, -0.08494526262219157), (0.2723271403590146, -0.5047626134757511),
         (0.19841793447945832, 0.5502141267810686), (5.735393337330831e-05, 0)],
    ]),
]


def _same_up_to_global_phase(a, b, tol):
    overlap = np.vdot(a, b)
    aligned = b * (abs(overlap) / overlap) if overlap else b
    return np.max(np.abs(aligned - a)) <= tol


@pytest.mark.parametrize("amps, flags, warning, residual, expected", _RECONSTRUCT_QUQUART,
                         ids=["amps4_ideal", "amps4_sampled", "tiny_amplitude_ideal"])
def test_reconstruct_ququart_solutions_are_pinned(tmp_path, capsys, amps, flags, warning,
                                                  residual, expected):
    code, out, err = reconstruct_pipe(tmp_path, capsys, amps, *flags)
    assert (code, err) == (0, warning)
    doc = json.loads(out)
    assert abs(doc["residual"] - residual) <= 1e-15
    got = [np.array([complex(a["re"], a["im"]) for a in sol])
           for sol in [doc["amplitudes"]] + doc["alternates"]]
    assert len(got) == len(expected)
    for sol in expected:
        want = np.array([complex(*z) for z in sol])
        matches = [g for g in got if _same_up_to_global_phase(want, g, 1e-12)]
        assert len(matches) == 1


def test_reconstruct_ideal_ququart_prints_exact_roots_only(tmp_path, capsys):
    # polishing every candidate row printed 8 solutions here, the first at
    # "residual" 4.6e-7: four rows stuck beside the four exact roots
    amps = "[[-0.0246,0.0077],[-0.271,0.4321],[-0.6622,0.4479],[-0.3163,-0.0073]]"
    code, out, err = reconstruct_pipe(tmp_path, capsys, amps)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert 1 + len(doc["alternates"]) == 4
    assert doc["residual"] < 1e-12


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


@pytest.mark.parametrize("argv, message", [
    (["quantify", "--family", "psi_phi", "--param", "0.1,0.2"], "at most 1 parameter"),
    (["quantify", "--family", "psi_phi", "--amplitudes", "[1,0,0]"], "not both"),
])
def test_bad_state_or_seed_input_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_simulate_rejects_pairs_beyond_the_sampler(capsys):
    code, out, err = run_cli(capsys, "simulate", "--amplitudes", "[0.6,0,0.8]",
                             "--noise", "sampled", "--pairs", str(10**20))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value", [
    ("H|H", "NaN"), ("H|H", '"abc"'), ("H|H", "Infinity"), ("eta", "NaN"),
    ("total_pairs", "Infinity"), ("total_pairs", "1.5"), ("total_pairs", '"many"'),
    ("basis", "5"), ("counts", "[1,2]"), ("mode", '"Sampled"'),
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


# ---------------------------------------------------------------------------
# one parser per process

def fresh_run(capsys, *argv):
    # the call as the first of a process: on a parser built for it alone
    cli._parser.cache_clear()
    return run_cli(capsys, *argv)


def test_main_calls_share_no_parser_state(capsys):
    flagged = ["quantify", "--family", "psi_phi", "--param", "0.3", "--dump-density"]
    bare = ["quantify", "--family", "psi_phi"]
    unparsable = ["quantify", "--family", "psi_phi", "--param"]
    want_flagged, want_bare = fresh_run(capsys, *flagged), fresh_run(capsys, *bare)
    assert want_flagged[0] == want_bare[0] == 0
    assert "density_matrix" in want_flagged[1] and "density_matrix" not in want_bare[1]
    want_unparsable = fresh_run(capsys, *unparsable)
    assert want_unparsable[0] == 2 and want_unparsable[1] == ""
    cli._parser.cache_clear()
    # each call after every other, the failing parse included
    for first, second, want in [(flagged, bare, want_bare), (unparsable, bare, want_bare),
                                (bare, flagged, want_flagged), (unparsable, flagged, want_flagged),
                                (flagged, unparsable, want_unparsable)]:
        run_cli(capsys, *first)
        assert run_cli(capsys, *second) == want, (first, second)
    assert cli._parser.cache_info().misses == 1
