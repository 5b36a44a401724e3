"""Every CSV and summary JSON of a fixed set of small runs, pinned by its sha256.

The CSV digests were recorded before the ensemble drivers ran every length
as one batch; they hold the drivers to byte-identical outputs whatever the
batching.  The CSVs carry no fit, so the summaries' digests (wall time
dropped, keys sorted) pin the fits, recorded before ``RBData`` became the
one fitted-curve type of every driver; the nine with unsorted lengths
were re-pinned when the fit stopped pairing sorted points with unsorted
weights, and thirteen when a run's curves came to be fitted in one call,
whose profile sums in another order (r moved by at most 5e-8 of itself).
Six were re-pinned when a fit whose B0 comes out 0 became degenerate
(p = 1, converged false) instead of reporting the grid's first p, and six
more when the irbgs summaries gained both fits' status and a compare ratio
off a degenerate fit became null.  Five CSVs and ten summaries were
re-pinned when the outputs stopped depending on the kernels numpy picks by
CPU for its float ``power`` (the measurement flips and every p^m of the
fit became repeated products, the fit's grid scalar powers); the CSVs are
those of the three cases with measurement flips (sha256 prefixes, old ->
new):

- compare-exact-clifford-pauli-spam rb.csv 976f7b790579 -> 16933ff8a6d1,
  rbsv.csv d9d94a968f95 -> ece6494df1dc, summary e4c4df2ffb39 -> ca7e70c8bb79;
- irbgs-pauli-spam irbgs_baseline.csv 976f7b790579 -> 16933ff8a6d1,
  irbgs_interleaved.csv c36a2ec527ad -> 5efd964c7a21, summary
  d65eeded9350 -> 7087c91b6699;
- rb-exact-generator-pauli-spam rb.csv f47e4327b401 -> 20f26d30672e,
  summary d0f65666203e -> 5fefc9547fd9;
- summaries only: bench-compare-n2 6370e5c01d04 -> 466a6fed8356,
  bench-rbsv-gen-n6 b0644d8110e0 -> f63b922aabef,
  compare-sampled-clifford-delta-n3 9eb27a5c926e -> fdc1e85c6c03,
  compare-sampled-clifford-depolarizing aa2b22ed7ff1 -> af1a7c927b82,
  compare-sampled-generator-pauli-spam 84433f8bc1ca -> 113df8106ba1,
  rb-sampled-clifford-depolarizing 6a4bfee9c929 -> 83fa4320804e,
  rbsv-sampled-generator-depolarizing 77f51530cc6c -> b624ae9b103e.

Fifteen summaries were re-pinned, and no CSV, when the fit's p search stopped
zooming on the SSE and found the root of the profile's slope instead (r moved
by at most 2.3e-8 of itself; the exact-mode irbgs runs came closer to their
exact r).

The last test reruns every case with numpy's SIMD kernels switched off.  The
cases cover every protocol, sampled and exact mode, Clifford
and generator elements, Pauli-diagonal and dense noise with SPAM, unsorted
and repeated lengths, and the three benchmark workloads' configs at seed 7.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rbsim.cli import main

DEPOLARIZING = {"gate": {"kind": "depolarizing", "epsilon": 0.01}}
PAULI_SPAM = {"gate": {"kind": "pauli", "probabilities": {"II": 0.97, "XI": 0.01,
                                                          "IZ": 0.01, "YY": 0.01}},
              "prep": {"kind": "depolarizing", "epsilon": 0.02}, "p_meas": 0.01}
DELTA = {"gate": {"kind": "delta_depolarizing", "delta": 0.02, "p_prime": 0.01,
                  "axis": "Y", "angle": 0.05}}
UNSORTED = [3, 6, 2, 6]


def _protocol(command, noise, lengths=UNSORTED, exact=False, generator=False, n=2, **extra):
    cfg = {"protocol": "rbsv" if command == "compare" else command, "n": n,
           "lengths": lengths, "K_m": 4, "noise": noise, "seed": 5}
    if command == "irbgs":
        del cfg["n"]
        cfg.update(noise_n={"kind": "depolarizing", "epsilon": 0.005}, recipe="cnot")
    else:
        cfg.update(shots=30, mode="exact" if exact else "sampled")
        if command != "rb":
            cfg.update(N_m=30)
        if generator:
            cfg.update(rb_mode="generator", b=3)
    cfg.update(extra)
    return command, cfg


def _bench_compare():
    return "compare", {"protocol": "rbsv", "n": 2, "lengths": list(range(5, 51, 5)),
                       "K_m": 40, "N_m": 100, "shots": 100, "mode": "sampled",
                       "noise": {"gate": {"kind": "depolarizing", "epsilon": 0.001}},
                       "R_policy": {"kind": "optimal", "cap": 10000.0}, "seed": 7}


def _bench_irbgs():
    return "irbgs", {"protocol": "irbgs", "lengths": list(range(2, 21, 2)), "K_m": 10,
                     "noise": {"gate": {"kind": "depolarizing", "epsilon": 0.001}},
                     "noise_n": {"kind": "depolarizing", "epsilon": 0.0005},
                     "recipe": "cnot", "seed": 7}


def _bench_rbsv_gen():
    gate = {"IIIIII": 0.997, "XIIIII": 0.001, "IIZIII": 0.001, "IIIIYZ": 0.001}
    return "rbsv", {"protocol": "rbsv", "n": 6, "lengths": list(range(2, 13, 2)), "K_m": 40,
                    "N_m": 100, "mode": "sampled", "rb_mode": "generator", "b": 10,
                    "noise": {"gate": {"kind": "pauli", "probabilities": gate},
                              "prep": {"kind": "depolarizing", "epsilon": 0.01},
                              "p_meas": 0.002},
                    "seed": 7}


CASES = {
    "rb-sampled-clifford-depolarizing": _protocol("rb", DEPOLARIZING),
    "rb-exact-generator-pauli-spam": _protocol("rb", PAULI_SPAM, exact=True, generator=True),
    "rb-sampled-generator-delta": _protocol("rb", DELTA, generator=True),
    "rb-exact-clifford-delta-n1": _protocol(
        "rb", {"gate": {"kind": "delta_depolarizing", "delta": 0.03, "p_prime": 0.01}},
        lengths=[4, 1, 7, 4], exact=True, n=1),
    "rbsv-sampled-clifford-pauli-spam": _protocol("rbsv", PAULI_SPAM),
    "rbsv-exact-clifford-delta": _protocol("rbsv", DELTA, exact=True),
    "rbsv-sampled-generator-depolarizing": _protocol("rbsv", DEPOLARIZING, generator=True),
    "rbsv-exact-generator-delta-no-identity": _protocol(
        "rbsv", DELTA, exact=True, generator=True, include_identity_stabilizer=False),
    "compare-sampled-clifford-depolarizing": _protocol("compare", DEPOLARIZING),
    "compare-exact-clifford-pauli-spam": _protocol("compare", PAULI_SPAM, exact=True),
    "compare-sampled-generator-pauli-spam": _protocol("compare", PAULI_SPAM, generator=True),
    "compare-exact-generator-delta": _protocol("compare", DELTA, exact=True, generator=True),
    "compare-sampled-clifford-delta-n3": _protocol(
        "compare", {"gate": {"kind": "delta_depolarizing", "delta": 0.02, "p_prime": 0.01,
                             "qubit": 2}, "p_meas": 0.01},
        lengths=[5, 2, 8, 2], n=3),
    "irbgs-depolarizing": _protocol("irbgs", DEPOLARIZING),
    "irbgs-pauli-spam": _protocol("irbgs", PAULI_SPAM),
    "irbgs-delta": _protocol("irbgs", DELTA, lengths=[2, 9, 4, 9]),
    "bench-compare-n2": _bench_compare(),
    "bench-irbgs-exact-n2": _bench_irbgs(),
    "bench-rbsv-gen-n6": _bench_rbsv_gen(),
}

PINNED_CSV_DIGESTS = {
    'bench-compare-n2': {
        'rb.csv': '2e5cec09a9cf7b94738e40578f225876fe0a86f7842c78acfcdf50e4ba4c895b',
        'rbsv.csv': '226d5358fad138a90f1352ebc648c650743d05fb47b2e30bd6647300cd57f652',
    },
    'bench-irbgs-exact-n2': {
        'irbgs_baseline.csv': '1a9bf67e019f4e41471dea20d7019b2f44dd949c7eb9b98fac6c700b6636538b',
        'irbgs_interleaved.csv': 'b1115ecf4980df77e94eacc5a33d6d25ed42610007d30de42eb21288d0ca7ad4',
    },
    'bench-rbsv-gen-n6': {
        'rbsv.csv': '21e1ffeee795e8812ecfeea90a015c1ce3a85159aa72587182e40a59cb82b381',
    },
    'compare-exact-clifford-pauli-spam': {
        'rb.csv': '16933ff8a6d1729b200853a4267003ea4facadfcba9392ec28b5ad999acf7461',
        'rbsv.csv': 'ece6494df1dc676a1b9a8bc4279ef00a9c5d9231fea8ea6785ea636821717c0b',
    },
    'compare-exact-generator-delta': {
        'rb.csv': '898e0febf6f214b730bdab4386f93e76742994c62276bb989d03a4bc42b37e25',
        'rbsv.csv': '1d5a744b66e5514b5d4e5086114c3e987a8ce6de8634355c52ce1fedcbaa0f8e',
    },
    'compare-sampled-clifford-delta-n3': {
        'rb.csv': 'e4e903202029be52e7cf4f82fd7e5011b6c07c54a1463e03f960cd7cfeffc541',
        'rbsv.csv': 'e46a73055e27cc347d7cb226b383e60aac2109a5af3efc27b53e83d1e79570c7',
    },
    'compare-sampled-clifford-depolarizing': {
        'rb.csv': 'f301f35a736e09fd503cd71774739a9028ff1a665fd206c4f0bb4a8f49ba56fb',
        'rbsv.csv': 'c006ce2c17e4099a843bbb4fbf2e4b01bc94d933ffd989aaf90b8f22fd7e2091',
    },
    'compare-sampled-generator-pauli-spam': {
        'rb.csv': '3bcbbbe4a7b4b53b129a959da3cb553464a102f95806f698bde169fa7660e964',
        'rbsv.csv': '1fe7fdec12828cbbbfea6a6c14c18d3a96e53d31e040a678195c4dce52cb16c6',
    },
    'irbgs-delta': {
        'irbgs_baseline.csv': '5e0cce6b4c0d90eccc5a573535a1672f285b2b3f69f05a8f7632f8615e7301e6',
        'irbgs_interleaved.csv': 'ba838d08d7902edbdc62719457c736939a56cb3af277feb3ef29af09176b30bf',
    },
    'irbgs-depolarizing': {
        'irbgs_baseline.csv': '838d779d8b51fb169fcc25fa53a27e92dd9b2d15de2f0eb6847d841c36ec5abb',
        'irbgs_interleaved.csv': '909d574e98ee39ec82b03f47ae76ef216f62a168573b073620fd3f08c506d7fa',
    },
    'irbgs-pauli-spam': {
        'irbgs_baseline.csv': '16933ff8a6d1729b200853a4267003ea4facadfcba9392ec28b5ad999acf7461',
        'irbgs_interleaved.csv': '5efd964c7a210426588536d44d09f7e09822aae9a8fb6e3cf1a68f918dd0ed80',
    },
    'rb-exact-clifford-delta-n1': {
        'rb.csv': '8dc3a26c5461d9a6270e9a0332e55a39c3d6d79b2922c4deabc9d58f3239802d',
    },
    'rb-exact-generator-pauli-spam': {
        'rb.csv': '20f26d30672e3b1d20c2675071bb90da1568d411089f6e5e6866dd3d886d8451',
    },
    'rb-sampled-clifford-depolarizing': {
        'rb.csv': 'f301f35a736e09fd503cd71774739a9028ff1a665fd206c4f0bb4a8f49ba56fb',
    },
    'rb-sampled-generator-delta': {
        'rb.csv': 'b7457468a9dbf2711c960984a71a616a6fe597dafd9074d28d85ba561373ef7e',
    },
    'rbsv-exact-clifford-delta': {
        'rbsv.csv': 'ae779f06610d7035ac2ac005f1fd4bdf564f7dbf6841b5c94836a81efc8dd65f',
    },
    'rbsv-exact-generator-delta-no-identity': {
        'rbsv.csv': '03a0f6ecb49172f993623abe0950feb11fd39a9fae4e7ebbce15dbd43015bec6',
    },
    'rbsv-sampled-clifford-pauli-spam': {
        'rbsv.csv': '08ac1c1219439e105da3ce91a42da2259a7800c2e1895c0d5c9b0f6eca419b5c',
    },
    'rbsv-sampled-generator-depolarizing': {
        'rbsv.csv': '0a49d625a99f7a7d08ac6908114f2125ae8de5f4ef114e91cd46eab443993ca2',
    },
}

PINNED_SUMMARY_DIGESTS = {
    'bench-compare-n2': '06dade6d5c531057bb24bf8222ab2e211b4f4a3cffd7e434a2aa854f84ede7a0',
    'bench-irbgs-exact-n2': '89dafbb6dcd48c982d814de4abd390e198ccb6fc2952092922c470fb80efa40a',
    'bench-rbsv-gen-n6': '499bbdf5ece786b028add7ba5431eab10e88a66096de02f961ad56b31f26fc58',
    'compare-exact-clifford-pauli-spam': 'be4aa1898111455898c2ef83fa38e5a821bf22e66a75322e12116d226c1f380f',
    'compare-exact-generator-delta': '311eadba1457208a907c355b32af9df50b36f0d8a09c01e5188ca1ec12c93025',
    'compare-sampled-clifford-delta-n3': 'eaf9fd3f5106de04fedbf3d7d8808fefefaec1d42dc0928b7b7dc0a127baa879',
    'compare-sampled-clifford-depolarizing': 'd6caa4ddaa20c87437ae729bfab4c869bfb6b038b2d3a6d982f7822eb8271e47',
    'compare-sampled-generator-pauli-spam': '7c91db4c4b9ebe31f2009a82eba438175f9b7f2f8a302bd1ac4ef77b40de54a9',
    'irbgs-delta': 'd22089f6ed27d5905f1661266d06a02fe265e8628f78e8b248f6b6276d7cb235',
    'irbgs-depolarizing': '7b8664415f8101631a03d8c957e8246b5646460c10898580439c1b712fb8a054',
    'irbgs-pauli-spam': '1a7ef1156237a5b7805a4e2e1473699137151b94d257abdf5e0b967e0638bbf9',
    'rb-exact-clifford-delta-n1': 'fab4e527dd438cb53443668a6cb1762bc3dc4f03f6f88b878abf1c711236dcbd',
    'rb-exact-generator-pauli-spam': '17d9de8d8749fd7016356a8bc626a0711cf34938f4daa1fd628e58f0fef0ade1',
    'rb-sampled-clifford-depolarizing': 'bbdc3eb02df4eaffbf9283e8c254977d183cf7a77521542cd7445d36b23772fb',
    'rb-sampled-generator-delta': 'bef65925835d9c031038c26cda4c301b3dc42ce1d65fc1c92c65adf970987803',
    'rbsv-exact-clifford-delta': '660347edb3cf9067e3bf2053359bb480681c85c5f671795f76444d0793e17d1a',
    'rbsv-exact-generator-delta-no-identity': '1df191e391c55d7acf6ab1bb9ed32945e9f337ab11dc621e573e075e8e9595cb',
    'rbsv-sampled-clifford-pauli-spam': '213414d090cac8826ae1f8a6d47c5734875bb32f14d73036c3040e12b2e9bd28',
    'rbsv-sampled-generator-depolarizing': 'da7a5c0f5a0bcc616856cf2530f41d9e6a543ad53f3adc269f9f011002952f17',
}


def _run(command, cfg, tmp_path):
    """Run ``rbsim <command>`` on ``cfg``; the artifact directory."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    return out


def csv_digests(command, cfg, tmp_path) -> dict:
    """Run ``rbsim <command>`` on ``cfg`` and return each CSV's sha256 by name."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(_run(command, cfg, tmp_path).glob("*.csv"))}


def summary_digest(command, cfg, tmp_path) -> str:
    """Run ``rbsim <command>`` on ``cfg`` and return the sha256 of its summary
    JSON without ``wall_time_s``, dumped with sorted keys."""
    (path,) = _run(command, cfg, tmp_path).glob("*_summary.json")
    summary = json.loads(path.read_text())
    del summary["wall_time_s"]
    return hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_csv_outputs_are_pinned(case, tmp_path):
    assert csv_digests(*CASES[case], tmp_path) == PINNED_CSV_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_summary_outputs_are_pinned(case, tmp_path):
    assert summary_digest(*CASES[case], tmp_path) == PINNED_SUMMARY_DIGESTS[case]


# reruns every case in a fresh process and writes each one's CSV and summary
# digests, as this module computes them, to the JSON file argv[1]
_RERUN = """
import json, sys
from pathlib import Path
import test_pinned_outputs as pinned
out = Path(sys.argv[1])
got = {}
for case, (command, cfg) in pinned.CASES.items():
    for part in ("csv", "summary"):
        (out / case / part).mkdir(parents=True)
    got[case] = [pinned.csv_digests(command, cfg, out / case / "csv"),
                 pinned.summary_digest(command, cfg, out / case / "summary")]
(out / "digests.json").write_text(json.dumps(got))
"""


def simd_targets() -> list:
    """The SIMD targets this numpy dispatches to on this host (those it was
    built for that the CPU has); none on a host with only the baseline."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]


def test_outputs_are_pinned_with_simd_kernels_off(tmp_path):
    # numpy picks its float kernels by CPU; with every dispatched target off
    # it runs its baseline ones, and every output must still be the pinned one
    tests = Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)),
               NPY_DISABLE_CPU_FEATURES=" ".join(simd_targets()))
    run = subprocess.run([sys.executable, "-c", _RERUN, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    got = json.loads((tmp_path / "digests.json").read_text())
    moved = [case for case in CASES
             if got[case] != [PINNED_CSV_DIGESTS[case], PINNED_SUMMARY_DIGESTS[case]]]
    assert moved == []
