"""Every CSV and summary JSON of a fixed set of small runs, pinned by its sha256.

The CSV digests were recorded before the ensemble drivers ran every length
as one batch; they hold the drivers to byte-identical outputs whatever the
batching.  The CSVs carry no fit, so the summaries' digests (wall time
dropped, keys sorted) pin the fits, recorded before ``RBData`` became the
one fitted-curve type of every driver.  The cases cover every protocol, sampled and exact mode, Clifford
and generator elements, Pauli-diagonal and dense noise with SPAM, unsorted
and repeated lengths, and the three benchmark workloads' configs at seed 7.
"""

import hashlib
import json

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
        'rb.csv': '976f7b790579dce27d64273765c74a83c8544d596a8d7f2df694e58107506f74',
        'rbsv.csv': 'd9d94a968f95f916c1e64065b7a08780a56a240a79342ad48ba5d6ab2a18d84a',
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
        'irbgs_baseline.csv': '976f7b790579dce27d64273765c74a83c8544d596a8d7f2df694e58107506f74',
        'irbgs_interleaved.csv': 'c36a2ec527ad56e6d68fb91fd9da51536b5dc034053a380f77245d68b81e04a4',
    },
    'rb-exact-clifford-delta-n1': {
        'rb.csv': '8dc3a26c5461d9a6270e9a0332e55a39c3d6d79b2922c4deabc9d58f3239802d',
    },
    'rb-exact-generator-pauli-spam': {
        'rb.csv': 'f47e4327b401a492f6656fd90e64bcded9fd129a9da8b6ed68f0c3458ebaf214',
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
    'bench-compare-n2': '176548947b0c4f53d342e37710914e914d6ba472a7d43f02bddd7e3eeb4b32a7',
    'bench-irbgs-exact-n2': 'd9cb44d0b466878db1ee187d55efcdb7de00ef6f1332c97938821cfaa0a7c3ed',
    'bench-rbsv-gen-n6': '1abecd6b6a38f68def99725e9dc38f6f8c1e686e67800fa6fe1ba931ae34bd48',
    'compare-exact-clifford-pauli-spam': '5ad5077e32aa76e26d662025c5e12ec9f1b45c62064237c2d17894326d69f942',
    'compare-exact-generator-delta': '05e9ba55eade9ab761fdbf3f50eb9b6300c76dce3729f5149db69e083c2092e2',
    'compare-sampled-clifford-delta-n3': 'd1dceef0bb4881e66ec7f37204139eb16c0948641882b4d5cc085fbb46ec210d',
    'compare-sampled-clifford-depolarizing': 'a0fe511324a6a549ce76c4023c7d92edfb9d95d062eeb2f189900b953a164c8b',
    'compare-sampled-generator-pauli-spam': 'bfa55645b66f741ce45e90c5c83c1f470257e68d7d0d5d9f20b146afbfcde4af',
    'irbgs-delta': '384cae22f8b616babca3041d46ad7215562357d74244135126c276b2ac659991',
    'irbgs-depolarizing': '014d343edb14073729e24e08dd2aeb08ec2405767552bf96ca7381a174ad6f1c',
    'irbgs-pauli-spam': '95724b1d90ddc5cbd4a0ffd8caae2713f7ae1a71093777a3281beeae20f640a3',
    'rb-exact-clifford-delta-n1': 'ff2932bf30f677d88e8eccf0b5d1a9e4333036a6cfe0278201bd55aecdd302bf',
    'rb-exact-generator-pauli-spam': 'e6a3700d5158d6fcdb56b74041261e075924b974b4c77fbe690b4a2090de6542',
    'rb-sampled-clifford-depolarizing': '5b6627ff0d2234ddd03343fb15ce7725b99574b751f6c53d471310ad1f640369',
    'rb-sampled-generator-delta': '5b48d44d455abf433433ffa055d4b43f4058018c14eee2b2896682b73248e1f6',
    'rbsv-exact-clifford-delta': '7965b6f8da2fd99575eeb14744246c535ee732bd30c46de5b3be909d1810d625',
    'rbsv-exact-generator-delta-no-identity': 'e37fdafda4563405432e58a8048195fa7c65acac614f2ea947ff01cf3321273b',
    'rbsv-sampled-clifford-pauli-spam': '7fab42d60be3a8e786432da4442b0029217487582f6009e68ed136d0f4401b02',
    'rbsv-sampled-generator-depolarizing': '66ec6fb8b2ae037c322e02127141f7e0a503fba9ed1e9ac40a2c858b555b9dd1',
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
