"""Golden digests of seeded CLI output.

Each case runs one fixed, seeded command through ``cli.main`` inside a
temporary directory and compares the sha256 of every file it writes (and
of its stdout and exit code) with a recorded digest. A refactor that is
meant to change no result must leave every digest as it is; a change
that moves a digest on purpose records the new value here and says why
in CHANGES.md.

Dense linear algebra (QR, eigh) and numpy's vector loops round
differently under another numpy build, another OpenBLAS kernel set or
another CPU dispatch target, and OpenBLAS and numpy pick both by the CPU.
So the digests were recorded under one configuration, which conftest.py
pins on numpy 2.4.6, and the cases skip under any other, naming it.
"""

import ctypes
import glob
import hashlib
import os

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from duality_lab.cli import main


def _openblas_core() -> str:
    """The kernel set of numpy's bundled OpenBLAS, or "unknown"."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


#: the configuration the digests were recorded under, and the one in effect:
#: the numpy version, the OpenBLAS kernels and numpy's enabled dispatch targets
DIGEST_CONFIGURATION = {"numpy": "2.4.6", "OpenBLAS core": "Haswell", "dispatch": ["X86_V3"]}
CONFIGURATION = {"numpy": np.__version__, "OpenBLAS core": _openblas_core(),
                 "dispatch": [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]}

PATH_COUNTS = {"pure_pure": (2, 3, 4, 5, 6, 7, 8), "mixed_pure": (2, 3, 4, 5, 6, 7, 8),
               "mixed_mixed": (2, 3, 4, 5, 6)}


def _campaign(scenario: str, n: int, trials: int, seed: int | None = None, *options: str) -> list[str]:
    return ["campaign", "--scenario", scenario, "--n", str(n), "--trials", str(trials),
            "--seed", str(100 + n if seed is None else seed), "--output", "run", *options]


CAMPAIGNS = {
    f"campaign_{scenario}_n{n}": _campaign(scenario, n, 50)
    for scenario, counts in PATH_COUNTS.items()
    for n in counts
}
# a trial count that is a multiple of no small stack size
CAMPAIGNS["campaign_pure_pure_n4_131_trials"] = _campaign("pure_pure", 4, 131)
# a seed of five 32-bit words, so the mixing of the seed words past the first is pinned
CAMPAIGNS["campaign_mixed_pure_n5_seed_2p130"] = _campaign("mixed_pure", 5, 50, seed=2**130 + 3)
# a given quanton rank or detector dimension, which no trial draws
CAMPAIGNS["campaign_mixed_pure_n5_rank2_dim4"] = _campaign("mixed_pure", 5, 50, None, "--rank", "2",
                                                           "--detector-dim", "4")
CAMPAIGNS["campaign_mixed_mixed_n4_rank1_dim3"] = _campaign("mixed_mixed", 4, 50, None, "--rank", "1",
                                                            "--detector-dim", "3")
CAMPAIGNS["campaign_pure_pure_n5_dim2"] = _campaign("pure_pure", 5, 50, None, "--detector-dim", "2")

VERIFY_CONFIGS = {
    "pure_pure_gamma": ["--scenario", "pure_pure", "--n", "3", "--gamma", "0.4", "--detector-dim", "5"],
    "pure_pure_seed": ["--scenario", "pure_pure", "--n", "4", "--seed", "11"],
    "mixed_pure": ["--scenario", "mixed_pure", "--n", "3", "--seed", "5", "--rank", "2", "--gamma", "0.3"],
    "mixed_mixed": ["--scenario", "mixed_mixed", "--n", "3", "--seed", "5", "--detector-dim", "4"],
}

VERIFIES = {
    f"verify_{name}_{fmt}": ["verify", *argv, "--format", fmt, "--output", "report"]
    for name, argv in VERIFY_CONFIGS.items()
    for fmt in ("json", "csv")
}

OTHERS = {
    "sweep_n3": ["sweep", "--n", "3", "--gamma-range", "0:1:6", "--output", "sweep.csv"],
    "fringe_n2": ["fringe", "--n", "2", "--gamma", "0.6", "--output", "fringe.csv"],
    # n = 3, a grid other than the default, and the CSV written to stdout
    "fringe_n3_stdout": ["fringe", "--n", "3", "--gamma", "0.35", "--grid-points", "256"],
}

COMMANDS = {**CAMPAIGNS, **VERIFIES, **OTHERS}

DIGESTS = {
    'campaign_mixed_mixed_n2': {
        'exit': '0',
        'stdout': '9e8163d6c4d2c0adf77b4994b6adb8a22c8081a9a220669ea345cd6f93d342c0',
        'run.csv': '3e026d2ad0985b80ea18b811d140bd5525df7307f529587c189860ddc0e4f3e7',
        'run.json': '859a3f3f143feac069c011c61a542a9809c678f186bcfd63db71b8b237b24012',
    },
    'campaign_mixed_mixed_n3': {
        'exit': '0',
        'stdout': '21265f239eebe89ac5e9fc411ec35aa52697d4a1d4f8f7cfe857f19c9abe88ff',
        'run.csv': '91b5c5402e2b00d8fceee475069eb4da4b5700441dbc79fe0661c1ca926c8098',
        'run.json': '7598e6ca03d13d60e20690cfaa0d473c95d8631d52111b4f3d48ee750961d209',
    },
    'campaign_mixed_mixed_n4': {
        'exit': '0',
        'stdout': '0c887a46d63e5521ad67e2c5f87bcbda785b4ca46a6bf55d358ee6cea28db13a',
        'run.csv': '5845e0683be3ad0aa71bbcdd8a3816be15a92923a2ff6d1fb2fc4d5cdc71df95',
        'run.json': '8f75737bb0581fdf225a408a79e6f39b1d8232e09e5d1943584f5bcceb9ce5ca',
    },
    'campaign_mixed_mixed_n4_rank1_dim3': {
        'exit': '0',
        'stdout': 'e867acdfe19728abb0234358f10d1f7a0f98ce7313f51bc295886ead0210a220',
        'run.csv': '8acdc28b9eb7bd06f7830948c4060f7c93485de18f6d965a6b940be586dc368b',
        'run.json': 'e8600e421f516a5f1e8bc094d0b804ed7e05502b2ae28ee9232e770a64c0174d',
    },
    'campaign_mixed_mixed_n5': {
        'exit': '0',
        'stdout': 'e867acdfe19728abb0234358f10d1f7a0f98ce7313f51bc295886ead0210a220',
        'run.csv': '85aef1d238fa86c909d4d5b30c006a7d0e8d071c1929ebd5cff657a9cd182367',
        'run.json': 'a13e4fe0f3a68b2f9e6fb234bca359b3df37fa0483231baa93b38b2c0fc864af',
    },
    'campaign_mixed_mixed_n6': {
        'exit': '0',
        'stdout': '21265f239eebe89ac5e9fc411ec35aa52697d4a1d4f8f7cfe857f19c9abe88ff',
        'run.csv': '9e8adddbf7cb9077627778fc355c3b2e8b585cee5cd50a7ac1ab5008c2e8b0f1',
        'run.json': 'c1177f9aac68980f3167cf7bc4d2714752dbd9b2e4aa146cb92905e30860a618',
    },
    'campaign_mixed_pure_n2': {
        'exit': '0',
        'stdout': 'a90840ccd4664c69fe91068f861a40ee7a3e3e3e4593eb2094e0675d9fd17e52',
        'run.csv': 'ba6d805f4ea22d7799d7d67d80a3363f852490ffd8f9d2fc3f91f92d9a962616',
        'run.json': '73b797f1bd527041bbd1b34990d82fa1647e0ee0501ec68dbc5dfc0b12f3cf6c',
    },
    'campaign_mixed_pure_n3': {
        'exit': '0',
        'stdout': 'a90840ccd4664c69fe91068f861a40ee7a3e3e3e4593eb2094e0675d9fd17e52',
        'run.csv': '4d3c3b04f55d49b36ca94ba60da8a50bbd3d0f99194b62d692066135788f9947',
        'run.json': 'f3bba1efa94cc8f42bb65415f6851134b92b18b137a1bc32c7a31e75d59f6df2',
    },
    'campaign_mixed_pure_n4': {
        'exit': '0',
        'stdout': '0cddc634ff790cfd2f5870dc31013b4cfcf7bb84232851c8972abd140c34a184',
        'run.csv': 'ef54c077e90eb986c9b092e46bc07dca4f30e761db15088d7cb37c524414ab7f',
        'run.json': '165913fb21ee11aaa137a13bf9a4507cc3b2fd54d3f5d6a148740976d2b86061',
    },
    'campaign_mixed_pure_n5': {
        'exit': '0',
        'stdout': '0cddc634ff790cfd2f5870dc31013b4cfcf7bb84232851c8972abd140c34a184',
        'run.csv': '80730b9bd90dadd0f76280156bdf16e83d1df1b31e76e4f780275ebc43d50279',
        'run.json': '4dbcecf2e50e4edec8db163664df9d73574f7041cf663ca9f9f891bbb6481d65',
    },
    'campaign_mixed_pure_n5_rank2_dim4': {
        'exit': '0',
        'stdout': 'b949a354f79c0f44a373d87454f0932c2495014c5f2e865b24330d54e8020623',
        'run.csv': 'a7d717d112d7009c3941507d321d6e729a097ba192d2aa8920e9ae6ad45fcad4',
        'run.json': '0fc55de276a3298676a8ebc7d2779cc904334ca44ad457a6bf901980de7de42d',
    },
    'campaign_mixed_pure_n5_seed_2p130': {
        'exit': '0',
        'stdout': '03cef791c2e00a39bd44980f252ec233e63531cb71d4a5b5b03afd2223d6070f',
        'run.csv': '2120c9526a8cf7f2f335652606a299fe542ee8561cc256cdbaab94b94bde9a1f',
        'run.json': '84c17a38787e615a3ad333711fa36206016d0d6ce20668b9852e9d1685b89bab',
    },
    'campaign_mixed_pure_n6': {
        'exit': '0',
        'stdout': '0cddc634ff790cfd2f5870dc31013b4cfcf7bb84232851c8972abd140c34a184',
        'run.csv': 'dca29723d5e9ebcf522cb3b6540b4414ee5714370b64e8cb6b28351b395aaf9a',
        'run.json': '42ed28f537c66128943251a9e1e03af79cea7d7d4e8aa5bd2efe56f562b0ea7e',
    },
    'campaign_mixed_pure_n7': {
        'exit': '0',
        'stdout': '03cef791c2e00a39bd44980f252ec233e63531cb71d4a5b5b03afd2223d6070f',
        'run.csv': 'e1129ccf042f34dd3ac1d77417d8100d7ac2e8238afe1d5ccde2ff5b0407cfff',
        'run.json': 'b6d7a22a9e960276adcc6f6256b34cced3837aeb26a2821ce6c14450ae689cea',
    },
    'campaign_mixed_pure_n8': {
        'exit': '0',
        'stdout': '03cef791c2e00a39bd44980f252ec233e63531cb71d4a5b5b03afd2223d6070f',
        'run.csv': '2bdff3ffc7cde9c095cdd15af9caef9d68acca22eb8baea9bda5422ffbd6cb59',
        'run.json': '3a4bb589eabae60b41f56b95672f35743132a74f4527363b367fc9510753123c',
    },
    'campaign_pure_pure_n2': {
        'exit': '0',
        'stdout': '1fc8826d9986de7c9ac3ac461daccb6d3cd2cb5ad3817480ef73d55f125ddc99',
        'run.csv': '1c8ca88bfe62ff9b49fa0bc84d723e97763ddd5ae812bcf727f5e74f482e3349',
        'run.json': 'bb001bd127b5517edb01f428479559f2d634f3a9722a54525447865533daeae7',
    },
    'campaign_pure_pure_n3': {
        'exit': '0',
        'stdout': 'b0ab3940fd2e0637e2ff182a68290a98b6429265361f99065a7bca91c24fba46',
        'run.csv': '5e7c382b129d312a406d4a4a2453bb23968e3737927447141cee6394694652a4',
        'run.json': 'a91e74a387201fbbd46869fde65310e2a5ccd68ea61037c3d4145a4cb929cc20',
    },
    'campaign_pure_pure_n4': {
        'exit': '0',
        'stdout': 'e8a3d2a9bcd2be11ce4558233856e6399127c493cbbc1a3940e11e400aa5fcc2',
        'run.csv': '85d98c8ec9d88b7169d02790bd9eabbe29fdf52690fb5f491670d1b622194464',
        'run.json': 'ad233caaa5d50ca9c5d0a1e6407f0a3e8e37b59c60e5a32f8eb4cd875ae8ae36',
    },
    'campaign_pure_pure_n4_131_trials': {
        'exit': '0',
        'stdout': '2d324cfd241dcb691e439c4c3744c214f82cdd7dc061d64d7bff69bf77789d33',
        'run.csv': 'e83bdc6293bb9ecd2a075b22eb6f585d371135507b6759fbdc3e3aa40fa4a840',
        'run.json': 'e6ddef2a196450330393db52367b9415ad33e5f8d6dbe0865f9db00edef256b0',
    },
    'campaign_pure_pure_n5': {
        'exit': '0',
        'stdout': 'e8a3d2a9bcd2be11ce4558233856e6399127c493cbbc1a3940e11e400aa5fcc2',
        'run.csv': 'b800690327f3870cb3c8c38af34a08eaa92a8ed45e5b3514bc1ea56e4a525c0f',
        'run.json': 'b894c7e5c70ea1b7c7a5910906a8e8bbcaba92f2870c5cd90cd5b8f9dd8f0662',
    },
    'campaign_pure_pure_n5_dim2': {
        'exit': '0',
        'stdout': 'b0ab3940fd2e0637e2ff182a68290a98b6429265361f99065a7bca91c24fba46',
        'run.csv': '1699e259558cb9cfe827d09619b0c66afdb0cd0231f1bdf39e52659a83d718d6',
        'run.json': '8269e422549b811c86a838963c929786ee54909b895885404550b50dfde6cbe5',
    },
    'campaign_pure_pure_n6': {
        'exit': '0',
        'stdout': 'e8a3d2a9bcd2be11ce4558233856e6399127c493cbbc1a3940e11e400aa5fcc2',
        'run.csv': '374d59946909464b2e1188bbedd0471ce2fe71b5340b96144ec0bc2d935872f3',
        'run.json': 'a0ffb49b0395fb932aeacb2d3d81d79869a85f0d7a1cf742502f1db1557c6f4c',
    },
    'campaign_pure_pure_n7': {
        'exit': '0',
        'stdout': 'e8a3d2a9bcd2be11ce4558233856e6399127c493cbbc1a3940e11e400aa5fcc2',
        'run.csv': '629a99cde0ef346c71514ab30d244fd907ca5636c61f3556ff57204193ed5c98',
        'run.json': '65e8a173648bcc6dcf20399c84a87c4d2f39064fb9d1ccee380621371dd6c3ba',
    },
    'campaign_pure_pure_n8': {
        'exit': '0',
        'stdout': 'e8a3d2a9bcd2be11ce4558233856e6399127c493cbbc1a3940e11e400aa5fcc2',
        'run.csv': 'c7c521054eee7f69dd883dcaafa2084fb5bf911e74b24ed3458833b67d534d06',
        'run.json': '15dc0f364ba63f44ec5a662839d5b2ea8cf9a3e438ba9bc287c9695ae2077025',
    },
    'fringe_n2': {
        'exit': '0',
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'fringe.csv': '5e2f60d13d4e7825fd5bbed0cff4612432012749867c3818a437997da4faa3c4',
    },
    'fringe_n3_stdout': {
        'exit': '0',
        'stdout': '105748738ae614137e9c90c3cff3728967972a8956d4f8d4a1033dd8c6fcc7e7',
    },
    'sweep_n3': {
        'exit': '0',
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'sweep.csv': '9c98654cd10307a1f1ff4a38375ebbbc64063307567f0a37d307f53277aaefed',
    },
    'verify_mixed_mixed_csv': {
        'exit': '0',
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'report': '8fb2b68f75c41ccac03e41b713502073dfb8784c5730651ae1900192424a5259',
    },
    'verify_mixed_mixed_json': {
        'exit': '0',
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'report': 'a58c27e3bf642301060af3e473e781593397f6a0cd61a7a5482ee3a4bac0a50a',
    },
    'verify_mixed_pure_csv': {
        'exit': '0',
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'report': '20e1b90ff4d1c783c0b61026dc3203c5c4bf88e646c2e9e6184c97ba605c4e27',
    },
    'verify_mixed_pure_json': {
        'exit': '0',
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'report': 'dc041c48c8cb139130d042194c079fb82ff7e9e09a09fe8f663672719a2df93c',
    },
    'verify_pure_pure_gamma_csv': {
        'exit': '0',
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'report': '0271a3d6232aff8033504ad76434b134e92dfee2559c29f919a0a2a1ec49ca2e',
    },
    'verify_pure_pure_gamma_json': {
        'exit': '0',
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'report': 'c86e8aa9dfe71d4fffb194710a46f447b483f1f7eda61822bb2fa4b999bdd3c6',
    },
    'verify_pure_pure_seed_csv': {
        'exit': '0',
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'report': 'cf6fff38a7858819f6cd421666c6a8507f416846a0fe67b88e4ffa29849d0dcb',
    },
    'verify_pure_pure_seed_json': {
        'exit': '0',
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'report': '25d84f473f0a3cf9317c875c1333ec70de2ff6ce71821a75feb6aa0bce946453',
    },
}


def _outputs(argv, tmp_path, monkeypatch, capsys) -> dict[str, str]:
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    out = capsys.readouterr().out
    digests = {"exit": str(code), "stdout": hashlib.sha256(out.encode()).hexdigest()}
    for path in sorted(tmp_path.iterdir()):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.mark.skipif(CONFIGURATION != DIGEST_CONFIGURATION,
                    reason=f"digests were recorded under {DIGEST_CONFIGURATION}, not {CONFIGURATION}")
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_digest(name, tmp_path, monkeypatch, capsys):
    assert _outputs(COMMANDS[name], tmp_path, monkeypatch, capsys) == DIGESTS[name]
