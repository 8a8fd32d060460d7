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
        'stdout': 'c775489d98e1e715c2017fdc43d3f378f343744f2187695b251e7f18afcb8da8',
        'run.csv': '31806e1457062959517566786cf12842607f30290a8825c01dacd58f635dfb61',
        'run.json': '4815e34377079988d9fcd50ddd84cf644ce4f213a76e354144c608bd6c671017',
    },
    'campaign_mixed_mixed_n3': {
        'exit': '0',
        'stdout': '9e8163d6c4d2c0adf77b4994b6adb8a22c8081a9a220669ea345cd6f93d342c0',
        'run.csv': 'f0f41d5b1f3d2f1dc4063e4c0c40e92c05952df5e8f4d84dda03b6513a544633',
        'run.json': '12ec7557f3c609cd5d3897b2faba13d27417946c55c4be98da505b3132c273c1',
    },
    'campaign_mixed_mixed_n4': {
        'exit': '0',
        'stdout': '453b98328e39a18a0ed2cebb72f72788a05633797331af13bad6d0a9696defc3',
        'run.csv': 'b875f43fa02558b7a91309c1c4dd07dceae9d674214b433ef1aa7a34b3736e3b',
        'run.json': '0f486a6e9ab29b5570d66e2638240a187a2c22a9d25dd850db33c5527012436b',
    },
    'campaign_mixed_mixed_n4_rank1_dim3': {
        'exit': '0',
        'stdout': '27c557510886c2ff8d1e5c576bd82d16d964214071d724bcafb0cfb4cc1ba936',
        'run.csv': '75db01b7967af707ac7279c0cfe2ec8838f0e489f7b77137b5b3a1b15273926c',
        'run.json': '91aac412666992bad77468f0f82e0cef16ea4d47cc980ce84e036ecdb3ee34a1',
    },
    'campaign_mixed_mixed_n5': {
        'exit': '0',
        'stdout': 'e867acdfe19728abb0234358f10d1f7a0f98ce7313f51bc295886ead0210a220',
        'run.csv': '7428d8c38c9557571a142ecbeef5747e7eb3ce37f53f193123bb4492c141c8fc',
        'run.json': 'df6bde2431b05d08578c636d9a8fe3556de4cc391f6756498a56cc3bda1d9cc4',
    },
    'campaign_mixed_mixed_n6': {
        'exit': '0',
        'stdout': '58e3fc2978a13f121971c1606a59f6363c6fca8f95953c1df2fb803a57ad8506',
        'run.csv': 'ee4ffc6f470664ca35dad3dfceb57f5087958e36477ecbd8fa0ea0ebb01185ac',
        'run.json': '6ae00141db340c59981b7469b84afc5c07610e8dbfc77a23a8ecec33ad466366',
    },
    'campaign_mixed_pure_n2': {
        'exit': '0',
        'stdout': '6624791e63da9e000b64369998ec9c540de48594ce1c2c2d2e96918c7cf9253c',
        'run.csv': 'dd7e1b5d915145c1e32c432676f9a59e95f42a176a464473603a37e7bec62db0',
        'run.json': '2f9ca8602aa94508c50710c1b4c09102ad2184d5e249425fef12f617b755759c',
    },
    'campaign_mixed_pure_n3': {
        'exit': '0',
        'stdout': '0cddc634ff790cfd2f5870dc31013b4cfcf7bb84232851c8972abd140c34a184',
        'run.csv': 'dd66bde61381a6663dc71e1cae7a33acdcfb0d70e4965245555a55c562c1b3c8',
        'run.json': '999faad8c17a3a9a18cb2f49f4864abd011682fa2ec41f4a1bbea249f67ca7fc',
    },
    'campaign_mixed_pure_n4': {
        'exit': '0',
        'stdout': '0cddc634ff790cfd2f5870dc31013b4cfcf7bb84232851c8972abd140c34a184',
        'run.csv': '7f58a167d036a3407e11b0de9f91ceb4fd3de75b4774c53f0822cdd51dc23bf4',
        'run.json': '4f9804b094095c294b8d3239bd00dddf610a5d07fda9b6cac8baadce3dc87cdb',
    },
    'campaign_mixed_pure_n5': {
        'exit': '0',
        'stdout': '03cef791c2e00a39bd44980f252ec233e63531cb71d4a5b5b03afd2223d6070f',
        'run.csv': '8736d5fd95295bf70660e28107bd21be962c10fe6d87a1cd26028305fea304f6',
        'run.json': '1f0f7159041bc4bf887524d90692210f9ff947631bfb9dde98abf9fd8c462c63',
    },
    'campaign_mixed_pure_n5_rank2_dim4': {
        'exit': '0',
        'stdout': 'b949a354f79c0f44a373d87454f0932c2495014c5f2e865b24330d54e8020623',
        'run.csv': '76048fcf5d8ca52a7a852fb5ae44030fbaf5e29d3342b717f1ec92726fad7f8d',
        'run.json': '4bb66911e860c408042d3c9169ddb3d9035a48206cc921baad6182241bd125f6',
    },
    'campaign_mixed_pure_n5_seed_2p130': {
        'exit': '0',
        'stdout': '03cef791c2e00a39bd44980f252ec233e63531cb71d4a5b5b03afd2223d6070f',
        'run.csv': 'a3e513cfde3b04605e82e61a97788c5c5046399ddbf6153914f4a71263b2ebef',
        'run.json': '661516b6a78ac1c23862497ac442aa666724ded59c817d2f1ecaf8d2ba565f62',
    },
    'campaign_mixed_pure_n6': {
        'exit': '0',
        'stdout': '03cef791c2e00a39bd44980f252ec233e63531cb71d4a5b5b03afd2223d6070f',
        'run.csv': '3d2fd5086cbb5ede6b02a52dcc83d1f30ddef2ecb79ae486fe601401750e1674',
        'run.json': 'da15245078b44ae314efcb639db9a9da9d0293ebe7ee84e842b713f1cdd7a176',
    },
    'campaign_mixed_pure_n7': {
        'exit': '0',
        'stdout': '03cef791c2e00a39bd44980f252ec233e63531cb71d4a5b5b03afd2223d6070f',
        'run.csv': 'c8c388ccaffbf57c1cfd8c0fa2f905b9a5177967ab3be7e8e6157f4e268bea61',
        'run.json': '30eccf8d4a5e24d1724f3c5c05c7accb7c44220dcd443306aec7663b7ebd493f',
    },
    'campaign_mixed_pure_n8': {
        'exit': '0',
        'stdout': '03cef791c2e00a39bd44980f252ec233e63531cb71d4a5b5b03afd2223d6070f',
        'run.csv': 'aebd0ccbc6e536babfdceaec5f45aeaffb54c8cedb878172293573f7f88834bd',
        'run.json': 'c0382e0cd3917acaf696abd6153811f6a87e54ba121d3298db4e660f91b8bd3d',
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
        'report': '9eac355afd7ce53110c733aeca6fba7d705e8aad485258645eb439b855afd8e4',
    },
    'verify_mixed_mixed_json': {
        'exit': '0',
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'report': '12deb85e0bde0e384614eedecc2aa7b8c0e8d4d6b7ad9037b8ebdc3a84fbf6e0',
    },
    'verify_mixed_pure_csv': {
        'exit': '0',
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'report': '3a7ca4e459ef9bd9e22b8480255fcfaf74815287aa51b8cc4166443cb61219b0',
    },
    'verify_mixed_pure_json': {
        'exit': '0',
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'report': 'bada11dee3698004ed5c07adacaa55dbda1f218fe5e67ec5bb25bf1bf40f7e50',
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
