"""Golden digests of seeded CLI output.

Each case runs one fixed, seeded command through ``cli.main`` inside a
temporary directory and compares the sha256 of every file it writes (and
of its stdout and exit code) with a recorded digest. A refactor that is
meant to change no result must leave every digest as it is; a change
that moves a digest on purpose records the new value here and says why
in CHANGES.md.

Dense linear algebra (QR, eigh) may round differently under another
numpy build, so the cases skip when numpy is not the version the digests
were recorded with.
"""

import hashlib

import numpy as np
import pytest

from duality_lab.cli import main

DIGEST_NUMPY = "2.4.6"

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
        'stdout': '27c557510886c2ff8d1e5c576bd82d16d964214071d724bcafb0cfb4cc1ba936',
        'run.csv': '0db7098de3e04723b204bb1eb785406203c0e220d2e7012d61f7c778b6ac3f9c',
        'run.json': 'a8e504fb06f1ad250c5713b7045176e2d2a2aca63e1a9cf9030448482034461e',
    },
    'campaign_mixed_mixed_n3': {
        'exit': '0',
        'stdout': '3488416262cf884d10975f214d9bb41a5c2522f4f36b96caa89dfc394c478314',
        'run.csv': '01d210a25bd260290855ccc23ffe4db16fb5b1eb10f777dbeca471810519eddc',
        'run.json': 'a007b4963abe0e781ac8cbf72d71fcb57e9a585881ba40cbd72d366ae1e8e007',
    },
    'campaign_mixed_mixed_n4': {
        'exit': '0',
        'stdout': '453b98328e39a18a0ed2cebb72f72788a05633797331af13bad6d0a9696defc3',
        'run.csv': 'd35c0ef47646fc1bc3665c10742c363e93e63457be6e01aca1144ed577867c1d',
        'run.json': 'e62ef30e446a846e144cb98d59429b98f836e096fc36362f1e9034c0e3fdcf65',
    },
    'campaign_mixed_mixed_n4_rank1_dim3': {
        'exit': '0',
        'stdout': '9e8163d6c4d2c0adf77b4994b6adb8a22c8081a9a220669ea345cd6f93d342c0',
        'run.csv': '6874287a0b3b465489771898d2af740f7e0da31cc3d1714e6c2661ff5d6dab81',
        'run.json': '43442f76235b3267de6ddccde9e89667f4e996486197eaf2ed86dbfad71fb319',
    },
    'campaign_mixed_mixed_n5': {
        'exit': '0',
        'stdout': '3488416262cf884d10975f214d9bb41a5c2522f4f36b96caa89dfc394c478314',
        'run.csv': 'ebf81014b10f13803f8d5310fe416b80c567e787f10c517421f86814c5a84ad6',
        'run.json': 'a480abb2dc335d2a446cf3a50cfe5a2f5f113c6419de1a296a998bf8d13a9485',
    },
    'campaign_mixed_mixed_n6': {
        'exit': '0',
        'stdout': '58e3fc2978a13f121971c1606a59f6363c6fca8f95953c1df2fb803a57ad8506',
        'run.csv': '45ffdd653c5ef212c71da0fe3954245531d9760013b6c0147a7c90055c5213cf',
        'run.json': '3a0019212405f986f906f6cec5efedc86689fe4d451649cd18530e2fcb8eabf0',
    },
    'campaign_mixed_pure_n2': {
        'exit': '0',
        'stdout': '6624791e63da9e000b64369998ec9c540de48594ce1c2c2d2e96918c7cf9253c',
        'run.csv': '8a229d7051868424b4b3ebbd6542403f03ae0cdb25512d493cf044dcb5402ef5',
        'run.json': '8a2a64adfff3319062255852fc563182cfe0a0b28b8d908cd3820aa9db2f7b8e',
    },
    'campaign_mixed_pure_n3': {
        'exit': '0',
        'stdout': '0cddc634ff790cfd2f5870dc31013b4cfcf7bb84232851c8972abd140c34a184',
        'run.csv': '8bb10598dcea206d470856123baaaa4befde62ade8acd5fc90711ec717b06024',
        'run.json': '4aafe92733502ac54215e568dd1f58e6f2a5d00ae227d7a71b801b9a06cbb00b',
    },
    'campaign_mixed_pure_n4': {
        'exit': '0',
        'stdout': '0cddc634ff790cfd2f5870dc31013b4cfcf7bb84232851c8972abd140c34a184',
        'run.csv': '7fe4185ed28e153c042f2d41a22bdad1a512a937bd39bcdfceef6ce3729380a7',
        'run.json': '3ed8c3b17c3e1bc6a80b3c2fd65cae81b9ff76f7c6bcbeeaeccc2d3b38e3a602',
    },
    'campaign_mixed_pure_n5': {
        'exit': '0',
        'stdout': '03cef791c2e00a39bd44980f252ec233e63531cb71d4a5b5b03afd2223d6070f',
        'run.csv': '908674ed58f6b7ea61ea8cd7056ae08fc97dc35219694157ec09878a937837ab',
        'run.json': '929fbb3242e3c19e70b3789a2b35f4817f67f7428873fe9bc6586816cf918b6a',
    },
    'campaign_mixed_pure_n5_rank2_dim4': {
        'exit': '0',
        'stdout': 'b949a354f79c0f44a373d87454f0932c2495014c5f2e865b24330d54e8020623',
        'run.csv': '358cef9e5d25228e0702e29622f994495beae3c4444f457965350b655f30e79f',
        'run.json': '99d94a832a9a0c8e4cebba9182d38110f3fd2b2dee024d17b6c09c356962d210',
    },
    'campaign_mixed_pure_n5_seed_2p130': {
        'exit': '0',
        'stdout': '03cef791c2e00a39bd44980f252ec233e63531cb71d4a5b5b03afd2223d6070f',
        'run.csv': '18688ab51136f0108be88f29436644e4b78ad66fc499e76f63c641adaf0a4a01',
        'run.json': '1798a8d078afd1be5a8339e570e3535e5e6ef1769abf8299885f774da7710a07',
    },
    'campaign_mixed_pure_n6': {
        'exit': '0',
        'stdout': '03cef791c2e00a39bd44980f252ec233e63531cb71d4a5b5b03afd2223d6070f',
        'run.csv': '31ca1537bbe4918afedb9ea145088dd39360f22a53c9441e77e014e198e87420',
        'run.json': 'c542d84f757fe0e2ddb7a3fe60148e27efe1a27de011f6486fb1482bbad81afc',
    },
    'campaign_mixed_pure_n7': {
        'exit': '0',
        'stdout': '03cef791c2e00a39bd44980f252ec233e63531cb71d4a5b5b03afd2223d6070f',
        'run.csv': '45e1bf0f8148aab8117104721c1920f8237fc2351b0e43da341505aed3b76ad2',
        'run.json': 'eab1fe609d2b7c9adb91121addd3ac1e893a9fb16d60a0f5759aa1e3088702de',
    },
    'campaign_mixed_pure_n8': {
        'exit': '0',
        'stdout': '03cef791c2e00a39bd44980f252ec233e63531cb71d4a5b5b03afd2223d6070f',
        'run.csv': 'ac6ef6c37a4eab46413894e4e5e1bb4c3196ce12d844481dc2126a3d228e2622',
        'run.json': '3b288c9801b0c7f05b390d5dc393d2661ce69b7535759925dec06ce683e3232f',
    },
    'campaign_pure_pure_n2': {
        'exit': '0',
        'stdout': '1fc8826d9986de7c9ac3ac461daccb6d3cd2cb5ad3817480ef73d55f125ddc99',
        'run.csv': 'bb3f4528ed20d0708d189de052228c930eb4e963b497da19fe9bfc50bcad9d49',
        'run.json': 'bc024e184b5c14f666348bf1abdaa410dc082c766c066e01cadc0bcc59905a4c',
    },
    'campaign_pure_pure_n3': {
        'exit': '0',
        'stdout': 'b0ab3940fd2e0637e2ff182a68290a98b6429265361f99065a7bca91c24fba46',
        'run.csv': '5a358a2dd95c056090a9804ede49705c8431a8208867ef9c891774f3c8c5b6ef',
        'run.json': '703f71f9b319fd367a9004e893eb344b3f544442b7f88d316000eaca9abc4470',
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
        'run.csv': '4750aa2e406f16f3ffee5c7a2a6460660b677d3bd9a5d1121932d59f44f6a6a8',
        'run.json': 'fe7c3c140f2c7c50ac436033f5943d81b86c28c311a6f8159a28cd814b712172',
    },
    'campaign_pure_pure_n5_dim2': {
        'exit': '0',
        'stdout': 'b0ab3940fd2e0637e2ff182a68290a98b6429265361f99065a7bca91c24fba46',
        'run.csv': '2795a79915fa355f20cca9bac89a09e6009533b11226b6478e386b2ab2ae6749',
        'run.json': '73fe62bbbf973732883f5480751f57ba150cbeb16f443c4447e52dc9fd53f3a4',
    },
    'campaign_pure_pure_n6': {
        'exit': '0',
        'stdout': 'e8a3d2a9bcd2be11ce4558233856e6399127c493cbbc1a3940e11e400aa5fcc2',
        'run.csv': 'c79889032b017bce9952cce72cd7136c4464323dca51197b72e9f92e93c5a853',
        'run.json': 'd281a73d69e13d30394bae4409cb4bc3bc2303e81823bd86e131190ab0bac9a7',
    },
    'campaign_pure_pure_n7': {
        'exit': '0',
        'stdout': 'e8a3d2a9bcd2be11ce4558233856e6399127c493cbbc1a3940e11e400aa5fcc2',
        'run.csv': '6c6787e3a8fd5e4cbee1cb206f059b26ec19c9e6f874ccafc2ce2e3a0a5a9250',
        'run.json': '15524884383b7fba4c38ef0a739bf8a8e665ef65897785bf4faedf53967d05f7',
    },
    'campaign_pure_pure_n8': {
        'exit': '0',
        'stdout': 'e8a3d2a9bcd2be11ce4558233856e6399127c493cbbc1a3940e11e400aa5fcc2',
        'run.csv': '1d16034b969ebd80e44cdcdd2f635b31053306cb81ffbca7e334a4f60ca7528e',
        'run.json': '69603b135795d8ac66c6a060df60ffb0efea2d71db06d117b271893911b3549f',
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
        'report': 'd9fb708dd672871d3d62d992f0fe5eb0eb070b5f15c2dd68e8893c3ec548d301',
    },
    'verify_mixed_mixed_json': {
        'exit': '0',
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'report': '41ab5e656de61db26e4dc5cee58e2cf7ea4a05d9f23a8c0cda3c6eec97be86ce',
    },
    'verify_mixed_pure_csv': {
        'exit': '0',
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'report': 'a76d3e1c150f67cf10c30b3939d5dfa1f155a158fb5eb99650d13017dfdfc9e1',
    },
    'verify_mixed_pure_json': {
        'exit': '0',
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'report': '30c4862362e194b7ec631695868a5808d25d530c48ae31430ffcab63698305ce',
    },
    'verify_pure_pure_gamma_csv': {
        'exit': '0',
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'report': 'de55c5623fa9d220d9710f6db31ffe8430b5913bc86ef72bad1b9aab7e1221f2',
    },
    'verify_pure_pure_gamma_json': {
        'exit': '0',
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'report': '9b17993f4320eb4a3b455e3975cea59b1bed80c5ae3805be368dec6b0eff84c2',
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


@pytest.mark.skipif(np.__version__ != DIGEST_NUMPY,
                    reason=f"digests were recorded with numpy {DIGEST_NUMPY}, not {np.__version__}")
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_digest(name, tmp_path, monkeypatch, capsys):
    assert _outputs(COMMANDS[name], tmp_path, monkeypatch, capsys) == DIGESTS[name]
