"""Byte-exact stdout of the single-row commands.

`chi`, `leading`, `segre`, `canonical` and `gysin` each print one row.  Their
stdout through `cli.run` is pinned by its sha256 and length in every
`--format`, with and without `--float` where the command takes it, recorded
from the release whose handlers each wrote their own output.  Any change in
what these commands print, down to one digit or space, fails here.
"""

import hashlib
import io

import pytest

from orbichern.cli import run

PAIRS = {
    "p2": ('{"geometry": {"preset": "P2"},'
           ' "components": [{"degree": 12, "mult": "107"}]}'),
    "abelian": ('{"geometry": {"preset": "abelian", "n": 2, "selfint": 6},'
                ' "components": [{"mult": "inf"}]}'),
}

# argv (split on spaces, {name} = the pair file PAIRS[name]) -> (sha256, length)
GOLDEN = {
    "chi --pair {p2} --k 2 --format table":
        ("ba0853f77b4f68d6a4ca73e024f36062155aed77cd058f9f3a59463d463b0a2a", 10),
    "chi --pair {p2} --k 2 --format csv":
        ("ae169bd9c73984053fff13d34703254048a0a379f078fc9511be39deab4e82ed", 14),
    "chi --pair {p2} --k 2 --format json":
        ("fbf128ebac90d812b47c7d5cf1b3fef4dbea0769dd77357b420e6e31137b2c1e", 21),
    "chi --pair {p2} --k 2 --float --format table":
        ("f05c35e4b43addad90b5dedcaab2e8f6d794e4b5e4379efedcbb98a7d58e4f40", 17),
    "chi --pair {p2} --k 2 --float --format csv":
        ("dd338c25aaf215b35b0f8db944c2a95acf509aa42970c7a17a3ed6fe15e5908a", 21),
    "chi --pair {p2} --k 2 --float --format json":
        ("40f2d6a728c9f494b377fc429cac18b8796ffc36f1dadc92e17f441d8cecf13a", 28),
    "chi --pair {p2} --k 40 --format table":
        ("e17fd836e02dff5338e6e22ed0c7de78f610e106e486895683255022d15886a2", 68),
    "chi --pair {p2} --k 40 --format csv":
        ("7887f8420fec4adcd96b40d149a04d27ffd3c28f32a896dbb0fa25786d496c67", 72),
    "chi --pair {p2} --k 40 --format json":
        ("6c9330123e71ef5e31bbea7a31f45b05cb416fda8b546c96b35f590feebd6493", 79),
    "chi --pair {p2} --k 40 --float --format table":
        ("ad28c7f90bf95164f6486d8a5bb3964eb33ac7cdf599b5f1c85652c42e291837", 14),
    "chi --pair {p2} --k 40 --float --format csv":
        ("c202a8644a06b8a6a999fc0be8ccb680ca6296b4a079d5d07eed7e2c78c29cb0", 18),
    "chi --pair {p2} --k 40 --float --format json":
        ("bc4f90494922a8c281484e86fc3b65084674d3271837ed871113bccca29f9785", 25),
    "chi --pair {abelian} --k 3 --format table":
        ("06e9d52c1720fca412803e3b07c4b228ff113e303f4c7ab94665319d832bbfb7", 2),
    "chi --pair {abelian} --k 3 --format csv":
        ("a62c534dd207555fb6d6f210c325d029c8bdd0a136c623c1d86a2b2fbad7eb49", 6),
    "chi --pair {abelian} --k 3 --format json":
        ("e027141613fc7bc4fe43a2898f83894606269cafdb2cf6e5626aeb05f2b750a9", 13),
    # chi_3 is exactly 6, and --float rounds only the value: it prints 6
    "chi --pair {abelian} --k 3 --float --format table":
        ("06e9d52c1720fca412803e3b07c4b228ff113e303f4c7ab94665319d832bbfb7", 2),
    "chi --pair {abelian} --k 3 --float --format csv":
        ("a62c534dd207555fb6d6f210c325d029c8bdd0a136c623c1d86a2b2fbad7eb49", 6),
    "chi --pair {abelian} --k 3 --float --format json":
        ("e027141613fc7bc4fe43a2898f83894606269cafdb2cf6e5626aeb05f2b750a9", 13),
    "leading --pair {p2} --k 2 --format table":
        ("0607b84033d609518210cd0cfa14108ed17b7253c48789db308d8b88e1cd7111", 81),
    "leading --pair {p2} --k 2 --format csv":
        ("0da5d2f0892e47976a9941381e34924857ad1411461ecea20880a8b2125e77d0", 61),
    "leading --pair {p2} --k 2 --format json":
        ("44455b26f36f9bb9bf5e9bc54d58f2529c902e93de5dd83779a8101ff8c3e044", 86),
    "leading --pair {p2} --k 2 --float --format table":
        ("a26cca33a58067a2103615bece4d9f3cb324f34cccd682def552bf2da242d9a9", 101),
    "leading --pair {p2} --k 2 --float --format csv":
        ("ce0aa9c9efc707bad3bcc1f8d670773d903503ea4faccac829c0e1e2dd4e8b00", 79),
    "leading --pair {p2} --k 2 --float --format json":
        ("a0357154b6801fae5a9e65f2aa411fca838b66614cf4f3588fd37c257174d7bb", 104),
    "leading --pair {abelian} --k 5 --format table":
        ("e329a582d6e997f5154226445a3ebcc53e4e7838f69b607e372222bd13c4e6b0", 73),
    "leading --pair {abelian} --k 5 --format csv":
        ("f9a4f653d9ce8ddbe5f9318f999b3474566212ef195462d0b6a4b539a04f2f4b", 65),
    "leading --pair {abelian} --k 5 --format json":
        ("b2a610492387c37737275b7aaf8a69c372a2e622f7f08697d863cca8f4f358d8", 90),
    "leading --pair {abelian} --k 5 --float --format table":
        ("ca1c5eb504d761115d47fca38690a3dc3f696e2cfc234b8a4a30854e2d988825", 81),
    "leading --pair {abelian} --k 5 --float --format csv":
        ("b89b724417ab1803490a2ae0f98e750a24ed61f192fce84d25e7186e5d44ce22", 69),
    "leading --pair {abelian} --k 5 --float --format json":
        ("20abac86f260e378c1bcc932d2e31e7cfc8a97e7ee07ec4be56a511ba8aaab57", 94),
    "segre --pair {p2} --k 2 --format table":
        ("7d8d47b9d3c48749cae2c8bb7bf0cb82f594042bbea53c54aa0ba17c88ff2ffe", 33),
    "segre --pair {p2} --k 2 --format csv":
        ("b17523044c8baccdea397c1a35ad5c547373e6497f424b92c2adc8bf462d6351", 39),
    "segre --pair {p2} --k 2 --format json":
        ("488048fea4ce3ccacdfd769b08e76bd30cf3a58fcabce5e838a6bad529e69077", 46),
    "segre --pair {abelian} --k 3 --format table":
        ("07da973a07accd80cb1beea409a05a017ff2f6d18608b3305dab2fd3e4dce085", 6),
    "segre --pair {abelian} --k 3 --format csv":
        ("07cfc2bc11d4edd1eb135a4d16ccbf292655f59d3319005f56c1a1ab6803f956", 12),
    "segre --pair {abelian} --k 3 --format json":
        ("b843bad270f961d8c9811a0e44cd5267fb4aabf8d5e45ac645e42c9cd67e659a", 19),
    "canonical --pair {p2} --k 2 --format table":
        ("991683cd0596fa92f9c2946f7927511b35a4c99f912c40512c615ecc7f9e4429", 35),
    "canonical --pair {p2} --k 2 --format csv":
        ("6a9d2c406a27da6cfbefae765f6bd8a34c4d39897698477dd62c72d4761748dc", 29),
    "canonical --pair {p2} --k 2 --format json":
        ("0d1385840eb85e54455c944cae4e0fafa0b939ee06d0b2561473c1a6cec3e20e", 42),
    "canonical --pair {p2} --k inf --format table":
        ("c391df34dbf3fa7c443a7be57ab6ffadcfe5d9dc7e6b8c8d7d9d9204bd8f6519", 26),
    "canonical --pair {p2} --k inf --format csv":
        ("e6de4fe155624711d99ce304ed762d2af60df7b1c3a87c58c905dbc3da30c356", 23),
    "canonical --pair {p2} --k inf --format json":
        ("878c9177223189f8f95094c6f7ea3df8154a481c2b3488af340ce77bb0092825", 36),
    "canonical --pair {abelian} --k inf --format table":
        ("49c1ff8cd3b6ec4fa4b20b859f35a3d91805f17f9fc1d4601ba10b335f7534f6", 27),
    "canonical --pair {abelian} --k inf --format csv":
        ("90ad8e925061e76aa6881f329de24ad0de8d7144a2fcab79c22589c903b5d354", 21),
    "canonical --pair {abelian} --k inf --format json":
        ("cc546f174cff265c62ac57b605267a4336488de9626b4f4e1a84bb375dc77ce0", 34),
    "gysin --n 3 --lambda 2,1 --format table":
        ("a01933484cf3d833e1ce0cd1ede52dbfa0c67668b7c8a1e4cd7176bc673a23c9", 30),
    "gysin --n 3 --lambda 2,1 --format csv":
        ("bb34ca5f7a99d23f0f2dfb78d41afa5699e572a1534be23752be1eafec7fad06", 23),
    "gysin --n 3 --lambda 2,1 --format json":
        ("619ebf929034bad63e192777f2b02a12ef962e6f306e1b09703f888343a964de", 36),
    "gysin --n 3 --lambda 2,1 --float --format table":
        ("a01933484cf3d833e1ce0cd1ede52dbfa0c67668b7c8a1e4cd7176bc673a23c9", 30),
    "gysin --n 3 --lambda 2,1 --float --format csv":
        ("bb34ca5f7a99d23f0f2dfb78d41afa5699e572a1534be23752be1eafec7fad06", 23),
    "gysin --n 3 --lambda 2,1 --float --format json":
        ("619ebf929034bad63e192777f2b02a12ef962e6f306e1b09703f888343a964de", 36),
    "gysin --n 4 --lambda 0 --format table":
        ("b88fec719dda165dfee2fcf399fef7daaf83a9de50218eaa1a2b2fe339d9bc8a", 30),
    "gysin --n 4 --lambda 0 --format csv":
        ("17f33cc31c7d70e14e0334e665974f30589bd52757b12f98976260e81e401e80", 23),
    "gysin --n 4 --lambda 0 --format json":
        ("af5384e37905bb0787bfd6bfc770546c201255613ec6b557cd4e91e99d213d34", 36),
    "gysin --n 4 --lambda 0 --float --format table":
        ("b88fec719dda165dfee2fcf399fef7daaf83a9de50218eaa1a2b2fe339d9bc8a", 30),
    "gysin --n 4 --lambda 0 --float --format csv":
        ("17f33cc31c7d70e14e0334e665974f30589bd52757b12f98976260e81e401e80", 23),
    "gysin --n 4 --lambda 0 --float --format json":
        ("af5384e37905bb0787bfd6bfc770546c201255613ec6b557cd4e91e99d213d34", 36),
    "gysin --n 2 --lambda 3,3 --format table":
        ("b49b9c9143bf5d366857da8e9574a9cfbbf4341230103ab14721f6b43468d6ce", 30),
    "gysin --n 2 --lambda 3,3 --format csv":
        ("70e3353ed71ee56851d4dc0aa10ece312fabaecb35aca1040b6e739e5f7bf1dd", 23),
    "gysin --n 2 --lambda 3,3 --format json":
        ("321cf8c3416e2ca6ceb0891e7251aa3cfc86f2378d60f132f263ec9db2cbfefc", 36),
    "gysin --n 2 --lambda 3,3 --float --format table":
        ("b49b9c9143bf5d366857da8e9574a9cfbbf4341230103ab14721f6b43468d6ce", 30),
    "gysin --n 2 --lambda 3,3 --float --format csv":
        ("70e3353ed71ee56851d4dc0aa10ece312fabaecb35aca1040b6e739e5f7bf1dd", 23),
    "gysin --n 2 --lambda 3,3 --float --format json":
        ("321cf8c3416e2ca6ceb0891e7251aa3cfc86f2378d60f132f263ec9db2cbfefc", 36),
    "gysin --n 3 --lambda 1,1,1 --format table":
        ("b202826554d64dcc5a5fcfd5495bf41af04d45988aef2460710acef6f2a60c2f", 30),
    "gysin --n 3 --lambda 1,1,1 --format csv":
        ("f2157ec05d6912e9b03db0092960e82a2b7760f9964701a2bcad988a88800832", 23),
    "gysin --n 3 --lambda 1,1,1 --format json":
        ("13cab42fc811c5421b3587c4b2113211a9d67843a72a1c8e65521d16c2c372a3", 36),
    "gysin --n 3 --lambda 1,1,1 --float --format table":
        ("b202826554d64dcc5a5fcfd5495bf41af04d45988aef2460710acef6f2a60c2f", 30),
    "gysin --n 3 --lambda 1,1,1 --float --format csv":
        ("f2157ec05d6912e9b03db0092960e82a2b7760f9964701a2bcad988a88800832", 23),
    "gysin --n 3 --lambda 1,1,1 --float --format json":
        ("13cab42fc811c5421b3587c4b2113211a9d67843a72a1c8e65521d16c2c372a3", 36),
}


@pytest.fixture(scope="module")
def pair_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("pairs")
    for name, text in PAIRS.items():
        (folder / (name + ".json")).write_text(text)
    return {"{%s}" % name: str(folder / (name + ".json")) for name in PAIRS}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_single_row_output_is_pinned(command, pair_files):
    out, err = io.StringIO(), io.StringIO()
    argv = [pair_files.get(a, a) for a in command.split()]
    assert run(argv, out=out, err=err) == 0
    data = out.getvalue().encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == GOLDEN[command]
    assert err.getvalue() == ""
