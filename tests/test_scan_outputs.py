"""Byte-exact stdout of the scan commands.

Each command's stdout through `cli.run` is pinned by its sha256 and length,
recorded from the release whose scans decided every candidate with exact chi
evaluations.  Any change in what a scan prints, down to one digit or space,
fails here.
"""

import hashlib
import io

import pytest

from orbichern.cli import run

# argv (split on spaces) -> (sha256 of stdout, stdout length in bytes)
GOLDEN = {
    "table1 --format table":
        ("1416a09b6a63f373071a0da8224d69b3e82f69e562a774799d1019339752b987", 788),
    "table1 --format csv":
        ("f12a8658d2acacd59a620d24e1738b58425f07b4a33803d8ce1bf679307c31c2", 410),
    "table1 --format json":
        ("f6caa23c07aa0056fd2daa1a3995a0a62dfe867bec2e2e4bfb46aec4edd929e3", 1545),
    "table1 --float --format table":
        ("1e991d7df3bf4649966b3cad6243df7ae271b5a405048556ee3fe8ad3ec09bec", 977),
    "table1 --float --format csv":
        ("564a79910f706e93cdd81853ad06fe934bc11b4b88c7b5826fca3ccc512f5987", 600),
    "table1 --float --format json":
        ("f84ca9eb4073c0da6cb55c13d06c7a50a48d2107eb5a8b488b67729644464e04", 1735),
    "lines --format table":
        ("6c0475eeb0c677badf323ea96a96aec24af1f17ad7fb1a8607940fe0f21ff5e7", 387),
    "lines --format csv":
        ("ae523dadb582c019f31accb981b0bbab9d21c858c3b3a115061c369763b277fb", 136),
    "lines --format json":
        ("747c71fc71787f6683f0d931e5baa859adf37ade5ccea80ab637fa142046ba5f", 679),
    "lines --float --format table":
        ("b6230bddfd8e4788381b68a92b3e547787f70507abddf0b4886dc219a2074756", 391),
    "lines --float --format csv":
        ("710767ff0267af8445fe7d52a896d86825ff4b90bca6471b7ac1b56009664791", 140),
    "lines --float --format json":
        ("9cf17e0e3d2058d166cea7f1adefcd581c403f4ea56f1026cd96cc014ebda51e", 683),
    "lines --c 30 --format table":
        ("07fb7d3af36ff359ede0339b00558ca3aaa8c59c8e29cbfa503507c6c9545ca4", 92),
    "lines --c 30 --format csv":
        ("43e9c740a3474a556a06b4ea2d1950c424a86a386adf0b4602dfbf0574177213", 62),
    "lines --c 30 --format json":
        ("90463146270c7ac220f1cac87970a1e58d06d0be504bf352ce7a178934628fee", 87),
    "lines --c 30 --float --format table":
        ("3ab3f94d3c5ca742314bfffe2d4207d66ed767b94782f6684a692c80b0672089", 92),
    "lines --c 30 --float --format csv":
        ("fa80644b14a0c25ea69b6063e7887054ddce54f3ce9a2f777bdab7fbd77fb799", 62),
    "lines --c 30 --float --format json":
        ("255790947318483d45eb3612f46919c17000d611e31ed109ca99c406dcf97648", 87),
    "k3scan --format table":
        ("3e54f106d5d214d43e3ed8b9c502bff2c10e65332b9977360fe642bcaf263ba6", 55143),
    "k3scan --format csv":
        ("2a6059be5dc7a6160ade22778e974fceff5bd9a47e5f8399f1d253b1f76510f0", 29104),
    "k3scan --format json":
        ("b0d8a588ce9534be910c7bafcd9ead3bb18985c39049df16e0b2ee5840b57883", 36845),
    "k3scan --float --format table":
        ("692244fdc0571debf1f865c98107fb015cee3606a596fc40abe4c9cfafb317d6", 7343),
    "k3scan --float --format csv":
        ("97100ee7e0363d9c42e71f2cfed6ab9c88d470950faf8d5b047c67b70034fa54", 6420),
    "k3scan --float --format json":
        ("801743c84757b0f767818e7d830e8f54f39a03838ba31595946ce32353caca9d", 14161),
    "minmult --d 4 --format table":
        ("8cd8f18fe2c60566bf981f8a19c252a70d7024afa01f079cf6246d34ca42d7ee", 92),
    "minmult --d 4 --format csv":
        ("6b2a65d9684fa73ea0afa11a69d957b3abed66df1faaedf4ccd69608aed14323", 60),
    "minmult --d 4 --format json":
        ("2236a35c9d731ff79735b6ed3746c24dedbcd8f4e7ebe48ae815ac103279b06c", 85),
    "minmult --d 4 --float --format table":
        ("8cd8f18fe2c60566bf981f8a19c252a70d7024afa01f079cf6246d34ca42d7ee", 92),
    "minmult --d 4 --float --format csv":
        ("6b2a65d9684fa73ea0afa11a69d957b3abed66df1faaedf4ccd69608aed14323", 60),
    "minmult --d 4 --float --format json":
        ("2236a35c9d731ff79735b6ed3746c24dedbcd8f4e7ebe48ae815ac103279b06c", 85),
    "minmult --d 11 --format table":
        ("341840a66d19695d7ee452aaa7e5b76279b74e891c796cece904ec90f57dcf2c", 92),
    "minmult --d 11 --format csv":
        ("e5a2d20d34a7712919112ae4b43c24f6c58b91fdc97f2b74a5d58bc86fde1d53", 61),
    "minmult --d 11 --format json":
        ("8221e5ebba0d9a8a68bcabe59d4739ec886b092023664db4b3d4ab241532d391", 86),
    "minmult --d 11 --float --format table":
        ("341840a66d19695d7ee452aaa7e5b76279b74e891c796cece904ec90f57dcf2c", 92),
    "minmult --d 11 --float --format csv":
        ("e5a2d20d34a7712919112ae4b43c24f6c58b91fdc97f2b74a5d58bc86fde1d53", 61),
    "minmult --d 11 --float --format json":
        ("8221e5ebba0d9a8a68bcabe59d4739ec886b092023664db4b3d4ab241532d391", 86),
    "minmult --d 12 --format table":
        ("48d2217786a8b342f80d8f8fb461b988f18d2c62c3ff0daec1e10edc25173b92", 99),
    "minmult --d 12 --format csv":
        ("904e2b924d5350f41282248364c8af670604c06cdde41d609891678eddbfc736", 75),
    "minmult --d 12 --format json":
        ("aa86e91756b97f54be382162a1356213d645727e3476b51ba99e89ad2ee9eb9f", 100),
    "minmult --d 12 --float --format table":
        ("9f28195c328f227df3df9a2c129bdaf404cb68612afd175f13bf25bd7a06f268", 119),
    "minmult --d 12 --float --format csv":
        ("9a6c3869e5e25fb624220edcdc6f69cb9d7635ce6424a8ce2dfdbd97092e4f0c", 90),
    "minmult --d 12 --float --format json":
        ("6099a57590e8eeca9232b39d068621d87a0f7ba6988bc18604d0434e64301951", 115),
    "minmult --d 13 --format table":
        ("257221c71f7db55000c63c71d535e5fb1b443da668ff86e509bf039f84170037", 100),
    "minmult --d 13 --format csv":
        ("8d7a99812c860a1defa499543ebbc5a2f9143ab7b555c8c992e36654ad5af42f", 74),
    "minmult --d 13 --format json":
        ("984828212f91357a0930e368e07688341b6330e73c98d6198ef43097e427a1d4", 99),
    "minmult --d 13 --float --format table":
        ("1937c51e26235e27d72a255643b2db51d8f7f3683d758bef85299093f67fb5c4", 115),
    "minmult --d 13 --float --format csv":
        ("3f357da1b5bdd6ce01cc31bba0e524bac12e320e25d0bfd2a4c90c6a678d720b", 87),
    "minmult --d 13 --float --format json":
        ("cbd879afad48c0d4424c7fe891ee4a92468577ac9e8418fee34e24ea2e55a350", 112),
    "minmult --d 100 --format table":
        ("940a1b31765d09da45fe37d3979ca485ffbe7e7d53d1c5ed9c259c2bbf16553d", 95),
    "minmult --d 100 --format csv":
        ("f6f304f7a5dbdb4a446631ab85cf57cc950e4f14f012ac10cc1d80cc50cb9f43", 66),
    "minmult --d 100 --format json":
        ("3926298c09c0d8f7d3e519c864f74d2940d1d55040590f023c344cdfeb8c2980", 91),
    "minmult --d 100 --float --format table":
        ("fbbf0d3132298dca4f76b860cf3501e5c6c920b6c430fc039f94fc15a65ef328", 101),
    "minmult --d 100 --float --format csv":
        ("294c964d544802911b42bac179f4c020f4c5fb9942a5ea14b4032650e4806655", 74),
    "minmult --d 100 --float --format json":
        ("147ab0c26a022ef10dd72a7b96b980e15df521fd034ce8361aff75ee8fe678b7", 99),
    "minmult --d 500 --format table":
        ("2a805feea704ac1b34b494484080c2bb81a6e1c1945da0f33a5e0bef1a285560", 97),
    "minmult --d 500 --format csv":
        ("ad77cba45dfd18c25ceabf426049d0b0412ae8e7a8f392fed68c20c4d39997bd", 67),
    "minmult --d 500 --format json":
        ("a76feed3eb89495e8de69dfa8c0e44dc6e2eb1939eaae53e26517964f64b7366", 92),
    "minmult --d 500 --float --format table":
        ("2a805feea704ac1b34b494484080c2bb81a6e1c1945da0f33a5e0bef1a285560", 97),
    "minmult --d 500 --float --format csv":
        ("ad77cba45dfd18c25ceabf426049d0b0412ae8e7a8f392fed68c20c4d39997bd", 67),
    "minmult --d 500 --float --format json":
        ("a76feed3eb89495e8de69dfa8c0e44dc6e2eb1939eaae53e26517964f64b7366", 92),
    "minmult --d 2000 --format table":
        ("e4d40b16cd8e8f146921eeec3e763a73d634298d97293ba285f14b2e48a37b5b", 98),
    "minmult --d 2000 --format csv":
        ("8f4ce3c0d38c5dfa64305dc429d8296c2ce85dd43ec571ab6ff126920a8afee1", 70),
    "minmult --d 2000 --format json":
        ("34e3f5b9c4082f4272cc4759dd0161a41cb5670723e5101c03821b03e2dd6e97", 95),
    "minmult --d 2000 --float --format table":
        ("e4d40b16cd8e8f146921eeec3e763a73d634298d97293ba285f14b2e48a37b5b", 98),
    "minmult --d 2000 --float --format csv":
        ("8f4ce3c0d38c5dfa64305dc429d8296c2ce85dd43ec571ab6ff126920a8afee1", 70),
    "minmult --d 2000 --float --format json":
        ("34e3f5b9c4082f4272cc4759dd0161a41cb5670723e5101c03821b03e2dd6e97", 95),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_scan_output_is_pinned(command):
    out, err = io.StringIO(), io.StringIO()
    assert run(command.split(), out=out, err=err) == 0
    data = out.getvalue().encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == GOLDEN[command]
    assert err.getvalue() == ""
