"""Byte-exact stdout of the Schur commands, `pieri` and `summands`.

Each command's stdout through `cli.run` is pinned by its sha256 and length,
recorded from the release that decomposed every Pieri stage through
`SchurExpansion` and formatted summand rows from `graded_summands`.  Any
change in what these commands print, down to one digit or space, fails here.
"""

import hashlib
import io

import pytest

from orbichern.cli import run

P2_PAIR = ('{"geometry": {"preset": "P2"},'
           ' "components": [{"degree": 12, "mult": "107"}]}')

# argv (split on spaces, {pair} = the P2 pair above) -> (sha256, length)
GOLDEN = {
    "pieri --degrees 6,6,6,6,6,6 --format table":
        ("b93e269483dbc5e83cb17a5b3a845f3869f7235dc7e52536b0a24f47c517e3cd", 62790),
    "pieri --degrees 6,6,6,6,6,6 --format csv":
        ("12f82fd101721d29670d830c8c8495326e5ec58382305f5e148e09714a1c86d1", 40774),
    "pieri --degrees 6,6,6,6,6,6 --format json":
        ("83414fc4e13cf078bfe7df54947333a18d47407f2000945883a267a4677d06cd", 118579),
    "pieri --degrees 4,4,4,4,4,4,4,4 --format table":
        ("076811f4832232c3dd24f77b815d867dc0d42089409e3a09fb94a159ce326be3", 92039),
    "pieri --degrees 4,4,4,4,4,4,4,4 --format csv":
        ("2dde36a41d57f17029f6b8469bac2a143f9b42b7752b185582bfdb5ff809555e", 66426),
    "pieri --degrees 4,4,4,4,4,4,4,4 --format json":
        ("63b16848697c5609e591b84f76c60ec6c66db63c797b286876333fd3327c2a09", 172615),
    "pieri --degrees 8,7,6,5,4,3,2,1 --format table":
        ("35fa66d7511f3943efde6b7dfbf145829577ae2e1f48007bec7639daf7f8607a", 142397),
    "pieri --degrees 8,7,6,5,4,3,2,1 --format csv":
        ("65761af95dc8eb655c43918da1248a30155b762385cdd7ced0f3d04d6b46de30", 98087),
    "pieri --degrees 8,7,6,5,4,3,2,1 --format json":
        ("dea5789fb65c91875703a5ff736793fb9eda3e23293788e3d1931ae366691ea6", 260884),
    "pieri --degrees 1,2,3,4,5,6,7,8 --format table":
        ("35fa66d7511f3943efde6b7dfbf145829577ae2e1f48007bec7639daf7f8607a", 142397),
    "pieri --degrees 1,2,3,4,5,6,7,8 --format csv":
        ("65761af95dc8eb655c43918da1248a30155b762385cdd7ced0f3d04d6b46de30", 98087),
    "pieri --degrees 1,2,3,4,5,6,7,8 --format json":
        ("dea5789fb65c91875703a5ff736793fb9eda3e23293788e3d1931ae366691ea6", 260884),
    "pieri --degrees 2,1 --format table":
        ("4c002f2fafdfa31c689776f19ba42fc1a83923f034e842bf29f4e0eb4402bfa9", 54),
    "pieri --degrees 2,1 --format csv":
        ("935a1d8898b2844e5a25d2e6e75688dca4cf9b71af84651b570e577851d5b54d", 29),
    "pieri --degrees 2,1 --format json":
        ("6dbded261fea637f0e8b8eff00df44f1fb04bfc1e3009df350a4daf7f4c1cc22", 74),
    "pieri --degrees 0 --format table":
        ("f0f7eee014354f2c06ce0f05c22a93f64d8b34237fbb7237573658c6163c5c47", 36),
    "pieri --degrees 0 --format csv":
        ("a438ff0401b512a8a97f51a3d13bda71259cd2320ad83ee869ede71aee90eca4", 23),
    "pieri --degrees 0 --format json":
        ("dad48af9bcbb898b7abcc376e33776116d6536d0fae6b19b4f62157fc7d1ab16", 36),
    "pieri --degrees 3,0,2 --format table":
        ("12d4242297fb948962eed6ebf2bfafedb72fdd49656454d2dfbab1399e4f3b2b", 72),
    "pieri --degrees 3,0,2 --format csv":
        ("020d201178b4018814208add520a4067867180d66ba4838466034bb91b807dc4", 35),
    "pieri --degrees 3,0,2 --format json":
        ("704dff20a0a9074edc7010294fe314bdbc04a7479e58c51473d6bd2443406354", 112),
    "summands --pair {pair} --k 12 --N 36 --format table":
        ("536ba2a674e283ecda45adfc8326edaf5f57a81da2667d73f257556df482c31f", 2991814),
    "summands --pair {pair} --k 12 --N 36 --format csv":
        ("031b9c07a35a41329ab4caf2d6d6a00e0083268c647e1a73eba6f8627e765491", 2238635),
    "summands --pair {pair} --k 12 --N 36 --format json":
        ("92d1f89808ced13006eb8eac537201fb0315cd60b1f8225d5168cff6185a908f", 2758740),
    "summands --pair {pair} --k 2 --N 4 --format table":
        ("07ad86f15010ede4291864ea7caaf4288e26f19da00df4fefbddb61fe442b09c", 226),
    "summands --pair {pair} --k 2 --N 4 --format csv":
        ("192847f124a4ca5827180203596c7c51092c56e88a6ef5b23b9c487ad4e566c2", 160),
    "summands --pair {pair} --k 2 --N 4 --format json":
        ("577cd4b404ebd4a05cbc89c5211a68cc1b76568d2c5fdc287c546dd24766c646", 263),
    "summands --pair {pair} --k 3 --N 0 --format table":
        ("b8815164436291105f1a4af690823cd64a442c2aa4d3f13c14b50b92c63baacc", 47),
    "summands --pair {pair} --k 3 --N 0 --format csv":
        ("aba152dc78bd60a5d94e87a4e8aa773998f9567007259f0554f3414edab35f95", 39),
    "summands --pair {pair} --k 3 --N 0 --format json":
        ("68ed21dda2a534ea5dc71385fdb2208c4492db0c0ebb1eee96ce2212bdda6e3d", 58),
    "summands --pair {pair} --k 200 --N 5 --format table":
        ("1402dfebc176f73869483fec211f6d6dba1809ddff3e975087198066d8d47962", 3678),
    "summands --pair {pair} --k 200 --N 5 --format csv":
        ("962f9c2b6ac98ec133a5fd110a6a688e129d7f8184969347346111525aba9408", 3208),
    "summands --pair {pair} --k 200 --N 5 --format json":
        ("06b1ad3c0760a20ca13803dba842b458ea15ac0bc12640e338132ef865789ad9", 3479),
}


@pytest.fixture(scope="module")
def pair_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("pairs") / "p2_c12_a107.json"
    path.write_text(P2_PAIR)
    return str(path)


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_schur_output_is_pinned(command, pair_file):
    out, err = io.StringIO(), io.StringIO()
    argv = [pair_file if a == "{pair}" else a for a in command.split()]
    assert run(argv, out=out, err=err) == 0
    data = out.getvalue().encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == GOLDEN[command]
    assert err.getvalue() == ""
