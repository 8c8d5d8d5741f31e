"""Outputs that stay byte-identical: the sha256 of each one's stdout.

The digests were recorded at commit 3bd7941.  They cover what the
benchmark's golden outputs do not: a small verify run in every format,
every table kind in every format, and the three demos.  ``--help`` text is
left out, since it differs between Python versions.  A change that alters
one of these outputs on purpose records its new digest here and says why.
"""

import hashlib
import runpy
from pathlib import Path

import pytest

from qoscpoly import cli

DEMOS = Path(__file__).resolve().parent.parent / "demos"

CLI_DIGESTS = {
    "verify --nmax 4 --order 6 --format json":
        "32bbc67b0b4a74a7b421895b66615864f4685dfda411ea62a2229d6051bbee43",
    "verify --nmax 4 --order 6 --format csv":
        "21c61a9ecbefc693276f5b67c092546202d33c8ed46158569fd9c9e8c67852a5",
    "verify --nmax 4 --order 6 --format text":
        "ef425ab743f1ae9107f8e0e850392b00c5e3ee0a599da306de9b830b503aab5c",
    "table poly --nmax 6 --order 6 --format json":
        "af04af9f15f00511fdc34647cba76d74786229e30a5f11a9e67529522da1ff76",
    "table poly --nmax 6 --order 6 --format csv":
        "99d689dddeba5f2d38f04c60878a69858ea6bf4f983d0b69040aa8449e22e751",
    "table poly --nmax 6 --order 6 --format text":
        "48936f50a57df2ba7d904cb1b8beb6fcac9c85ee8f0906a9c2053f06bc0b97d9",
    "table matel --nmax 6 --order 6 --format json":
        "2607e1fb071eadc337ee12c373f57423fdc801b4b7403de4a63d3a7f1af63bc0",
    "table matel --nmax 6 --order 6 --format csv":
        "56bdda9f5299f6d5d3eaf1d7a656762dc651a097d1b683771c2659c2e91e243a",
    "table matel --nmax 6 --order 6 --format text":
        "39340ca124313d91b426f2be208fb6a5a8299d86ba41dc66b165e4fb4e29518c",
    "table genfun --nmax 6 --order 6 --format json":
        "cb6744b189ff9e84177ac1d20f77a999a3264cd8e9d9c8b3bca0a9469a3b91be",
    "table genfun --nmax 6 --order 6 --format csv":
        "ec5ff2013bfb49676bf475fc0b0b4cfb1c21079eea0e352cebefd00ebe916bea",
    "table genfun --nmax 6 --order 6 --format text":
        "5b58a0ab66355ba194ebfe3870a2caf16e2ad04c7639828ec24f9ecbf2bb71d8",
    "table position --nmax 6 --order 6 --format json":
        "8561f81bac76c940fce97dd0e0e119c5e3a7c229a1ea652431e1d9b7927f221e",
    "table position --nmax 6 --order 6 --format csv":
        "8de97ff777f8ed440738a9587aa9d86032d5a409919ca278a2bdd53c12c2e3df",
    "table position --nmax 6 --order 6 --format text":
        "7d103faa269453d467c907aa7b8487a35e7d314dfa7162aa55b20d1ea4c5e1ae",
    "table hahn --nmax 6 --order 6 --format json":
        "4660bf30b0de57a0792e8280d8af3c00ffdc45dbefe32304e63302cb278ad80a",
    "table hahn --nmax 6 --order 6 --format csv":
        "fc99843c9bbc07a1ddefd5397e510820c86d359a70b7fd35f72d7b72d23c1f85",
    "table hahn --nmax 6 --order 6 --format text":
        "5702b350ed9f1f53beb9a17b962b528e6297b8ba152616d6fb2bba6e1883c788",
    # off the default q = 1/4, whose numerator is 1: recorded at dcc387e
    "table hahn --nmax 12 --s 2/3 --omega=-1/5 --format json":
        "7709a95cc1e9e7e3709c1ce9bfbad0d9f3ce95fbc174208ad0ef2a2b75ca75a7",
    "table poly --nmax 12 --s 3/4 --omega 1/3 --format csv":
        "d414370059384a9df45eaa90f709d87113aff04322c13734cc0ae933c44388b7",
    "verify --suite polyfamilies --suite operators --suite hahncalc "
    "--nmax 8 --s 2/3 --omega 1/5 --format json":
        "729cf2424b0f4eaaec34f088b8322ba8f139c692f988d6bb654002d135202c4c",
    "verify --suite polyfamilies --suite operators --suite hahncalc "
    "--nmax 8 --s 3/5 --omega 0 --format text":
        "9efc1d4429b842f047a7774f5ef094b7042ff5ac6926b30048bbe5f9df67ab4d",
}

DEMO_DIGESTS = {
    "families_tour.py":
        "1f1f8f963a292a4186a44ecacb6e867268bfde4292d06a2c9142073fd2bc45ac",
    "hahn_calculus.py":
        "eedd60cc663a6baea15426112700741fd17a30215fd06918ea55cdc00a60b83e",
    "matrix_element_oracle.py":
        "03721e2678dd9bf94e5d8715675e692c5dbdb47d8936a2193d37e9b9116c9360",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv", list(CLI_DIGESTS))
def test_cli_output(capsys, argv):
    assert cli.main(argv.split()) == cli.EXIT_OK
    assert _digest(capsys.readouterr().out) == CLI_DIGESTS[argv]


@pytest.mark.parametrize("name", list(DEMO_DIGESTS))
def test_demo_output(capsys, name):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert _digest(capsys.readouterr().out) == DEMO_DIGESTS[name]
