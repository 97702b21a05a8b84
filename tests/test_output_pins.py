"""sha256 pins of the CLI outputs that carry integers only.

`enumerate` (dims 1-8, both families, both formats) and `classes`
(dims 1-8) print no floating-point value computed at run time, so their
stdout is fixed bytes.  A refactor of the enumeration, the catalog
labels or the emitters must leave every digest, and the exit code next
to it, unchanged; odd-dimensional antisymmetric requests print nothing
and exit 1.
"""

import hashlib

import pytest

from treverse.cli import main

PINS = {
    "enumerate --dim 1 --family binary --format json":
        (0, "e7b96c0dabef940321d210b5075770f37cf313190da23eb5ba8874cb4a275fb9"),
    "enumerate --dim 1 --family binary --format csv":
        (0, "d1ea4fa563913c83784a4483326b9fefca2de3f11b0903ba9b1f57f54066e2ef"),
    "enumerate --dim 1 --family antisymmetric --format json":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "enumerate --dim 1 --family antisymmetric --format csv":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "enumerate --dim 2 --family binary --format json":
        (0, "8c7073f8cdb7ede3ff48fc9665f533f686b3ea4b0d97f2bd659a0b49477dc123"),
    "enumerate --dim 2 --family binary --format csv":
        (0, "82b0e9aeab55afd2a3957fdaa6da9c6f96ca75129b3a65f6ee9a1bd9a2a46cc3"),
    "enumerate --dim 2 --family antisymmetric --format json":
        (0, "cad8fae89b332e756b8b656f02582cec20362231aaffa67c5b017454f2b8dc90"),
    "enumerate --dim 2 --family antisymmetric --format csv":
        (0, "ebbdf9f4d77cc08c37bb3335908dba1729da40c4b02eb246e64ac7910a0bedfc"),
    "enumerate --dim 3 --family binary --format json":
        (0, "f27ac8161b9fcc8aae7f3e71ee24c069da4909ecdba72d82234e4a8e5cf0e387"),
    "enumerate --dim 3 --family binary --format csv":
        (0, "1149cdc2a769574f189142617da72f5dc01eb4ba779b867cffde758cdc8c1382"),
    "enumerate --dim 3 --family antisymmetric --format json":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "enumerate --dim 3 --family antisymmetric --format csv":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "enumerate --dim 4 --family binary --format json":
        (0, "eeb342e3c919df28ea542554d7602c5e5cc3afd744731a55124de466953a546d"),
    "enumerate --dim 4 --family binary --format csv":
        (0, "4d08462eb83416566a79af9fd495e1cb80037443679656aaf213d8ed5fc26d64"),
    "enumerate --dim 4 --family antisymmetric --format json":
        (0, "045c963b3d9d74040507d5dfd20a7d044dea4b237895012c4aa6fce4f44e5bad"),
    "enumerate --dim 4 --family antisymmetric --format csv":
        (0, "a97dadf7e605fb712e9e68fe9643999dece499b8a58d21984414a5d8b0d8e04a"),
    "enumerate --dim 5 --family binary --format json":
        (0, "67c35597a50ad433cd5d0534781f12400bb685481632d942542f85af33971064"),
    "enumerate --dim 5 --family binary --format csv":
        (0, "7966eeaaa0295a62380337c6518b225d4beae05cb54b7ad74b9e8162367f3e5c"),
    "enumerate --dim 5 --family antisymmetric --format json":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "enumerate --dim 5 --family antisymmetric --format csv":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "enumerate --dim 6 --family binary --format json":
        (0, "d72ccf0809b1dea7e0425f6b686010bfce35249d72e471bf3f351700560a7b50"),
    "enumerate --dim 6 --family binary --format csv":
        (0, "1e9a2ffe5ad14935634da472e7d477d2bd482c3a7619e8b000f57bd48dd78776"),
    "enumerate --dim 6 --family antisymmetric --format json":
        (0, "208f735264166e5bb04a8b6d059fb99fd35b5fac78d14498fa2df7e3e4900a61"),
    "enumerate --dim 6 --family antisymmetric --format csv":
        (0, "a7c167849fd2bdee6bda68713d042b6b9e9f37b4b9b86c05dbd6ce372b41748a"),
    "enumerate --dim 7 --family binary --format json":
        (0, "7c722bfe329494812367f9d315a6ce7c1a3ee4b94b74b0f5b7f696bfbdd47e6e"),
    "enumerate --dim 7 --family binary --format csv":
        (0, "41e77ad8e8025e2367a19491ca7233f12b2c3a589a8674de4e3364272a1a0ce5"),
    "enumerate --dim 7 --family antisymmetric --format json":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "enumerate --dim 7 --family antisymmetric --format csv":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "enumerate --dim 8 --family binary --format json":
        (0, "f385d27fb947d8c3497aa773a8a3fd6f688feffa2ca7d02a743be921b08ffabe"),
    "enumerate --dim 8 --family binary --format csv":
        (0, "f4364dda4f74aee3b97527ccacc3698f9737e03fd88e97919c6ca5ff1b6ba05f"),
    "enumerate --dim 8 --family antisymmetric --format json":
        (0, "262d37e3bda468ef5815e209c936aa91738f0ff7395e4d968909d6208a4e7e0c"),
    "enumerate --dim 8 --family antisymmetric --format csv":
        (0, "2adf5d3ce076736c01b7fcadf9086cab18bdf5dd92d50e29ae19688246a0093e"),
    "classes --dim 1":
        (0, "537c8a30f382af34364fdec9ba9037d341de725085187e9139fa7e85da481277"),
    "classes --dim 2":
        (0, "490714b0d49fa5014fc31d69afbb3913a732afd429d05cd738ad10102c6fe951"),
    "classes --dim 3":
        (0, "f91e6b352d09e1b26da7b39b7d2419213e9938dedb42f9e80a2a17c0824fa032"),
    "classes --dim 4":
        (0, "8317fcef354d138a8b7bb7b57141ba30210db1b3fc13cff513726c1958fc3ce2"),
    "classes --dim 5":
        (0, "d90e8c68a05642757f6c6c8d03b1776eb145917e1a913bbbbbec1690deeee492"),
    "classes --dim 6":
        (0, "e59299aa514bd5f449a3577e8c0ae795bd91edbadcc3a0a37b2660913be80cab"),
    "classes --dim 7":
        (0, "040d10ff2c8105c0b957033eca234fe8108fcaccbca428db6216d6d6cf41c88a"),
    "classes --dim 8":
        (0, "52995fdf1c255e52e8174c172c5e51ce5f4201f112f3ebcf4c29204f29140439"),
}


@pytest.mark.parametrize("argv", sorted(PINS))
def test_integer_output_is_pinned(argv, capsys):
    code = main(argv.split())
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == PINS[argv]
