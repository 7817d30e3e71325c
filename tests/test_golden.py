"""Byte pins: SHA-256 digests of ``rotlat verify`` stdout (the LLL
transform and ``det_cross_check`` included), of ``gram_json`` of the
module Gram and of ``embedding_csv`` (what ``rotlat embed`` writes), for
the battery and six larger modules.  A changed LLL decision, a changed
Gram entry or a moved enclosure endpoint shows up here even when every
verdict stays the same."""

import hashlib
import json

import pytest

from rotlat import embedding_csv, gram, module_to_json
from rotlat.cli import EXIT_OK, main
from helpers import BATTERY, get_module, gram_json

LARGER = (
    ("p31", {"r": 6}),
    ("p31", {"r": 7}),
    ("p31", {"r": 8}),
    ("p32", {"p": 41}),
    ("p34", {"r": 4, "p": 11}),
    ("p37", {"p1": 7, "p2": 11}),
)

# (verify stdout digest, gram_json digest) per module
GOLDEN = {
    ("p31", 3): ("96358dc234b44e070688289f9e5890cb56cd2f674b13d0d99f1bac0ff05e8804",
                 "6e111255261a007b5a8205d0ab3a7bb6b4ec6b0cbb13a1956eec851f8c3bec29"),
    ("p31", 4): ("a95a624c171ff59777fc616efa631ec9811026199c3dfba5c428ea4a0812d53c",
                 "459fc1360ca38c7d291465b6a2c0653df7a275a33669d4c7bc7a220547595e42"),
    ("p31", 5): ("cb8732c0fac018edadaccc2b1911173658630b949dbf12b9e486a1b720144a8b",
                 "46d87749fda9936883f1a3daf5ca74f9431e928695ca6b92ce7df1de7d01ab78"),
    ("p32", 7): ("b8b226cc53296aee8fe00899448613be8b365e248ae036d7c3ba4113c19d8f02",
                 "ccceef3431d0a7f1e738b6a655bfff600f756e0bbe8f0c26ca29bf1b77d27686"),
    ("p32", 11): ("ef028c21a036991af2844e8533e567d489e75d06e4617e9e7dd3cf7c73cf6758",
                  "c341acb4eee616254f0af074fff4aaa7cb61ba4b1c9d5e2cd50ff91d7b17f214"),
    ("p32", 13): ("7703639e4fec92b1766d846b0ba90e6bf6fa56500d9bf60c0d59237714221ebf",
                  "70856fb20ce2910ef7734a170e3333dec1793ab7dd0549839998d190c6bee458"),
    ("p34", 3, 5): ("6bb9b24d51ae13731d39b8ccf93ceebbf29cf8ae9674c72a92d4ecc0ad375d3e",
                    "8c0aa32a6e5a98ef9002f95fded123fb8e6278dfa8cf38127d68673f8b242fe6"),
    ("p34", 4, 5): ("f40cec08696b63605564e7ed751694e237fcfb2e8a1cfbd2901b0f9c51791452",
                    "550ed8255c592f19cde0378f584e5b3fdd570a47b27546a2613a91a93dbe663c"),
    ("p34", 3, 7): ("3a360c37ab0f38288db409aafe227859be37ca4e7e1af5ba241024ca62f487d1",
                    "070c0f98b1030c58b759dd42cedceadad5c90ef9a05d368ec24fad2e10cd8d12"),
    ("p37", 5, 7): ("b09290047086c6308d896db140153c892e36bb9629bbebfe89a9db10ffdbb351",
                    "aff569944457c94df3b8a97aacb1504100fc29b07015c19e6fedf08d86288488"),
    ("p37", 5, 11): ("c038bcd121d09fd57d614fc6ea72f61ec533442f27a213a042fe8a8abec94824",
                     "3b618b956ad5120708e134dc671af40780196c58e33d7c8e3d69d64a9a907b9e"),
    ("p31", 6): ("d9d9f7ce3e935a03cce24bd3bfa6848ceb3e206fa948aca79024e3daac53dfa8",
                 "e7a92962a6e94d3389e460e6e385074a4cafd5e66b54fef07e882acf3c75cb3a"),
    ("p31", 7): ("5657ba2b54f65e4e1c35a0918ca99eecb5215d2cde26a14a7b96fa56f25ff109",
                 "d82fc3d3ff2a4892cb71caf4bd7677aeeb80da1c0833087ea2a1a51922253041"),
    ("p31", 8): ("b8b28eaa9a0087d8b386dde661b0e248a92f1c4eaed96064260058d5ac710f93",
                 "235fdb8b20a1dc0014fb55b98e11e486830b936d4c7753ab184b4115c1294152"),
    ("p32", 41): ("d8e3cd82c76f884d285696079a730f47cb0ec98b0b22d13accedb1cfe8a82bf4",
                  "4a8c5d4e341ee6f3a6258351e2766ba315b51eea843476b85cf9cbeda9d07729"),
    ("p34", 4, 11): ("87e7e7a8fa33c6b5516f712a737e79347bdd9d6a4b23e4b7a64ae992da665744",
                     "4568df4c146cd4f58d6ece39ab15283c05ffba4b216e1349d60b760b3631cb10"),
    ("p37", 7, 11): ("448345163978858515a45f40aa4e437995f79015c485f36b3b82a80934167480",
                     "2da492bedada52ab164a5e29efa46503d07148738befd238662a6147bb228311"),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("code,params", BATTERY + LARGER)
def test_verify_and_gram_bytes_are_pinned(tmp_path, capsys, code, params):
    verify_digest, gram_digest = GOLDEN[(code, *params.values())]
    module = get_module(code, **params)
    path = tmp_path / "module.json"
    path.write_text(json.dumps(module_to_json(module)))
    assert main(["verify", str(path)]) == EXIT_OK
    assert _digest(capsys.readouterr().out) == verify_digest
    assert _digest(gram_json(gram(module))) == gram_digest


# embedding_csv digest per module and precision (bits)
EMBED_GOLDEN = {
    ("p31", 3): {
        128: "2d3d872266ed46db2fe9303c382f2e54ed5660bd5e41d6614f80d708e6007643",
    },
    ("p31", 4): {
        128: "eb4207dcab2ac10f70463f02d36ca8fde94a0b144b2aa9e9b6de71bb5def276e",
    },
    ("p31", 5): {
        128: "f80f1762dcf28b2abc0b151e683d41af9e6b55cece949f6fe8071ac4c087723a",
    },
    ("p32", 7): {
        128: "3292751c3f58aa126e8ba0f1744a64a3a49e59e666b99709114ebfd3975970b0",
    },
    ("p32", 11): {
        128: "55f2d0763c6a1b4f73a3abe6e6afdb9cffb65a6cffc481267a49aa7c8da6d4f7",
    },
    ("p32", 13): {
        128: "3ec8012113f7d4808f26f37a0dff6f0751f5a973f63bce20daf98b520ee45ef3",
    },
    ("p34", 3, 5): {
        128: "8dca26ba0c512cd0d0a2fc45617ddd8d856363e1db3d5927b79ea024bd65501f",
    },
    ("p34", 4, 5): {
        128: "8bbb803e0e2b9c21128e3dfd1b3e039d77409396132c7118a4ea752e13905ded",
    },
    ("p34", 3, 7): {
        128: "a96f1ecbbd2eb8011c08815ac8f9b4376c35aa7766c08b697245be9f9d83fba2",
    },
    ("p37", 5, 7): {
        128: "ad1f5ca8ec0741b63a5c30c84b260691f477f9db220ec13fb75fb48c946c635b",
    },
    ("p37", 5, 11): {
        128: "e683496b410aea77dfc55de4ca5fba4c892846b12fbce21801f692e9aa8a9ddd",
    },
    ("p31", 6): {
        128: "ae6612f8056d8d475a22d7eb02994a823c703e6c3f063934e34d85d1f61b90cf",
    },
    ("p31", 7): {
        128: "2eb63d952d84c61375aa06aa8e0cbce7970e9bcbe147c110ffb3f37d84589340",
    },
    ("p31", 8): {
        128: "1de5612b985d969314fefde9e0b8ac3d4cd55bbe8519708d2d38995d70563478",
        64: "7c152e61bc0717c42686561b54ad337bf9bdeb037c3c17c80190f545dbd2b949",
        256: "9a9b500ae3b8c1b9b79e06e10b9d5227ba72a73b9fc04a769da689d0c42afc0b",
    },
    ("p32", 41): {
        128: "8459120ce5c6d86745f189619ac9f8976ff2a7f1243f0f6946c57cc23ce9df04",
    },
    ("p34", 4, 11): {
        128: "254d07e1de574eccf3679d7dd3f0ca7351dda41c504cabee772e501787217d22",
    },
    ("p37", 7, 11): {
        128: "cea091f65b405a76e2ea7143163f1dc1326fdfc48c818811ed0c6df9e7ce2a53",
        64: "8b6535075b66fbbbdcd736fcc7d0fa7b2b37c048b9af3bc2740e2e93f7e18e4a",
        256: "11494ce2bd185af257c1405dc2d9b6334968b1534f3abea52fcfe6a9a42d7c14",
    },
}


@pytest.mark.parametrize(
    "code,params,precision",
    [(code, params, precision) for code, params in BATTERY + LARGER
     for precision in EMBED_GOLDEN[(code, *params.values())]],
)
def test_embedding_csv_bytes_are_pinned(code, params, precision):
    module = get_module(code, **params)
    digest = EMBED_GOLDEN[(code, *params.values())][precision]
    assert _digest(embedding_csv(module, precision)) == digest
