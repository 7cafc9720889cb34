"""Every transitive-closure stage, pinned port for port (Figs. 10-16).

Stages B and C are derived by rewriting (``prune_superfluous`` of
Fig. 10, then chain rewiring); stages D and E are built directly.  The
digests below were computed from the hand-built constructors the
rewrites replaced, so this test proves the derivation reproduces them
exactly, and any later change of graph storage must reproduce every
stage too.

The canonical form lists, per node: id, kind, opcode, ``pos``, ``tag``,
``draw`` and the sorted ``(role, producer, port)`` operands; plus the
order of the primary inputs and outputs.  Node insertion order and the
graph's name are not part of it.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.algorithms.transitive_closure import TC_STAGES
from repro.core.graph import DependenceGraph

SIZES = range(3, 13)

#: stage -> sha256 of :func:`canonical_form` for n = 3..12.
DIGESTS: dict[str, tuple[str, ...]] = {
    "full": (
        "6465c2c90309d6cda47e1f2add4762ab9ad17a413bd39f2ee0508366de82a8a9",
        "67d25d905ec02fe5a778045251a817e975ea8264558f141abca325257858a58e",
        "17d98e84577f7d3242e3777564d70744a36b9b203dccaaffc946147c10f2f3f2",
        "a2ed05702596555bbaa96615b099b15712bc606bc66ea7373505280e065157af",
        "181c30350c8e36ba393834a8d9e0b88a7fe7223e2f29e937e815ee3d659cb409",
        "4abf75fcee4f11d2c289a775b8c44c4bb1281aac0c0c75956495577d891f64f2",
        "548e271a3f44037ede272bfd66a24c6781bfcae4846ecc8c023a1b66086b84dc",
        "5216db5dde432868e95c03eb2e06de2d5fe9212ed996a4628462a51279d1d1bf",
        "66bc00750dcb7f6f44b418557401a38504d032dbff55277fb164780cfdeef246",
        "956edc0caf261a29d0b9175cc4596243e58f6c28a7dfce97cb6b6eced7b20aa2",
    ),
    "pruned": (
        "ebd47845b0d1c936abb8d6485286e4f2373f0313135d455ce4ec9906f898dd47",
        "0abcc404ee70f353aecdc7ca6db53364fd1eb073ea9757635226c510626a89cd",
        "c33f9e2e5fcc2b2ec4f52caa45e79a726c8a123df3f2d1b1e8b49ec2eb20b45a",
        "b9e1b41d21e4b25246cc2b74ccb80e76c80b55a72b35100484644eb56ff71169",
        "16668519d65897131165a125ebd61c68315fa92ae30cf9f4772f010a53f34372",
        "ae567fee3b3ee6a3d43c85d158f8c61137510542b82b779857e120f0aeaf954d",
        "41e7028890ef091cf1d77ac6b728ae244247e147123a24e77470ad56f0255e2f",
        "7b9df9f3d8ae5748a63e3144fcf9dc5e34558245eec120d073f699c30b901454",
        "1845042aeebabc4c0c1d446a3285d536f9a6d5493587df48cf5efb311a27b633",
        "f62e63d1aa380cac0f8eb1ef8b9d6f3ac6f15b9046faed638250385b9ad664d9",
    ),
    "pipelined": (
        "ebd47845b0d1c936abb8d6485286e4f2373f0313135d455ce4ec9906f898dd47",
        "a696aa9d0cd0ffb6750fef9aad86d5899304070bb106b3c1edb2a85168774db1",
        "df9cc397253509054d12bcf21dd25854c3bf312702663087520b6c4c7b14beb1",
        "49cf5d34da210369b3caa27855af9bd11df4f2b545b6dbe86fc430a7ba36db22",
        "fbd55ecba69d5035259d235829d0a18a85daf1e04576bc46392ce9dc1b8dc6cf",
        "c0e6ed18b5eeeb5fac39936c70e038016d276d540c6f4782ea011a87a8253978",
        "06f8f4885b838d27fb3642c01d439517ebcc4ed6db31574e2db520347b31d22f",
        "252b45508a99c6e5947885228c408e8226d03c7d7f17f5e07eebf4ecb4b3f6a3",
        "a8a93cb931e13da6e66f47f24fc9b7e3a834a35340670525b627f78b43f1384f",
        "b52449d3c0553c4ef3fab7a337baa9313b6d5c8391809b48ab3a05a5a208f44b",
    ),
    "unidirectional": (
        "a2af63565443ffc7811b785f320630f8ef1d3c4638fb2e6455b065c6b55163fa",
        "5f6b96af0d7df6e359bb3cc2db4abc4c8ddecd41627d163e5c619725aca9e46e",
        "9038390ab00922631b9366fbe6bbe8ded77b0c08c5bcb7b498900ee0929f96bc",
        "4cabb6f62542bc0f1e4b551ba13a71ae2a69ce74e930773006fb0b2aef6b8e36",
        "a715d961d5c2731f7bcc523fa4744abb92e90cb1c7d1d06804cccda2a92ceeec",
        "d84ec8d3843e47a9390b2086b43bd61658b62b3d7bcc3f9497db927a1f9b6d70",
        "d3fb9881888dd810b020174ce6202cf197ec557b26aa640aefa29d9e687b4ded",
        "4839d049629d3dff463c0cf0716217a94fdd159abd542d686cb5836f654e23b0",
        "52f9f13de1fd70ca9aa510393ff3f1a816ef647ee88e18316542852c43487d1d",
        "b0058ff23f9ddcfed44889f0280670e9d2da8caafb7332453194f141258db881",
    ),
    "regular": (
        "202ef2172061b03cb5d01a7ed128fbb27b7f5aa8aa93f65bcc7a2aa36e813576",
        "bbfe5f8bdf9b0bdf0e7b41d66b1b7f16cdc284814be3bec6c3f7053d922b2852",
        "48d5520b7623f04cd83c96baf802d0957e5872c4f6d485ec664ca8c21902a4b9",
        "d9556a51658d1a597d0710b50cc5172c8cc5bdd24ed4e2d00d80efbd766aa59b",
        "15c67ff6a4dac3e7753f925ee66b77827c2ed414df0527344e5dac13bec8e92b",
        "54572cbf86c2045779bcf2dd1cbe20605d7ee2a09fde767f5b1d1d5ab609da05",
        "e7dc6aea56d115489580c053a31606b2a3cd4915042d716bcb7e32d909cf1705",
        "58437bf92ebb9b4a6fe2325d84e371bd1e4836e5bfc9496b616c24386c2517c2",
        "9ae043517d92ff79a07d7e078b1b2df1ae7368640aa764c3e886cc17b2262c63",
        "7ff435a8523a14897ceff3a3bde688705f8f29bc80dad8d10b24ccd8be6abf3b",
    ),
}


def canonical_form(dg: DependenceGraph) -> str:
    """A text form of ``dg`` that two equal stages share byte for byte."""
    rows = []
    for nid, data in dg.g.nodes(data=True):
        view = dg.node(nid)
        operands = sorted(
            (role, src, src_port)
            for role, (src, src_port) in dg.operands(nid).items()
        )
        rows.append(repr((
            nid, view.kind.value, view.opcode, view.pos, view.tag,
            data.get("draw"), tuple(operands),
        )))
    head = [repr(("inputs", dg.inputs)), repr(("outputs", dg.outputs))]
    return "\n".join(head + sorted(rows))


def test_digest_table_covers_every_stage() -> None:
    assert set(DIGESTS) == set(TC_STAGES)
    assert all(len(d) == len(SIZES) for d in DIGESTS.values())


@pytest.mark.parametrize("stage", list(TC_STAGES))
def test_stage_matches_its_pinned_digests(stage: str) -> None:
    got = tuple(
        hashlib.sha256(canonical_form(TC_STAGES[stage](n)).encode()).hexdigest()
        for n in SIZES
    )
    mismatched = [n for n, g, w in zip(SIZES, got, DIGESTS[stage]) if g != w]
    assert not mismatched, f"{stage} differs at n={mismatched}"
