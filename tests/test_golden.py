"""Byte pins on reports and exports, and value pins on domination.

Any change to these bytes fails here.  A change made on purpose regenerates
the hashes, bumps the generator version and says so in CHANGES.md.
"""

import hashlib

import pytest

from zdgraph import SquarefreeModulus, build_ag, build_gamma, build_ring, domination, run_verification
from zdgraph.cli import EXIT_OK, main
from zdgraph.exports import graph_to_dot, graph_to_json, json_bytes

# sha256 of run_verification(ring, seed=0).to_json_bytes(), in canonical_corpus() order
CORPUS_REPORT_SHA256 = (
    ("2x3", "ad5609a1e3cc7773ba8d6d8920caa2bb3c6f25335fc752d98b3fa47f390b762f"),
    ("2x5", "8982332f8e9e758f9fa14a92eca273b88033024dd9b4b29b0941a0a5213092b0"),
    ("3x5", "523382dca1cd1ed248c3823185c72a277bbe1cf8ab502674fb11fc10f9fe982f"),
    ("2x3x5", "c940701f1cd535f778644eaaeb6b57842be630e4cbb4cb02b5f640d1e39da681"),
    ("2x3x7", "38527d78f6dea99ed0a014ee93bc574cf269bd62918d8a9379da0b566f76a99e"),
    ("2x3x11", "f64312a54f79820dc9536674305bfe80444cf0260c8d428dc4d6dfe779359bfe"),
    ("2x5x7", "f7c689af234cf5ac4130c3e570d64c11bd885290464fbaea0dd5dde2b1a24618"),
    ("3x5x7", "03b9553cfbdd92e6ea21ccd301b342adce38b9117517e4383e25c116feab4e80"),
    ("2x3x5x7", "2039ba3e657b57aae61a6549f020d4d92b137a1e9d7e050f82e1f5aa4844a888"),
    ("3x7x11", "125bbd65f37c6fde900a85fa64ea9b8ef350cad122c7c1b3e76906aee3364226"),
    ("2x3x7x11", "261441958f690f2afa2f2a465552aa2649c89823322cd747c86889710fe22de7"),
    ("2x2", "8af53d34470f996163b78dab4745c58b756fe52b4e57a138aa0659f796b32cfc"),
    ("3x3", "2012273a72efd5af96506bf9c235435317112870aeefbf9d466af72cb129efad"),
    ("3x5", "523382dca1cd1ed248c3823185c72a277bbe1cf8ab502674fb11fc10f9fe982f"),
    ("5x7", "0bcc242b938d06d5cb1dc6099fd4f8b6199df5ff94c03f90175e1f7881b4faa0"),
    ("2x2x2", "e6bfb8d64a1f66ee86cc3f5986c6dbf9b49a9370277b9e642a5712a6aa10eb1a"),
    ("3x3x3", "108e97323cb5b907d449bc66a3bc14ebbcb3f4fea15ebf1c3399549f4f72aa03"),
    ("2x3x7", "38527d78f6dea99ed0a014ee93bc574cf269bd62918d8a9379da0b566f76a99e"),
    ("2x2x2x2", "b1dc9550a165e7fd49cc4e94878cbf4dfe3326714577d6316d04b427b6489748"),
    ("2x2x3x3", "637708bac7478334fc86f5bbac2844831a75f2b0a2aa4fd3bcecac115831d089"),
)

# sha256 of run_verification(build_ring(SquarefreeModulus(510510)), seed=s).to_json_bytes():
# seven factors, the size the benchmark verifies, with girth and adjacency records
K7_REPORT_SHA256 = {
    0: "bcd188c145fac3d529a9b77ed5633069805a121e12f10ccb7186fb6489404dc8",
    1: "9f8e4072d282a46a57c716a76a42913f01e41be42a9a09776cb05a6dbaac4d8b",
}

# sha256 over the sorted "<file name> <sha256 of its bytes>\n" lines of the 182 reports that
# `zdgraph batch --squarefree-below 300 --seed 0` writes: every small ring, fields and Z/2 included
BATCH_300_SHA256 = "e4e1cc661f452e0571d605b691a895c3eee676071a6fcf98a659ddedb9408703"

# sha256 of the --explicit export bytes, as `zdgraph export --zn N --graph G --format F --explicit` prints them
EXPLICIT_EXPORT_SHA256 = {
    (30, "gamma", "json"): "dba65d534ad19fe6ac3ffa6e64816a2219a55e54cdf1f8934dda262bf9ecd8b2",
    (30, "gamma", "dot"): "dece08a5c939b3fc171add7964a4d0da255b1bef238a60e79f143ccf3fbc08c0",
    (30, "ag", "json"): "1a741652a56c6a8585315318ee006fe3eb4e3ee828a34354620199b1bc529e79",
    (30, "ag", "dot"): "cb56fec3b805faa592108e921de02d0b6984f330e634aadb25326e202eecf976",
    (105, "gamma", "json"): "3af435b75d96e5c39fa55843c5372cb77c75c4e9b431be757626ffabfd9842e5",
    (105, "gamma", "dot"): "20c413ac6a7a1133f9d8915e0b81a0151d5768040037086b5538d08893b32840",
    (105, "ag", "json"): "87e0ae0e27063be9ea9bc4bddf256f56b1327d0132ffa5751212bd3084b9c0da",
    (105, "ag", "dot"): "08de123798fbe48888d6408de199ad9374ebec14a6ed0d756fe50bbbfe3b803c",
}


# sha256 of the compressed export bytes, as `zdgraph export --zn N --graph G --format F` prints them
COMPRESSED_EXPORT_SHA256 = {
    (30, "gamma", "json"): "5d6e241c979976fc50b6640396cf30c5bf712ff5d43d292adeb0dbf04d8fd2f6",
    (30, "gamma", "dot"): "15092b7bfbfefeb8d463e331191fb1538cc17df432fc0e8538fa4a382634fc3e",
    (30, "ag", "json"): "a4f5a104a6f5a8f9cc622c71744c93c2e1a5604cf248d90425742097ad19092b",
    (30, "ag", "dot"): "8f0ee9dde505c8a22f26a1654bde23157af136dc2397c810f7104d0ba4f5629c",
    (105, "gamma", "json"): "313069f4c787a11a9a229d803fc1ec6578e8271de51e77827992f884a6ddeb72",
    (105, "gamma", "dot"): "d1dc6f3614559b21800b90fb1dd6fe088f1b779a8a619ba381a3191687697e3e",
    (105, "ag", "json"): "1ff080c751afe560d9d9435a1540939332d2db3d53c4f12193b3f8717127be4e",
    (105, "ag", "dot"): "c8da2c32317aebb9dc591e9636348e3f1ef7175f8fe96cd78daa444e8ba72b95",
}

# (size, nodes, root_lower_bound, witness) of domination(), in canonical_corpus() order;
# per ring: gamma, gamma --total, ag, ag --total
DOMINATION_PINS = (
    ("2x3", (
        (1, 2, 1, ("S={1}",)),
        (2, 0, 2, ("S={1}", "S={2}")),
        (1, 2, 1, ("S={1}",)),
        (2, 0, 2, ("S={1}", "S={2}")),
    )),
    ("2x5", (
        (1, 2, 1, ("S={1}",)),
        (2, 0, 2, ("S={1}", "S={2}")),
        (1, 2, 1, ("S={1}",)),
        (2, 0, 2, ("S={1}", "S={2}")),
    )),
    ("3x5", (
        (2, 2, 1, ("S={1}", "S={2}")),
        (2, 0, 2, ("S={1}", "S={2}")),
        (1, 2, 1, ("S={1}",)),
        (2, 0, 2, ("S={1}", "S={2}")),
    )),
    ("2x3x5", (
        (3, 0, 3, ("S={1}", "S={2}", "S={3}")),
        (3, 0, 3, ("S={1}", "S={2}", "S={3}")),
        (3, 0, 3, ("S={1}", "S={2}", "S={3}")),
        (3, 0, 3, ("S={1}", "S={2}", "S={3}")),
    )),
    ("2x3x7", (
        (3, 0, 3, ("S={1}", "S={2}", "S={3}")),
        (3, 0, 3, ("S={1}", "S={2}", "S={3}")),
        (3, 0, 3, ("S={1}", "S={2}", "S={3}")),
        (3, 0, 3, ("S={1}", "S={2}", "S={3}")),
    )),
    ("2x3x11", (
        (3, 0, 3, ("S={1}", "S={2}", "S={3}")),
        (3, 0, 3, ("S={1}", "S={2}", "S={3}")),
        (3, 0, 3, ("S={1}", "S={2}", "S={3}")),
        (3, 0, 3, ("S={1}", "S={2}", "S={3}")),
    )),
    ("2x5x7", (
        (3, 0, 3, ("S={1}", "S={2}", "S={3}")),
        (3, 0, 3, ("S={1}", "S={2}", "S={3}")),
        (3, 0, 3, ("S={1}", "S={2}", "S={3}")),
        (3, 0, 3, ("S={1}", "S={2}", "S={3}")),
    )),
    ("3x5x7", (
        (3, 0, 3, ("S={1}", "S={2}", "S={3}")),
        (3, 0, 3, ("S={1}", "S={2}", "S={3}")),
        (3, 0, 3, ("S={1}", "S={2}", "S={3}")),
        (3, 0, 3, ("S={1}", "S={2}", "S={3}")),
    )),
    ("2x3x5x7", (
        (4, 0, 4, ("S={1}", "S={2}", "S={3}", "S={4}")),
        (4, 0, 4, ("S={1}", "S={2}", "S={3}", "S={4}")),
        (4, 0, 4, ("S={1}", "S={2}", "S={3}", "S={4}")),
        (4, 0, 4, ("S={1}", "S={2}", "S={3}", "S={4}")),
    )),
    ("3x7x11", (
        (3, 0, 3, ("S={1}", "S={2}", "S={3}")),
        (3, 0, 3, ("S={1}", "S={2}", "S={3}")),
        (3, 0, 3, ("S={1}", "S={2}", "S={3}")),
        (3, 0, 3, ("S={1}", "S={2}", "S={3}")),
    )),
    ("2x3x7x11", (
        (4, 0, 4, ("S={1}", "S={2}", "S={3}", "S={4}")),
        (4, 0, 4, ("S={1}", "S={2}", "S={3}", "S={4}")),
        (4, 0, 4, ("S={1}", "S={2}", "S={3}", "S={4}")),
        (4, 0, 4, ("S={1}", "S={2}", "S={3}", "S={4}")),
    )),
    ("2x2", (
        (1, 2, 1, ("S={1}",)),
        (2, 0, 2, ("S={1}", "S={2}")),
        (1, 2, 1, ("S={1}",)),
        (2, 0, 2, ("S={1}", "S={2}")),
    )),
    ("3x3", (
        (2, 2, 1, ("S={1}", "S={2}")),
        (2, 0, 2, ("S={1}", "S={2}")),
        (1, 2, 1, ("S={1}",)),
        (2, 0, 2, ("S={1}", "S={2}")),
    )),
    ("3x5", (
        (2, 2, 1, ("S={1}", "S={2}")),
        (2, 0, 2, ("S={1}", "S={2}")),
        (1, 2, 1, ("S={1}",)),
        (2, 0, 2, ("S={1}", "S={2}")),
    )),
    ("5x7", (
        (2, 2, 1, ("S={1}", "S={2}")),
        (2, 0, 2, ("S={1}", "S={2}")),
        (1, 2, 1, ("S={1}",)),
        (2, 0, 2, ("S={1}", "S={2}")),
    )),
    ("2x2x2", (
        (3, 0, 3, ("S={1}", "S={2}", "S={3}")),
        (3, 0, 3, ("S={1}", "S={2}", "S={3}")),
        (3, 0, 3, ("S={1}", "S={2}", "S={3}")),
        (3, 0, 3, ("S={1}", "S={2}", "S={3}")),
    )),
    ("3x3x3", (
        (3, 0, 3, ("S={1}", "S={2}", "S={3}")),
        (3, 0, 3, ("S={1}", "S={2}", "S={3}")),
        (3, 0, 3, ("S={1}", "S={2}", "S={3}")),
        (3, 0, 3, ("S={1}", "S={2}", "S={3}")),
    )),
    ("2x3x7", (
        (3, 0, 3, ("S={1}", "S={2}", "S={3}")),
        (3, 0, 3, ("S={1}", "S={2}", "S={3}")),
        (3, 0, 3, ("S={1}", "S={2}", "S={3}")),
        (3, 0, 3, ("S={1}", "S={2}", "S={3}")),
    )),
    ("2x2x2x2", (
        (4, 0, 4, ("S={1}", "S={2}", "S={3}", "S={4}")),
        (4, 0, 4, ("S={1}", "S={2}", "S={3}", "S={4}")),
        (4, 0, 4, ("S={1}", "S={2}", "S={3}", "S={4}")),
        (4, 0, 4, ("S={1}", "S={2}", "S={3}", "S={4}")),
    )),
    ("2x2x3x3", (
        (4, 0, 4, ("S={1}", "S={2}", "S={3}", "S={4}")),
        (4, 0, 4, ("S={1}", "S={2}", "S={3}", "S={4}")),
        (4, 0, 4, ("S={1}", "S={2}", "S={3}", "S={4}")),
        (4, 0, 4, ("S={1}", "S={2}", "S={3}", "S={4}")),
    )),
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "index",
    range(len(CORPUS_REPORT_SHA256)),
    ids=[f"{i:02d}-{name}" for i, (name, _) in enumerate(CORPUS_REPORT_SHA256)],
)
def test_corpus_report_bytes(corpus, index):
    name, digest = CORPUS_REPORT_SHA256[index]
    ring = corpus[index]
    assert "x".join(map(str, ring.qs)) == name
    assert _sha256(run_verification(ring, seed=0).to_json_bytes()) == digest


def test_golden_table_covers_the_corpus(corpus):
    assert len(CORPUS_REPORT_SHA256) == len(corpus)


@pytest.mark.parametrize("seed", sorted(K7_REPORT_SHA256))
def test_seven_factor_report_bytes(seed):
    ring = build_ring(SquarefreeModulus(510510))
    assert _sha256(run_verification(ring, seed=seed).to_json_bytes()) == K7_REPORT_SHA256[seed]


def test_batch_report_bytes(tmp_path, capsys):
    assert main(["batch", "--squarefree-below", "300", "--seed", "0", "--out-dir", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    reports = sorted(tmp_path.iterdir())
    assert len(reports) == 182
    listing = "".join(f"{p.name} {_sha256(p.read_bytes())}\n" for p in reports)
    assert _sha256(listing.encode("utf-8")) == BATCH_300_SHA256


def _export_bytes(n: int, kind: str, fmt: str, compressed: bool) -> bytes:
    ring = build_ring(SquarefreeModulus(n))
    G = build_gamma(ring) if kind == "gamma" else build_ag(ring)
    if fmt == "json":
        return json_bytes(graph_to_json(G, compressed=compressed))
    return graph_to_dot(G, compressed=compressed).encode("utf-8")


@pytest.mark.parametrize("n, kind, fmt", sorted(EXPLICIT_EXPORT_SHA256))
def test_explicit_export_bytes(n, kind, fmt):
    assert _sha256(_export_bytes(n, kind, fmt, compressed=False)) == EXPLICIT_EXPORT_SHA256[(n, kind, fmt)]


@pytest.mark.parametrize("n, kind, fmt", sorted(COMPRESSED_EXPORT_SHA256))
def test_compressed_export_bytes(n, kind, fmt):
    assert _sha256(_export_bytes(n, kind, fmt, compressed=True)) == COMPRESSED_EXPORT_SHA256[(n, kind, fmt)]


@pytest.mark.parametrize(
    "index",
    range(len(DOMINATION_PINS)),
    ids=[f"{i:02d}-{name}" for i, (name, _) in enumerate(DOMINATION_PINS)],
)
def test_domination_pins(corpus, index):
    name, expected = DOMINATION_PINS[index]
    ring = corpus[index]
    assert "x".join(map(str, ring.qs)) == name
    got = []
    for build in (build_gamma, build_ag):
        G = build(ring)
        for total in (False, True):
            r = domination(G, total=total)
            got.append((r.size, r.nodes, r.root_lower_bound, tuple(v.render() for v in r.witness)))
    assert tuple(got) == expected
