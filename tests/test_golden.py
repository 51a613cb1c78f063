"""Byte pins on reports and exports, and value pins on domination.

Any change to these bytes fails here.  A change made on purpose regenerates
the hashes, bumps the generator version and says so in CHANGES.md.
"""

import hashlib
import json
from collections import Counter

import pytest

from zdgraph import SquarefreeModulus, build_ag, build_gamma, build_ring, domination, run_verification
from zdgraph.cli import EXIT_OK, main
from zdgraph.corpus import squarefree_moduli
from zdgraph.exports import dot_chunks, graph_json_chunks
from zdgraph.tables import table_to_json, zn_tables

# sha256 of run_verification(ring, seed=0).to_json_bytes(), in canonical_corpus() order
CORPUS_REPORT_SHA256 = (
    ("2x3", "adc011278a831cf7355dceae82e9f130cc9201a306dd4fcb206aabb89062813c"),
    ("2x5", "20b51db431ddf6a09a6c0c48134514d68a3ec86b5c83f16f1ef3f4d95d2afdae"),
    ("3x5", "fa17a673ebb62648ca41780fc93c45b5c337e73a097db42716767118e90399aa"),
    ("2x3x5", "0f275b530c9ffa133349fea84b51c970a4577cf2449f8ef2a2441e42693d1019"),
    ("2x3x7", "dfa8dcef805e9d812e526adb0732b3112e40168a3a2c23a97976aec8977d537d"),
    ("2x3x11", "29d4c17aafb326bee2ae8a04979bfdad881bc7f2b85c6afe3dc17d741e691e2d"),
    ("2x5x7", "2cdb30dedddb57cfaba9f50238150698d3140cbce61a909f8ee133d619101553"),
    ("3x5x7", "e7c8ac4ec0938680106ec919b261dd477e681b7a5055fe31a43e48abcfd2c117"),
    ("2x3x5x7", "84175c6ac70e61ffda82daed98629e6ed9795b7577ac5da477e286de473e2a25"),
    ("3x7x11", "8786a6fe1d7eac5cf6d149e185de68869b506a142314f99f3db85522099d7714"),
    ("2x3x7x11", "8b56096f5d52c656889cf4de90da841e604c97bdb8b3ef6d754a681ebb7ac167"),
    ("2x2", "787b5f605b2d790817092024492d713b2359332fd0ea7c7482c17c0d7a25d253"),
    ("3x3", "c19ff5d2deff2db78e4c7c41bb6d2761bd9000c49a786572b4032c50610a0f1d"),
    ("3x5", "fa17a673ebb62648ca41780fc93c45b5c337e73a097db42716767118e90399aa"),
    ("5x7", "cf50f8c3425800b8afcb7b5bf6dbad40aabf7dd1dd63fabe3f030fa6a4cef33a"),
    ("2x2x2", "b08dd12e87e3ec2b4f741e34c8cb431264f6bac5fc6cdde30c36029ee5aaacf4"),
    ("3x3x3", "3a0039976c9ac603f12ccd4db65151431b14a0be43b80aa472730ab2f01a9256"),
    ("2x3x7", "dfa8dcef805e9d812e526adb0732b3112e40168a3a2c23a97976aec8977d537d"),
    ("2x2x2x2", "765cca419da4f168f3c09d35a25e788a4e87a207bbaa09027c70c60aa026b402"),
    ("2x2x3x3", "0aa000d06e85857b709810a4a12b93cb197ce54818c84825875db780d88f3104"),
)

# sha256 of run_verification(build_ring(SquarefreeModulus(510510)), seed=s).to_json_bytes():
# seven factors, the size the benchmark verifies, with girth and adjacency records
K7_REPORT_SHA256 = {
    0: "c5ff518b3cfc43aaef7a950c3f087b9fd0e17cd0df04e151b8933f92c5ebea36",
    1: "ad422f113f27798126967939a0a20e846e57d29fb01c98ebc2f760749ef685aa",
}

# sha256 over the sorted "<file name> <sha256 of its bytes>\n" lines of the 182 reports that
# `zdgraph batch --squarefree-below 300 --seed 0` writes: every small ring, fields and Z/2 included
BATCH_300_SHA256 = "58982010c52f093d2628bb5de96e83d6b2e392d02669e30e2252e56c6d902eb2"

# (check id, verdict, registered) -> records, over run_verification(ring, seed=0) for the canonical
# corpus and the 182 rings of `batch --squarefree-below 300`.  Which pairs are drawn changes the
# witnesses only, so these counts hold across a change of the sampler; a change that adds or
# moves records updates them on purpose
VERDICT_COUNTS = {
    ('adjacency.ag', 'Confirmed', False): 984,
    ('adjacency.ag', 'NotApplicable', False): 62,
    ('adjacency.gamma', 'Confirmed', False): 1394,
    ('adjacency.gamma', 'NotApplicable', False): 62,
    ('distance.ag', 'Confirmed', False): 984,
    ('distance.ag', 'NotApplicable', False): 62,
    ('distance.gamma', 'Confirmed', False): 1394,
    ('distance.gamma', 'NotApplicable', False): 62,
    ('domination.ag', 'Confirmed', False): 140,
    ('domination.ag', 'NotApplicable', False): 62,
    ('domination.bound', 'Confirmed', False): 140,
    ('domination.bound', 'NotApplicable', False): 62,
    ('domination.finite', 'Confirmed', False): 140,
    ('domination.finite', 'NotApplicable', False): 62,
    ('domination.gamma-le-ag', 'Confirmed', False): 46,
    ('domination.gamma-le-ag', 'NotApplicable', False): 156,
    ('domination.total.ag', 'Confirmed', False): 140,
    ('domination.total.ag', 'NotApplicable', False): 62,
    ('domination.total.gamma', 'Confirmed', False): 140,
    ('domination.total.gamma', 'NotApplicable', False): 62,
    ('ecc.ag', 'Confirmed', False): 316,
    ('ecc.ag', 'NotApplicable', False): 62,
    ('ecc.ag', 'Violated', True): 188,
    ('ecc.gamma', 'Confirmed', False): 466,
    ('ecc.gamma', 'NotApplicable', False): 62,
    ('ecc.gamma', 'Violated', True): 38,
    ('girth.ag.equal-closure', 'NotApplicable', False): 140,
    ('girth.ag.five-range', 'Confirmed', False): 30,
    ('girth.ag.four-meeting', 'Confirmed', False): 30,
    ('girth.ag.four-orthogonal', 'Confirmed', False): 15,
    ('girth.ag.isolated-point', 'Confirmed', False): 30,
    ('girth.ag.three', 'Confirmed', False): 984,
    ('girth.ag.three', 'NotApplicable', False): 62,
    ('girth.gamma.four-meeting', 'Confirmed', False): 234,
    ('girth.gamma.four-meeting', 'NotApplicable', False): 542,
    ('girth.gamma.four-meeting-converse', 'Confirmed', False): 600,
    ('girth.gamma.four-orthogonal', 'Confirmed', False): 87,
    ('girth.gamma.isolated-point', 'Confirmed', False): 16,
    ('girth.gamma.six', 'Confirmed', False): 30,
    ('girth.gamma.three', 'Confirmed', False): 1394,
    ('girth.gamma.three', 'NotApplicable', False): 62,
    ('orthogonal.ag', 'Confirmed', False): 984,
    ('orthogonal.ag', 'NotApplicable', False): 62,
    ('orthogonal.gamma', 'Confirmed', False): 1394,
    ('orthogonal.gamma', 'NotApplicable', False): 62,
    ('radius.ag', 'Confirmed', False): 46,
    ('radius.ag', 'NotApplicable', False): 62,
    ('radius.ag', 'Violated', True): 94,
    ('radius.equal', 'Confirmed', False): 83,
    ('radius.equal', 'NotApplicable', False): 62,
    ('radius.equal', 'Violated', True): 57,
    ('radius.gamma', 'Confirmed', False): 103,
    ('radius.gamma', 'NotApplicable', False): 62,
    ('radius.gamma', 'Violated', True): 37,
    ('retract.adjacency-biconditional', 'Confirmed', False): 140,
    ('retract.adjacency-biconditional', 'NotApplicable', False): 62,
    ('retract.homomorphism', 'Confirmed', False): 140,
    ('retract.homomorphism', 'NotApplicable', False): 62,
    ('retract.sz-identity', 'Confirmed', False): 140,
    ('retract.sz-identity', 'NotApplicable', False): 62,
    ('spectrum.bourbaki-witnesses', 'Confirmed', False): 202,
    ('spectrum.contained-in-maximal', 'Confirmed', False): 140,
    ('spectrum.contained-in-maximal', 'NotApplicable', False): 62,
    ('spectrum.fixed-place', 'Confirmed', False): 202,
    ('spectrum.maximal-are-min-primes', 'Confirmed', False): 140,
    ('spectrum.maximal-are-min-primes', 'NotApplicable', False): 62,
    ('triangle.ag', 'Confirmed', False): 504,
    ('triangle.ag', 'NotApplicable', False): 62,
    ('triangle.gamma', 'Confirmed', False): 504,
    ('triangle.gamma', 'NotApplicable', False): 62,
    ('triangulated.ag', 'Confirmed', False): 140,
    ('triangulated.ag', 'NotApplicable', False): 62,
    ('triangulated.gamma', 'Confirmed', False): 140,
    ('triangulated.gamma', 'NotApplicable', False): 62,
}

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

# sha256 of the stdout of `zdgraph <argv>`, where TABLE is the Z/30 table file: Γ vertices
# print as residues for a ring built from a modulus and as coordinates for a table ring
RENDERED_OUTPUT_SHA256 = {
    ("dominate", "--zn", "30", "--graph", "gamma", "--total", "--json"): (
        "98caa6d3fc55fa332e553d4ae45c4030f5e8e16197b374f91adc69af471a7979"
    ),
    ("dominate", "--table", "TABLE", "--graph", "gamma", "--total", "--json"): (
        "96dee41d2f3d40a02726f6300f3436a59fbc019409bd2a6534af7935f31f1e82"
    ),
    ("export", "--table", "TABLE", "--graph", "gamma", "--explicit", "--format", "json"): (
        "58ed5041579bde33b94d08470183666ad3ab5f8ea698c92c09615bf045b4762a"
    ),
    # two factors, where the domination bounds can differ and a round of single copies runs
    ("dominate", "--zn", "6", "--graph", "gamma", "--json"): (
        "9a2b07670c51ee400703287ba115bae854a5b9ff24e30a70cb2cf484e78e9e12"
    ),
    ("dominate", "--zn", "6", "--graph", "ag", "--json"): (
        "260128ee8fe6a12ec8307646bfde57967f60a817adc2210268493c909ba54d08"
    ),
    ("dominate", "--zn", "15", "--graph", "gamma", "--json"): (
        "589264f83ae8826434a1fb3fe1e5d8551eec579f431b979cea9e3e0f28c4bb6a"
    ),
    ("dominate", "--zn", "15", "--graph", "ag", "--json"): (
        "2c4f110c4ec60a9024bfdb60b77b422629bb5afcb537a45b2c0b582976c472c8"
    ),
    ("dominate", "--fields", "3,3", "--graph", "gamma", "--json"): (
        "ce42c43b96f4ae1fee10c635e77956e706210ad2d1cf3e8f1ca168c9084c6d1e"
    ),
    ("dominate", "--fields", "3,3", "--graph", "gamma", "--total", "--json"): (
        "70547b7cabfd51454630cbbd64325ce6f7be55891530b793571212cd6441b472"
    ),
    ("dominate", "--zn", "15", "--graph", "gamma"): (
        "edb8e6f1af6cccec47cac573575c51cfab8dd89394030da7e5beb2f1785fbec5"
    ),
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


def test_verdict_counts(corpus):
    rings = corpus + [build_ring(SquarefreeModulus(n)) for n in squarefree_moduli(300)]
    counts = Counter(
        (r.check_id, r.verdict.value, r.registered) for ring in rings for r in run_verification(ring, seed=0).records
    )
    assert dict(counts) == VERDICT_COUNTS


def _export_bytes(n: int, kind: str, fmt: str, compressed: bool) -> bytes:
    ring = build_ring(SquarefreeModulus(n))
    G = build_gamma(ring) if kind == "gamma" else build_ag(ring)
    chunks = graph_json_chunks if fmt == "json" else dot_chunks
    return "".join(chunks(G, compressed=compressed)).encode("utf-8")


@pytest.mark.parametrize("n, kind, fmt", sorted(EXPLICIT_EXPORT_SHA256))
def test_explicit_export_bytes(n, kind, fmt):
    assert _sha256(_export_bytes(n, kind, fmt, compressed=False)) == EXPLICIT_EXPORT_SHA256[(n, kind, fmt)]


@pytest.mark.parametrize("n, kind, fmt", sorted(COMPRESSED_EXPORT_SHA256))
def test_compressed_export_bytes(n, kind, fmt):
    assert _sha256(_export_bytes(n, kind, fmt, compressed=True)) == COMPRESSED_EXPORT_SHA256[(n, kind, fmt)]


@pytest.mark.parametrize("argv", sorted(RENDERED_OUTPUT_SHA256), ids="-".join)
def test_rendered_output_bytes(tmp_path, capsys, argv):
    table = tmp_path / "z30.json"
    table.write_text(json.dumps(table_to_json(zn_tables(30))))
    assert main([str(table) if a == "TABLE" else a for a in argv]) == EXIT_OK
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == RENDERED_OUTPUT_SHA256[argv]


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
