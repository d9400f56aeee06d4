"""Unit tests for the LTGD/GTGD/TGD/E_{n,m} enumerators."""

import hashlib

import pytest

from repro import Schema
from repro.dependencies import (
    TGDClass,
    all_in_class,
    canonical_atom_patterns,
    canonical_key,
    dedup_canonical,
    enumerate_dds,
    enumerate_edds,
    enumerate_frontier_guarded_tgds,
    enumerate_full_tgds,
    enumerate_guarded_tgds,
    enumerate_heads,
    enumerate_linear_tgds,
    enumerate_tgds,
    is_trivial_tgd,
)
from repro.lang import Var, parse_tgd
from tests.oracles import enumeration as oracle

UNARY = Schema.of(("R", 1), ("P", 1), ("T", 1))
BINARY = Schema.of(("E", 2))
MIXED = Schema.of(("R", 1), ("E", 2))


class TestAtomPatterns:
    def test_unary_patterns(self):
        pats = canonical_atom_patterns(UNARY, 2)
        # one pattern per unary relation (R(x0)) regardless of the bound
        assert len(pats) == 3

    def test_binary_patterns(self):
        pats = canonical_atom_patterns(BINARY, 2)
        # E(x0,x0) and E(x0,x1) — E(x1,x0) is a renaming of the latter.
        assert len(pats) == 2

    def test_binary_patterns_bound_one(self):
        assert len(canonical_atom_patterns(BINARY, 1)) == 1

    def test_zero_ary(self):
        schema = Schema.of(("Aux", 0))
        assert len(canonical_atom_patterns(schema, 3)) == 1

    def test_patterns_pairwise_non_isomorphic(self):
        pats = canonical_atom_patterns(Schema.of(("W", 3)), 3)
        heads = [parse_tgd(f"{a} -> {a}".replace("?", "")) for a in map(str, pats)]
        keys = {canonical_key(t) for t in heads}
        assert len(keys) == len(pats) == 5  # Bell(3) = 5


class TestHeads:
    def test_full_heads_are_single_atoms(self):
        heads = list(enumerate_heads(UNARY, (Var("x"),), 0))
        assert all(len(h) == 1 for h in heads)
        assert len(heads) == 3

    def test_connected_heads_all_share_existentials(self):
        heads = list(enumerate_heads(BINARY, (Var("x"),), 1))
        for head in heads:
            if len(head) > 1:
                for atom in head:
                    assert Var("w0") in atom.variables()

    def test_disconnected_allowed_when_requested(self):
        connected = list(enumerate_heads(UNARY, (Var("x"),), 0))
        free = list(
            enumerate_heads(UNARY, (Var("x"),), 0, connected_only=False)
        )
        assert len(free) > len(connected)

    def test_max_atoms_cap(self):
        capped = list(
            enumerate_heads(BINARY, (Var("x"),), 1, max_atoms=1)
        )
        assert all(len(h) == 1 for h in capped)


class TestHeadsAgainstOracle:
    """The bit-mask connectivity test yields what the reference, which
    rebuilds every atom's existential set per combination, yields — the
    same heads in the same order, and so the same tgd streams."""

    @pytest.mark.parametrize(
        "schema, pool, m, max_atoms",
        [
            (UNARY, ("x0",), 0, None),
            (UNARY, ("x0",), 2, None),
            (UNARY, ("x0", "x1"), 2, None),
            (BINARY, ("x0",), 1, None),
            (BINARY, ("x0",), 2, None),
            (BINARY, ("x0", "x1"), 2, 3),
            (MIXED, ("x0", "x1"), 1, None),
            (MIXED, (), 2, 3),
        ],
    )
    @pytest.mark.parametrize("connected_only", [True, False])
    def test_enumerate_heads(self, schema, pool, m, max_atoms, connected_only):
        frontier = tuple(Var(name) for name in pool)
        options = dict(max_atoms=max_atoms, connected_only=connected_only)
        assert list(enumerate_heads(schema, frontier, m, **options)) == list(
            oracle.enumerate_heads(schema, frontier, m, **options)
        )

    @pytest.mark.parametrize(
        "schema, n, m, max_head_atoms",
        [
            (UNARY, 1, 0, None),
            (UNARY, 1, 1, None),
            (UNARY, 2, 2, None),
            (BINARY, 1, 1, None),
            (BINARY, 2, 1, None),
            (BINARY, 2, 2, 2),
            (MIXED, 2, 1, 2),
        ],
    )
    @pytest.mark.parametrize(
        "enumerator", [enumerate_linear_tgds, enumerate_guarded_tgds]
    )
    def test_tgd_enumerators(self, enumerator, schema, n, m, max_head_atoms):
        stream = list(enumerator(schema, n, m, max_head_atoms=max_head_atoms))
        with oracle.reference_heads():
            reference = list(
                enumerator(schema, n, m, max_head_atoms=max_head_atoms)
            )
        assert stream == reference
        assert stream


# The candidate order, pinned: rewritings, minimized outputs and
# ``EntailmentDecider``'s one chase per body all follow it.  Each row is
# (enumerator, schema, n, m, caps, count, SHA-256 of the candidates'
# ``str`` lines joined by newlines), recorded before the enumerators
# shared one candidate loop.  ``m`` is 0 for the enumerators without
# existentials (full tgds, dds).
PIN_SCHEMAS = {
    "P1R1": Schema.of(("P", 1), ("R", 1)),
    "E2": Schema.of(("E", 2)),
    "P1R2": Schema.of(("P", 1), ("R", 2)),
}
PIN_ENUMERATORS = {
    "linear": enumerate_linear_tgds,
    "guarded": enumerate_guarded_tgds,
    "general": enumerate_tgds,
    "frontier-guarded": enumerate_frontier_guarded_tgds,
    "full": lambda schema, n, m, **caps: enumerate_full_tgds(
        schema, n, **caps
    ),
    "dd": lambda schema, n, m, **caps: enumerate_dds(schema, n, **caps),
    "edd": enumerate_edds,
}
ORDER_PINS = [
    ("linear", "P1R1", 1, 0, {}, 4,
     "03a74df868a8cbf526bcf778873d8ec735c77e6b301979da4d0856cad2990f1f"),
    ("linear", "P1R1", 1, 0, {"max_head_atoms": 1}, 4,
     "03a74df868a8cbf526bcf778873d8ec735c77e6b301979da4d0856cad2990f1f"),
    ("linear", "P1R1", 1, 1, {}, 13,
     "b59a8384599903fa3335fffaf90312ed2a6f9511d9d3430240f125d64b06e22d"),
    ("linear", "P1R1", 1, 1, {"max_head_atoms": 1}, 10,
     "1ae46c6a72f4339a9085bd02105b99a754a550af1bd70cf50fc9248b6fbe74a7"),
    ("linear", "P1R1", 2, 0, {}, 4,
     "03a74df868a8cbf526bcf778873d8ec735c77e6b301979da4d0856cad2990f1f"),
    ("linear", "P1R1", 2, 0, {"max_head_atoms": 1}, 4,
     "03a74df868a8cbf526bcf778873d8ec735c77e6b301979da4d0856cad2990f1f"),
    ("linear", "P1R1", 2, 1, {}, 13,
     "b59a8384599903fa3335fffaf90312ed2a6f9511d9d3430240f125d64b06e22d"),
    ("linear", "P1R1", 2, 1, {"max_head_atoms": 1}, 10,
     "1ae46c6a72f4339a9085bd02105b99a754a550af1bd70cf50fc9248b6fbe74a7"),
    ("linear", "E2", 1, 0, {}, 1,
     "c94177f2b7e057d8ee07d3a0f2a970c61c1a4e94f1672b48958f87c578b21826"),
    ("linear", "E2", 1, 0, {"max_head_atoms": 1}, 1,
     "c94177f2b7e057d8ee07d3a0f2a970c61c1a4e94f1672b48958f87c578b21826"),
    ("linear", "E2", 1, 1, {}, 9,
     "49eb368283c050c477dd06614947841a68dee1b9f8e6d8d23accf766eeac97a2"),
    ("linear", "E2", 1, 1, {"max_head_atoms": 1}, 5,
     "219b8aa17d00f1d5f3f2c0734427c9ee5665b0287eaf3e1c93b96c8dd6f9eefc"),
    ("linear", "E2", 2, 0, {}, 5,
     "abd89c902f61a580c0fa741262c673e566187894be4402eb537f2cc77456148b"),
    ("linear", "E2", 2, 0, {"max_head_atoms": 1}, 5,
     "abd89c902f61a580c0fa741262c673e566187894be4402eb537f2cc77456148b"),
    ("linear", "E2", 2, 1, {}, 44,
     "7f693731ecb9891e668e6c50f506c6a94b03fc1d3540a8f59493bdb027e297a9"),
    ("linear", "E2", 2, 1, {"max_head_atoms": 1}, 14,
     "942b6d3f127c6619097ec9c847e1b5aedb08d517cad205aab6449a6c916b820e"),
    ("linear", "P1R2", 1, 0, {}, 4,
     "2039fa1167f5f865b218a59d226c26d0d79ffebeb026a2f40abac1be992193d5"),
    ("linear", "P1R2", 1, 0, {"max_head_atoms": 1}, 4,
     "2039fa1167f5f865b218a59d226c26d0d79ffebeb026a2f40abac1be992193d5"),
    ("linear", "P1R2", 1, 1, {}, 37,
     "a9c3b197ca4f47dc84c44229298a96da822ae138029615cf74bb1543b91234c3"),
    ("linear", "P1R2", 1, 1, {"max_head_atoms": 1}, 14,
     "e04f6e7e126c4426c5a31fa5766a9b9f5c9cb16fa1c63247348c574f557b6c1d"),
    ("linear", "P1R2", 2, 0, {}, 10,
     "30b822f322d78f9b0451ceaf49eb6a94466fb304e55033178907a126a6c7b04c"),
    ("linear", "P1R2", 2, 0, {"max_head_atoms": 1}, 10,
     "30b822f322d78f9b0451ceaf49eb6a94466fb304e55033178907a126a6c7b04c"),
    ("linear", "P1R2", 2, 1, {}, 106,
     "2d6717bc33d81592a1f5b8ff300076a5681dd5353dc6e469d95073e45f4c864e"),
    ("linear", "P1R2", 2, 1, {"max_head_atoms": 1}, 26,
     "f9842c4cafef0e72f4fe981b63cb3c1fa8744913b67ba92e786ecd5975be2e4b"),
    ("guarded", "P1R1", 1, 0, {}, 6,
     "5e68c7616ee725abd984655022f0ea74e19230233dbf5eb39897d22d8a4325e4"),
    ("guarded", "P1R1", 1, 0, {"max_head_atoms": 1}, 6,
     "5e68c7616ee725abd984655022f0ea74e19230233dbf5eb39897d22d8a4325e4"),
    ("guarded", "P1R1", 1, 0, {"max_extra_body_atoms": 1}, 6,
     "5e68c7616ee725abd984655022f0ea74e19230233dbf5eb39897d22d8a4325e4"),
    ("guarded", "P1R1", 1, 1, {}, 18,
     "e7e53f1ce847c0526de56ca6e5f75df0c85b0aa8c18bb87ef8869d7907be6621"),
    ("guarded", "P1R1", 1, 1, {"max_head_atoms": 1}, 14,
     "31dc779318eb456e895f0717838ed5a5e6a2a61147f2eee066e8c3840b4d8d6e"),
    ("guarded", "P1R1", 1, 1, {"max_extra_body_atoms": 1}, 18,
     "e7e53f1ce847c0526de56ca6e5f75df0c85b0aa8c18bb87ef8869d7907be6621"),
    ("guarded", "P1R1", 2, 0, {}, 6,
     "5e68c7616ee725abd984655022f0ea74e19230233dbf5eb39897d22d8a4325e4"),
    ("guarded", "P1R1", 2, 0, {"max_head_atoms": 1}, 6,
     "5e68c7616ee725abd984655022f0ea74e19230233dbf5eb39897d22d8a4325e4"),
    ("guarded", "P1R1", 2, 0, {"max_extra_body_atoms": 1}, 6,
     "5e68c7616ee725abd984655022f0ea74e19230233dbf5eb39897d22d8a4325e4"),
    ("guarded", "P1R1", 2, 1, {}, 18,
     "e7e53f1ce847c0526de56ca6e5f75df0c85b0aa8c18bb87ef8869d7907be6621"),
    ("guarded", "P1R1", 2, 1, {"max_head_atoms": 1}, 14,
     "31dc779318eb456e895f0717838ed5a5e6a2a61147f2eee066e8c3840b4d8d6e"),
    ("guarded", "P1R1", 2, 1, {"max_extra_body_atoms": 1}, 18,
     "e7e53f1ce847c0526de56ca6e5f75df0c85b0aa8c18bb87ef8869d7907be6621"),
    ("guarded", "E2", 1, 0, {}, 1,
     "c94177f2b7e057d8ee07d3a0f2a970c61c1a4e94f1672b48958f87c578b21826"),
    ("guarded", "E2", 1, 0, {"max_head_atoms": 1}, 1,
     "c94177f2b7e057d8ee07d3a0f2a970c61c1a4e94f1672b48958f87c578b21826"),
    ("guarded", "E2", 1, 0, {"max_extra_body_atoms": 1}, 1,
     "c94177f2b7e057d8ee07d3a0f2a970c61c1a4e94f1672b48958f87c578b21826"),
    ("guarded", "E2", 1, 1, {}, 9,
     "49eb368283c050c477dd06614947841a68dee1b9f8e6d8d23accf766eeac97a2"),
    ("guarded", "E2", 1, 1, {"max_head_atoms": 1}, 5,
     "219b8aa17d00f1d5f3f2c0734427c9ee5665b0287eaf3e1c93b96c8dd6f9eefc"),
    ("guarded", "E2", 1, 1, {"max_extra_body_atoms": 1}, 9,
     "49eb368283c050c477dd06614947841a68dee1b9f8e6d8d23accf766eeac97a2"),
    ("guarded", "P1R2", 1, 0, {}, 6,
     "4505046a4fdab42234354a36fb22d545a3d1e2da5e0a585a07945a69c0b64649"),
    ("guarded", "P1R2", 1, 0, {"max_head_atoms": 1}, 6,
     "4505046a4fdab42234354a36fb22d545a3d1e2da5e0a585a07945a69c0b64649"),
    ("guarded", "P1R2", 1, 0, {"max_extra_body_atoms": 1}, 6,
     "4505046a4fdab42234354a36fb22d545a3d1e2da5e0a585a07945a69c0b64649"),
    ("guarded", "P1R2", 1, 1, {}, 54,
     "aa28822613cb6a088f331efe5ef97f72e269c59fe47f3a6540014c1b8bf8e6eb"),
    ("guarded", "P1R2", 1, 1, {"max_head_atoms": 1}, 20,
     "40ff0ed83bb962e476cc4968abc307200220ba26be20c19614bc7ae9e75eeaf6"),
    ("guarded", "P1R2", 1, 1, {"max_extra_body_atoms": 1}, 54,
     "aa28822613cb6a088f331efe5ef97f72e269c59fe47f3a6540014c1b8bf8e6eb"),
    ("guarded", "P1R2", 2, 0, {}, 150,
     "c7f1ef2fa9d6c064dc2f8b4fd1d8a3a88357d1d54799f9321a15f01eed89e124"),
    ("guarded", "P1R2", 2, 0, {"max_head_atoms": 1}, 150,
     "c7f1ef2fa9d6c064dc2f8b4fd1d8a3a88357d1d54799f9321a15f01eed89e124"),
    ("guarded", "P1R2", 2, 0, {"max_extra_body_atoms": 1}, 39,
     "a1e8efd71b0eba0625151f93bcceae1d449687e2cb276d74b42e4bb1e9513b87"),
    ("guarded", "P1R2", 2, 1, {}, 1740,
     "89f53d18d6dbc6a6db6dc2dcba77973754cca0a81b922f6f69883faeb95c32f1"),
    ("guarded", "P1R2", 2, 1, {"max_head_atoms": 1}, 312,
     "67a970f53ab1ba5deaa3ff314933e21b220f6ed4c72ea56d378f48a45a962f21"),
    ("guarded", "P1R2", 2, 1, {"max_extra_body_atoms": 1}, 441,
     "c83b77f0c6d9e31841652d1ea5235b341016d882c237ccc0cbaf1113cc66799c"),
    ("general", "P1R1", 1, 0, {}, 6,
     "278f94152f8d7d4510b93e63331cf01a489bda1b1ff119431093cf68faa6aea8"),
    ("general", "P1R1", 1, 0, {"max_head_atoms": 1}, 6,
     "278f94152f8d7d4510b93e63331cf01a489bda1b1ff119431093cf68faa6aea8"),
    ("general", "P1R1", 1, 1, {}, 18,
     "1ac57004a894e3a3ef57a86c8eaac5541f2ef11ca59e21913de8213181cf2223"),
    ("general", "P1R1", 1, 1, {"max_head_atoms": 1}, 14,
     "6d6fe3531e13c5ac5d0287ef5bc3fbc74e97d8ef5840109dcbb81ddb1104dbee"),
    ("general", "P1R1", 2, 0, {}, 14,
     "bb5ae978ae162c10e94f90a0e7efd9d66c8c4e710438366658c27a5cea25f737"),
    ("general", "P1R1", 2, 0, {"max_head_atoms": 1}, 14,
     "bb5ae978ae162c10e94f90a0e7efd9d66c8c4e710438366658c27a5cea25f737"),
    ("general", "P1R1", 2, 1, {}, 35,
     "e87f769964e8b9544d181b551e8ed1f6b0129f732ef066e8b7c20e3515786fc8"),
    ("general", "P1R1", 2, 1, {"max_head_atoms": 1}, 28,
     "1f2b204b58d5d8022d254ff5797ef9c774e9db9fddd6fd46a289f4d741a661ce"),
    ("general", "E2", 1, 0, {}, 1,
     "c94177f2b7e057d8ee07d3a0f2a970c61c1a4e94f1672b48958f87c578b21826"),
    ("general", "E2", 1, 0, {"max_head_atoms": 1}, 1,
     "c94177f2b7e057d8ee07d3a0f2a970c61c1a4e94f1672b48958f87c578b21826"),
    ("general", "E2", 1, 1, {}, 9,
     "49eb368283c050c477dd06614947841a68dee1b9f8e6d8d23accf766eeac97a2"),
    ("general", "E2", 1, 1, {"max_head_atoms": 1}, 5,
     "219b8aa17d00f1d5f3f2c0734427c9ee5665b0287eaf3e1c93b96c8dd6f9eefc"),
    ("general", "P1R2", 1, 0, {}, 6,
     "129312b7549101ed05703d6b2e4d5d11cfb315f7d6cf38c79f6ff86fe6714113"),
    ("general", "P1R2", 1, 0, {"max_head_atoms": 1}, 6,
     "129312b7549101ed05703d6b2e4d5d11cfb315f7d6cf38c79f6ff86fe6714113"),
    ("general", "P1R2", 1, 1, {}, 54,
     "c7e3f80f00394130ad2a81e83471d38aec16d39c5022c17591e24937cf70bce8"),
    ("general", "P1R2", 1, 1, {"max_head_atoms": 1}, 20,
     "c3220a98556560e499bfdca11d22fce728c4a3eee005f8366c504fd8330e2048"),
    ("general", "P1R2", 2, 0, {}, 51,
     "1883a4d26353e9e5cef2bb59916558589c3390e02d2208f1488bf6e11d69c4c2"),
    ("general", "P1R2", 2, 0, {"max_head_atoms": 1}, 51,
     "1883a4d26353e9e5cef2bb59916558589c3390e02d2208f1488bf6e11d69c4c2"),
    ("general", "P1R2", 2, 1, {}, 594,
     "6313d024c79fa5342c90f289d3545248cb07a39e64a88b3b276fc51c911d99ad"),
    ("general", "P1R2", 2, 1, {"max_head_atoms": 1}, 113,
     "0e526afb3dda8e169c6ecd09696e4decd0fbf14a36c5a3b5653bcf79b2e18b47"),
    ("frontier-guarded", "P1R1", 1, 0, {}, 6,
     "278f94152f8d7d4510b93e63331cf01a489bda1b1ff119431093cf68faa6aea8"),
    ("frontier-guarded", "P1R1", 1, 0, {"max_head_atoms": 1}, 6,
     "278f94152f8d7d4510b93e63331cf01a489bda1b1ff119431093cf68faa6aea8"),
    ("frontier-guarded", "P1R1", 1, 1, {}, 18,
     "1ac57004a894e3a3ef57a86c8eaac5541f2ef11ca59e21913de8213181cf2223"),
    ("frontier-guarded", "P1R1", 1, 1, {"max_head_atoms": 1}, 14,
     "6d6fe3531e13c5ac5d0287ef5bc3fbc74e97d8ef5840109dcbb81ddb1104dbee"),
    ("frontier-guarded", "P1R1", 2, 0, {}, 14,
     "bb5ae978ae162c10e94f90a0e7efd9d66c8c4e710438366658c27a5cea25f737"),
    ("frontier-guarded", "P1R1", 2, 0, {"max_head_atoms": 1}, 14,
     "bb5ae978ae162c10e94f90a0e7efd9d66c8c4e710438366658c27a5cea25f737"),
    ("frontier-guarded", "P1R1", 2, 1, {}, 35,
     "e87f769964e8b9544d181b551e8ed1f6b0129f732ef066e8b7c20e3515786fc8"),
    ("frontier-guarded", "P1R1", 2, 1, {"max_head_atoms": 1}, 28,
     "1f2b204b58d5d8022d254ff5797ef9c774e9db9fddd6fd46a289f4d741a661ce"),
    ("frontier-guarded", "E2", 1, 0, {}, 1,
     "c94177f2b7e057d8ee07d3a0f2a970c61c1a4e94f1672b48958f87c578b21826"),
    ("frontier-guarded", "E2", 1, 0, {"max_head_atoms": 1}, 1,
     "c94177f2b7e057d8ee07d3a0f2a970c61c1a4e94f1672b48958f87c578b21826"),
    ("frontier-guarded", "E2", 1, 1, {}, 9,
     "49eb368283c050c477dd06614947841a68dee1b9f8e6d8d23accf766eeac97a2"),
    ("frontier-guarded", "E2", 1, 1, {"max_head_atoms": 1}, 5,
     "219b8aa17d00f1d5f3f2c0734427c9ee5665b0287eaf3e1c93b96c8dd6f9eefc"),
    ("frontier-guarded", "P1R2", 1, 0, {}, 6,
     "129312b7549101ed05703d6b2e4d5d11cfb315f7d6cf38c79f6ff86fe6714113"),
    ("frontier-guarded", "P1R2", 1, 0, {"max_head_atoms": 1}, 6,
     "129312b7549101ed05703d6b2e4d5d11cfb315f7d6cf38c79f6ff86fe6714113"),
    ("frontier-guarded", "P1R2", 1, 1, {}, 54,
     "c7e3f80f00394130ad2a81e83471d38aec16d39c5022c17591e24937cf70bce8"),
    ("frontier-guarded", "P1R2", 1, 1, {"max_head_atoms": 1}, 20,
     "c3220a98556560e499bfdca11d22fce728c4a3eee005f8366c504fd8330e2048"),
    ("frontier-guarded", "P1R2", 2, 0, {}, 47,
     "e9c293f9d100a81cd8304635511a968c96a3d9fbbc68a15c2b53f828b41abd2a"),
    ("frontier-guarded", "P1R2", 2, 0, {"max_head_atoms": 1}, 47,
     "e9c293f9d100a81cd8304635511a968c96a3d9fbbc68a15c2b53f828b41abd2a"),
    ("frontier-guarded", "P1R2", 2, 1, {}, 506,
     "c9679c4ec7776952fcbd56c3394871dc21a70bf953dc01f120955e2e1033538b"),
    ("frontier-guarded", "P1R2", 2, 1, {"max_head_atoms": 1}, 109,
     "ead1a97990c7fda0bf895089e0b72ca612845aec398b435addb9bd04dee247a2"),
    ("full", "P1R1", 1, 0, {}, 6,
     "278f94152f8d7d4510b93e63331cf01a489bda1b1ff119431093cf68faa6aea8"),
    ("full", "P1R1", 2, 0, {}, 14,
     "bb5ae978ae162c10e94f90a0e7efd9d66c8c4e710438366658c27a5cea25f737"),
    ("full", "E2", 1, 0, {}, 1,
     "c94177f2b7e057d8ee07d3a0f2a970c61c1a4e94f1672b48958f87c578b21826"),
    ("full", "E2", 2, 0, {}, 17,
     "2191c0d9b8f356f2bbadaded75363601b64c157ba666a517c4aaf97b4586c152"),
    ("full", "P1R2", 1, 0, {}, 6,
     "129312b7549101ed05703d6b2e4d5d11cfb315f7d6cf38c79f6ff86fe6714113"),
    ("full", "P1R2", 2, 0, {}, 51,
     "1883a4d26353e9e5cef2bb59916558589c3390e02d2208f1488bf6e11d69c4c2"),
    ("dd", "P1R1", 1, 0, {}, 9,
     "bb4754a1a62424c73e89a8d3858e3f180b9ed4aef7c5199b58b4f0d943377eb3"),
    ("dd", "P1R1", 2, 0, {}, 78,
     "878a150e17242610434218e274c6b63cd4819c0667cb2c3ba7c914270ab263e1"),
    ("dd", "E2", 1, 0, {}, 1,
     "c94177f2b7e057d8ee07d3a0f2a970c61c1a4e94f1672b48958f87c578b21826"),
    ("dd", "E2", 2, 0, {}, 122,
     "c9070a6147aaafbcb7db4fe3fd33c17bf5affc98b4bbf70150b588b980ff293c"),
    ("dd", "P1R2", 1, 0, {}, 9,
     "8c179194d3200d1d267ecdde111704bc646cc32e2f39165b8a37d4880aa770b4"),
    ("dd", "P1R2", 2, 0, {}, 438,
     "3f1bfb390acdc8097436fe1ae8fdc4fb9ab62710d76bf35bd9349c1a75e0794f"),
    ("edd", "P1R1", 1, 0, {}, 6,
     "6595cb039c7e5a45110c28e7de666fcddc6d174d3f7ced9685a3e3d37118889b"),
    ("edd", "P1R1", 1, 1, {}, 23,
     "7518759e45851b245c7a7fdc17eb1d946345c646c46be799abc91e60a552f18a"),
    ("edd", "P1R1", 2, 0, {}, 12,
     "11b29df46614a1cc8917571e2a6d4328caeb92ae7f548a4a21110977d075f8d5"),
    ("edd", "P1R1", 2, 1, {}, 43,
     "77a3c6ade4277658091fdba90d996d5d4b8943ef48a8a5248807dbbb617c0840"),
    ("edd", "E2", 1, 0, {}, 1,
     "c94177f2b7e057d8ee07d3a0f2a970c61c1a4e94f1672b48958f87c578b21826"),
    ("edd", "E2", 1, 1, {}, 11,
     "e0390dcf1ee04747dc2f4d772cf17e0d3ffa29b1e54a5fc189d1cb0718eccb70"),
    ("edd", "E2", 2, 0, {}, 32,
     "b1988cb6a91a0f259c6a71b2f1e28cc6241fe8b6aad1511e8ba4f7e6f92a3203"),
    ("edd", "E2", 2, 1, {}, 131,
     "c931921c9ec145c1b1076703d442d601fc2473d3b9bd258adb744725d1f098ba"),
    ("edd", "P1R2", 1, 0, {}, 6,
     "836ec5f138ecb2379efd0c5351f570588a55406b6238cf355c5a7c73b99eb480"),
    ("edd", "P1R2", 1, 1, {}, 45,
     "051eaa05aea5ab6dd59cdd3bcdbc7f468b475909581e05f3712fc5251e8b0cba"),
    ("edd", "P1R2", 2, 0, {}, 68,
     "f52c9f93c6816e11ea89237847d45d85a8b889680cd498017748092e8a7544cc"),
    ("edd", "P1R2", 2, 1, {}, 269,
     "a6e908eeb41f8ff288bc6601daa367883415b2dc0a44d7a892a55401b0125bce"),
]


class TestCandidateOrderPins:
    @pytest.mark.parametrize(
        "name, schema, n, m, caps, count, digest",
        ORDER_PINS,
        ids=[
            f"{row[0]}-{row[1]}-n{row[2]}-m{row[3]}-"
            + ("-".join(f"{k}={v}" for k, v in row[4].items()) or "uncapped")
            for row in ORDER_PINS
        ],
    )
    def test_whole_sequence(self, name, schema, n, m, caps, count, digest):
        lines = [
            str(dependency)
            for dependency in PIN_ENUMERATORS[name](
                PIN_SCHEMAS[schema], n, m, **caps
            )
        ]
        assert len(lines) == count
        assert hashlib.sha256(
            "\n".join(lines).encode()
        ).hexdigest() == digest


class TestLinearEnumeration:
    def test_all_linear_and_within_width(self):
        for tgd in enumerate_linear_tgds(UNARY, 1, 1):
            assert tgd.is_linear
            n, m = tgd.width
            assert n <= 1 and m <= 1

    def test_count_n1_m0_three_unaries(self):
        # bodies R/P/T(x0), heads R/P/T(x0) — no empty-body heads at m=0.
        assert sum(1 for __ in enumerate_linear_tgds(UNARY, 1, 0)) == 9

    def test_no_canonical_duplicates(self):
        tgds = list(enumerate_linear_tgds(BINARY, 2, 1))
        assert len(dedup_canonical(tgds)) == len(tgds)

    def test_empty_body_included_when_m_positive(self):
        tgds = list(enumerate_linear_tgds(UNARY, 0, 1))
        assert any(not t.body for t in tgds)

    def test_covers_specific_candidates(self):
        keys = {
            canonical_key(t) for t in enumerate_linear_tgds(BINARY, 2, 1)
        }
        for text in (
            "E(x, y) -> E(y, x)",
            "E(x, y) -> exists z . E(y, z)",
            "E(x, x) -> exists z . E(x, z), E(z, x)",
        ):
            assert canonical_key(parse_tgd(text, BINARY)) in keys


class TestGuardedEnumeration:
    def test_all_guarded_within_width(self):
        for tgd in enumerate_guarded_tgds(UNARY, 1, 0):
            assert tgd.is_guarded
            assert tgd.width[0] <= 1

    def test_includes_multi_atom_bodies(self):
        tgds = list(enumerate_guarded_tgds(UNARY, 1, 0))
        assert any(len(t.body) == 2 for t in tgds)

    def test_superset_of_linear(self):
        linear = {
            canonical_key(t) for t in enumerate_linear_tgds(UNARY, 1, 0)
        }
        guarded = {
            canonical_key(t) for t in enumerate_guarded_tgds(UNARY, 1, 0)
        }
        assert linear <= guarded

    def test_covers_separation_witness(self):
        keys = {
            canonical_key(t) for t in enumerate_guarded_tgds(UNARY, 1, 0)
        }
        assert canonical_key(parse_tgd("R(x), P(x) -> T(x)", UNARY)) in keys

    def test_body_cap(self):
        capped = list(
            enumerate_guarded_tgds(UNARY, 1, 0, max_extra_body_atoms=0)
        )
        assert all(len(t.body) <= 1 for t in capped)


class TestGenericEnumeration:
    def test_respects_class_filters(self):
        fg = list(enumerate_frontier_guarded_tgds(UNARY, 2, 0))
        assert fg and all_in_class(fg, TGDClass.FRONTIER_GUARDED)

    def test_frontier_guarded_strictly_between(self):
        # R(x), P(y) -> T(x) is frontier-guarded, not guarded.
        keys = {
            canonical_key(t)
            for t in enumerate_frontier_guarded_tgds(UNARY, 2, 0)
        }
        witness = parse_tgd("R(x), P(y) -> T(x)", UNARY)
        assert canonical_key(witness) in keys
        guarded_keys = {
            canonical_key(t) for t in enumerate_guarded_tgds(UNARY, 2, 0)
        }
        assert canonical_key(witness) not in guarded_keys

    def test_full_enumeration_is_full(self):
        full = list(enumerate_full_tgds(UNARY, 2))
        assert full and all(t.is_full for t in full)

    def test_tgd_enumeration_body_cap(self):
        tgds = list(enumerate_tgds(UNARY, 2, 0, max_body_atoms=1))
        assert all(len(t.body) <= 1 for t in tgds)


class TestDisjunctiveEnumeration:
    def test_dds_have_no_existentials(self):
        for dd in enumerate_dds(UNARY, 1, max_body_atoms=1):
            assert dd.is_dd

    def test_edds_respect_width(self):
        for edd in enumerate_edds(UNARY, 1, 1, max_disjuncts=2):
            n, m = edd.width
            assert n <= 1 and m <= 1

    def test_edds_include_equality_heads(self):
        edds = list(enumerate_edds(BINARY, 2, 0, max_disjuncts=1))
        assert any(e.is_egd for e in edds)


class TestTriviality:
    def test_trivial_tgd_detection(self):
        assert is_trivial_tgd(parse_tgd("R(x) -> R(x)", UNARY))
        assert not is_trivial_tgd(parse_tgd("R(x) -> P(x)", UNARY))


class TestConstructionErrorsPropagate:
    """Only malformed candidates (``DependencyError``) are skipped; any
    other error while building a tgd is a bug and must surface instead
    of silently shrinking the §9.2 candidate counts."""

    ENUMERATORS = {
        "linear": lambda: enumerate_linear_tgds(UNARY, 1, 1),
        "guarded": lambda: enumerate_guarded_tgds(UNARY, 1, 1),
        "tgds": lambda: enumerate_tgds(UNARY, 1, 1),
    }

    @staticmethod
    def _raising(error):
        def build(body, head):
            raise error

        return build

    @pytest.mark.parametrize("name", sorted(ENUMERATORS))
    def test_unexpected_error_propagates(self, name, monkeypatch):
        from repro.dependencies import enumeration

        monkeypatch.setattr(
            enumeration, "TGD", self._raising(RuntimeError("bug"))
        )
        with pytest.raises(RuntimeError, match="bug"):
            list(self.ENUMERATORS[name]())

    @pytest.mark.parametrize("name", sorted(ENUMERATORS))
    def test_malformed_candidates_are_skipped(self, name, monkeypatch):
        from repro.dependencies import DependencyError, enumeration

        monkeypatch.setattr(
            enumeration, "TGD", self._raising(DependencyError("malformed"))
        )
        assert list(self.ENUMERATORS[name]()) == []

    def test_random_tgd_propagates(self, monkeypatch):
        import random

        from repro.workloads import random_tgd, random_tgds

        monkeypatch.setattr(
            random_tgds, "TGD", self._raising(RuntimeError("bug"))
        )
        with pytest.raises(RuntimeError, match="bug"):
            random_tgd(random.Random(0), BINARY)
