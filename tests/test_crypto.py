"""Tests for the cryptographic substrate: hashing, primes, RSA, keys, schemes."""

import functools
import multiprocessing
import pickle
import sys
import threading
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.crypto import hashing
from repro.crypto import modexp as native
from repro.crypto import rsa
from repro.crypto.keys import CertificateAuthority, KeyStore, build_trust
from repro.crypto.primes import generate_prime, is_probable_prime
from repro.crypto.rsa import encode_digest, generate_keypair
from repro.crypto.signatures import RsaScheme, get_scheme
from repro.errors import CertificateError, KeyGenerationError, SignatureError
from repro.adversary.equivocation import cancelling_twins
from repro.audit.kernel import chunk_job, run_chunk
from repro.audit.verdict import AuditPhase
from repro.log.authenticator import batch_verify_authenticators
from repro.log.entries import EntryType
from repro.log.tamper_evident import TamperEvidentLog
from repro.workloads.echo import make_echo_image

import random


class TestHashing:
    def test_hash_is_32_bytes(self):
        assert len(hashing.hash_bytes(b"x")) == hashing.HASH_SIZE_BYTES

    def test_hash_deterministic(self):
        assert hashing.hash_bytes(b"abc") == hashing.hash_bytes(b"abc")

    def test_hash_hex_matches_bytes(self):
        assert hashing.hash_hex(b"abc") == hashing.hash_bytes(b"abc").hex()

    def test_concat_framing_prevents_ambiguity(self):
        assert hashing.hash_concat(b"ab", b"c") != hashing.hash_concat(b"a", b"bc")

    def test_concat_differs_from_plain_hash(self):
        assert hashing.hash_concat(b"abc") != hashing.hash_bytes(b"abc")

    def test_hash_object_key_order_independent(self):
        assert hashing.hash_object({"a": 1, "b": 2}) == hashing.hash_object({"b": 2, "a": 1})

    def test_hash_object_refuses_bytes(self):
        # it hashes JSON values; nothing hashes raw bytes through it
        with pytest.raises(TypeError):
            hashing.hash_object({"k": b"\x01\x02"})

    def test_hash_object_rejects_unencodable(self):
        with pytest.raises(TypeError):
            hashing.hash_object({"k": object()})

    def test_encode_int_width(self):
        assert hashing.encode_int(1) == b"\x00" * 7 + b"\x01"


class TestPrimes:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 11, 97, 229):
            assert is_probable_prime(p)

    def test_small_composites(self):
        for n in (0, 1, 4, 9, 100, 221, 561, 41041):  # includes Carmichael numbers
            assert not is_probable_prime(n)

    def test_large_known_prime(self):
        assert is_probable_prime(2 ** 127 - 1)  # Mersenne prime

    def test_large_known_composite(self):
        assert not is_probable_prime((2 ** 127 - 1) * 3)

    def test_generate_prime_has_exact_bit_length(self):
        rng = random.Random(0)
        p = generate_prime(128, rng)
        assert p.bit_length() == 128
        assert is_probable_prime(p)

    def test_generate_prime_rejects_tiny_sizes(self):
        with pytest.raises(KeyGenerationError):
            generate_prime(4, random.Random(0))


class TestRsa:
    @pytest.fixture(scope="class")
    def keypair(self):
        return generate_keypair(bits=512, seed=99)

    def test_sign_verify_roundtrip(self, keypair):
        signature = keypair.sign(b"hello")
        assert keypair.public.verify(b"hello", signature)

    def test_wrong_message_fails(self, keypair):
        signature = keypair.sign(b"hello")
        assert not keypair.public.verify(b"goodbye", signature)

    def test_tampered_signature_fails(self, keypair):
        signature = bytearray(keypair.sign(b"hello"))
        signature[0] ^= 0xFF
        assert not keypair.public.verify(b"hello", bytes(signature))

    def test_wrong_length_signature_fails(self, keypair):
        assert not keypair.public.verify(b"hello", b"\x00" * 10)

    def test_signature_length_matches_modulus(self, keypair):
        assert len(keypair.sign(b"x")) == keypair.public.byte_length()

    def test_crt_signature_matches_direct_exponentiation(self, keypair):
        # The CRT signature must be byte-identical to the textbook m^d mod n.
        for message in (b"", b"hello", b"x" * 1000):
            digest = encode_digest(message, keypair.modulus)
            direct = pow(digest, keypair.exponent, keypair.modulus)
            assert keypair.sign(message) == direct.to_bytes(
                keypair.public.byte_length(), "big")

    def test_deterministic_keygen(self):
        a = generate_keypair(bits=512, seed=5)
        b = generate_keypair(bits=512, seed=5)
        assert a.modulus == b.modulus

    def test_different_seeds_different_keys(self):
        a = generate_keypair(bits=512, seed=5)
        b = generate_keypair(bits=512, seed=6)
        assert a.modulus != b.modulus

    def test_fingerprint_stable(self, keypair):
        assert keypair.public.fingerprint() == keypair.public.fingerprint()
        assert len(keypair.public.fingerprint()) == 16

    def test_too_small_modulus_rejected(self):
        with pytest.raises(KeyGenerationError):
            generate_keypair(bits=128)


#: ``generate_keypair(768, seed)`` -> (modulus, signature of _PIN_MESSAGE),
#: as hex, computed with the builtin ``pow`` before the native exponentiation
#: existed: a kernel that ever diverges from ``pow`` fails here by seed.
_PIN_MESSAGE = b"accountable virtual machines"
_PINS = {
    1: ("99406889e6fcc606888e83d386054ae0c210390b48b15a6ddb2573becec39265"
        "269215eed8db9803c144fdd52e95feae7da778ff0f3d6dcb0515109221da67c9"
        "bad79aef7fcc5769397cdb8ca07f497d8cb1d8fe6462706d6d0d41b1bb14faab",
        "485d8115ddcec5ea10674ed4049c5f8245d3f93317fe6fd68c1b86bcabbbd694"
        "41b15903a4778aca344426e435acecd7bc6fe3304dc075c1f9f36157e66f8d62"
        "8ca5dd6e56cfb935e4b96c385f5eb3fa139bf1709addafe31eebe6f3d58e19e5"),
    42: ("8363e45743f7d53cd55b57f1f399221b203ebc3c638fd4d48ca7a0324aa78764"
         "09f5f031283b7cffd1c6cf18c259f030e607c40be2fc971dd188d8c4a0a18a0e"
         "a3756b196e60e738235c9ca2ec77da9629a1ab399d936aa562abc86251808f2d",
         "727a0855935f3ad7813c3f4d19cc2b9ce06929e8088531796370330b02daa4de"
         "cb0a8c68685f3aca04d44d0361c7140afbb2535ce86559fafff559455d214857"
         "8686d8c61ed71f7e9d55e9ac6a66c9b4c69ffcaaae6025cc4ebc4be2adbe3a18"),
    2010: ("a3edd75815e9da14b0f58535f0d734b03b4f5e111fe8e4957ca0a592f9cbcf15"
           "976ce45c2e22040a279ab2bac75b4f892f4d02ea97d938d24c141ef82a51fbd3"
           "fb5c29b2c2e8a0e8a1149495ca137370001f7a4fe8bab249f4876ea723b5677f",
           "69b7f7e59a0c69f042d8974a5c6ebc147cd98f986cdf510b64b80d3b8c403aed"
           "e9c91846b62ab678247761374003bfae033e699b858665f2ea3ae138135759f3"
           "b91c81c7e4d0a435a51675e82f0d8b74333008ee3a51068dbec619ac067aab66"),
}


def _empty_key_memo(patch):
    """Put an empty key memo, built like the process one, in its place until
    ``patch`` is undone: seeded keys are searched for again meanwhile, and the
    process memo comes back untouched, so later tests keep its keys and never
    see the ones made here."""
    patch.setattr(rsa, "_seeded_keypairs", functools.lru_cache(
        **rsa._seeded_keypairs.cache_parameters())(rsa._search_keypair))
    return rsa._seeded_keypairs


@pytest.fixture(params=["native", "fallback"])
def backend(request, monkeypatch):
    """Run a test on libcrypto (where this build has it) and on ``pow``.

    The fallback side has an empty key memo of its own: its seeded keys are
    searched for under ``pow``, not handed back from a native run.
    """
    if request.param == "fallback":
        monkeypatch.setattr(native, "_libcrypto", lambda: None)
        _empty_key_memo(monkeypatch)
    return request.param


@pytest.fixture
def key_memo(monkeypatch):
    """An empty key memo for this test, built like the process one."""
    return _empty_key_memo(monkeypatch)


def _batch_with_culprit(key, count=16, culprit=11):
    """``count`` signed messages under ``key``, one signature swapped."""
    items = [(b"message %d" % i, key.sign(b"message %d" % i)) for i in range(count)]
    items[culprit] = (items[culprit][0], key.sign(b"forged"))
    return items


def _verdicts(key, items):
    """Each ``(message, signature)`` pair verified on its own under ``key``."""
    return [key.verify_key.verify(message, signature) for message, signature in items]


def _sign_and_verify(pair, messages):
    """In a worker process: ``pair``'s signatures and their verdicts."""
    signatures = [pair.sign(m) for m in messages]
    return signatures, [pair.signing_key.verify_key.verify(m, s)
                        for m, s in zip(messages, signatures)]


def _cancelling_batch(key, count=4):
    """Signed messages whose first two signatures are ``s1·r`` and ``s2·r⁻¹``."""
    n = key.verify_key.public.modulus
    items = [(b"message %d" % i, key.sign(b"message %d" % i)) for i in range(count)]
    r = 0x5EED_CAFE
    for index, factor in ((0, r), (1, pow(r, -1, n))):
        message, signature = items[index]
        forged = int.from_bytes(signature, "big") * factor % n
        items[index] = (message, forged.to_bytes(len(signature), "big"))
    return items


class TestModexp:
    def test_modexp_matches_pow(self, backend):
        rng = random.Random(2010)
        for bits in (64, 127, 384, 768, 1024, 2048):
            n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
            bases = (0, 1, n - 1, n, n + 1, 3 * n + 7, -5,
                     rng.randrange(n), rng.getrandbits(2 * bits))
            # Public exponents up to 64 bits take the variable-time ladder,
            # longer ones the constant-time one: both sides of the cut.
            exponents = (0, 1, 65537, (1 << 64) - 1, 1 << 64,
                         rng.getrandbits(bits) | (1 << (bits - 1)))
            for base in bases:
                for exponent in exponents:
                    assert native.modexp(base, exponent, n) == pow(base, exponent, n), (
                        bits, base, exponent)

    def test_modexp_rejects_what_it_cannot_compute(self, backend):
        for modulus in (-7, 0, 1, 2, 10, 1 << 768):
            with pytest.raises(ValueError):
                native.modexp(3, 5, modulus)
        with pytest.raises(ValueError):
            native.modexp(3, -1, 7)

    @pytest.mark.parametrize("seed", sorted(_PINS), ids=lambda seed: f"seed-{seed}")
    def test_modexp_pinned_key_and_signature(self, backend, seed):
        modulus, signature = _PINS[seed]
        key = generate_keypair(768, seed=seed)
        assert format(key.modulus, "x") == modulus
        assert key.sign(_PIN_MESSAGE).hex() == signature
        assert key.public.verify(_PIN_MESSAGE, bytes.fromhex(signature))

    def test_modexp_fallback_gives_the_same_keys_and_verdicts(self, monkeypatch, key_memo):
        def run():
            key = RsaScheme(768).generate("alice", seed=7)
            items = _batch_with_culprit(key)
            return (key._private, [signature for _, signature in items],
                    _verdicts(key, items))

        # An empty key memo for each run: both sides search for the primes.
        native_run = run()
        with monkeypatch.context() as patch:
            patch.setattr(native, "_libcrypto", lambda: None)
            fallback_memo = _empty_key_memo(patch)
            fallback_run = run()
        assert key_memo.cache_info().misses == fallback_memo.cache_info().misses == 1
        assert native_run == fallback_run
        verdicts = fallback_run[2]
        assert [i for i, ok in enumerate(verdicts) if not ok] == [11]

    def test_modexp_threads_agree_with_the_serial_run(self):
        # ctypes releases the GIL around each libcrypto call, so threads of
        # one process can be inside libcrypto at the same time.
        key = RsaScheme(768).generate("alice", seed=7)
        messages = [b"message %d" % i for i in range(12)]
        items = _batch_with_culprit(key, count=12, culprit=5)
        expected = ([key.sign(m) for m in messages], _verdicts(key, items))
        results, errors = [], []

        def worker():
            try:
                for _ in range(3):
                    results.append(([key.sign(m) for m in messages],
                                    _verdicts(key, items)))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(results) == 8 * 3
        assert all(result == expected for result in results)

    def test_modexp_table_stays_bounded_and_evicts_to_the_same_value(self, backend):
        # Distinct moduli beyond the table's bound, interleaved with two key
        # moduli used over and over, on the <= 64-bit and the long ladder.
        key = generate_keypair(768, seed=7)
        repeated = ((key.modulus, key.public.exponent), (key.prime_p, key.exponent_dp))
        rng = random.Random(33)
        sweep = []
        for _ in range(native.TABLE_BOUND // 2 + 20):
            modulus = rng.getrandbits(256) | (1 << 255) | 1
            sweep += [(modulus, 65537), (modulus, rng.getrandbits(256) | (1 << 255))]
        first = {}
        for m, e in repeated:
            native.modexp(3, e, m)
        kept = {pair: native._table.get(pair) for pair in repeated}
        for modulus, exponent in sweep:
            for m, e in ((modulus, exponent), *repeated):
                base = rng.getrandbits(m.bit_length() + 8)
                value = native.modexp(base, e, m)
                assert value == pow(base, e, m), (m, e)
                first.setdefault((m, e), (base, value))
            assert len(native._table) <= native.TABLE_BOUND
        evicted = [pair for pair in first if pair not in native._table]
        if backend == "native":
            assert len(evicted) >= len(sweep) - native.TABLE_BOUND
            # the least recently used go: the key entries were never rebuilt
            assert all(native._table[pair] is kept[pair] for pair in repeated)
        for m, e in evicted:
            base, value = first[(m, e)]
            assert native.modexp(base, e, m) == value

    def test_modexp_threads_race_to_prepare_a_new_modulus(self, monkeypatch):
        # A key no one has used yet: all 8 threads miss the table at once.
        key = RsaScheme(768).generate("modexp-race", seed=20_101_017)
        messages = [b"race %d" % i for i in range(10)]
        with monkeypatch.context() as patch:  # the serial run, on pow
            patch.setattr(native, "_libcrypto", lambda: None)
            expected = [key.sign(m) for m in messages]
        private = key._private
        assert not {(private.modulus, private.public.exponent),
                    (private.prime_p, private.exponent_dp),
                    (private.prime_q, private.exponent_dq)} & set(native._table)
        results, errors = [], []

        def worker():
            try:
                signatures = [key.sign(m) for m in messages]
                results.append((signatures, [key.verify_key.verify(m, s)
                                             for m, s in zip(messages, signatures)]))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert results == [(expected, [True] * len(messages))] * 8

    def test_modexp_keys_pickle_after_signing(self, ca, keystore):
        pair, view = ca.issue("alice"), keystore.static_view()
        signature = pair.sign(b"pickled")
        pair_copy, view_copy = pickle.loads(pickle.dumps((pair, view)))
        assert (pair_copy, view_copy) == (pair, view)
        assert pair_copy.sign(b"pickled") == signature
        assert view_copy.verify("alice", b"pickled", signature)

    def test_modexp_fork_worker_signs_like_the_parent(self, ca):
        pair = ca.issue("alice")
        messages = [b"fork %d" % i for i in range(6)]
        signatures = [pair.sign(m) for m in messages]  # the parent's table is warm
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            signed, verified = pool.submit(_sign_and_verify, pair, messages).result(timeout=120)
        assert signed == signatures
        assert verified == [True] * len(messages)


@pytest.fixture
def prime_searches(monkeypatch):
    """The bit sizes of every prime search key generation runs, in order."""
    calls = []
    search = rsa.generate_prime

    def spy(bits, rng):
        calls.append(bits)
        return search(bits, rng)

    monkeypatch.setattr(rsa, "generate_prime", spy)
    return calls


class TestKeygenMemo:
    """A seeded key pair is searched for once per process, an unseeded one on
    every call, and the memo holds at most ``KEY_MEMO_BOUND`` pairs."""

    def test_keygen_second_seeded_call_runs_no_prime_search(self, key_memo, prime_searches):
        first = generate_keypair(768, seed=42)
        assert len(prime_searches) >= 2
        prime_searches.clear()
        second = generate_keypair(768, seed=42)
        assert prime_searches == []
        assert second == first
        modulus, signature = _PINS[42]
        assert format(second.modulus, "x") == modulus
        assert second.sign(_PIN_MESSAGE).hex() == signature

    def test_keygen_unseeded_calls_are_fresh_and_not_memoised(self, key_memo, prime_searches):
        first, second = generate_keypair(512), generate_keypair(512)
        assert first.modulus != second.modulus
        assert len(prime_searches) >= 4
        assert key_memo.cache_info().currsize == 0

    def test_keygen_equal_seeds_that_seed_differently_do_not_share(self, key_memo,
                                                                    prime_searches):
        # -1 == -1.0 and they hash alike, but random.Random takes the
        # absolute value of an int and the hash of a float.
        assert random.Random(-1).random() != random.Random(-1.0).random()
        by_int = generate_keypair(512, seed=-1)
        prime_searches.clear()
        by_float = generate_keypair(512, seed=-1.0)
        assert prime_searches
        assert by_float != by_int
        assert by_float == rsa._search_keypair(512, -1.0)

    def test_keygen_build_trust_twice_searches_once(self, key_memo, prime_searches):
        identities = ["alice", "bob", "charlie"]
        ca, pairs, _ = build_trust(identities, seed=4321)
        assert len(prime_searches) >= 2 * (len(identities) + 1)  # the CA's too
        prime_searches.clear()
        ca_again, pairs_again, _ = build_trust(identities, seed=4321)
        assert prime_searches == []
        assert [pairs_again[i].certificate for i in identities] == [
            pairs[i].certificate for i in identities]
        assert ca_again.verify_certificate(pairs["bob"].certificate)

    def test_keygen_memo_stays_within_its_bound(self, monkeypatch, key_memo):
        # Stand-in primes drawn by the seeded generator: sweeping past the
        # bound costs no real prime search.
        primes = [generate_prime(128, random.Random(i)) for i in range(16)]
        searches = []

        def stand_in(bits, rng):
            searches.append(bits)
            return rng.choice(primes)

        monkeypatch.setattr(rsa, "generate_prime", stand_in)
        first = generate_keypair(256, seed=0)
        kept = generate_keypair(256, seed=-7)
        for seed in range(1, rsa.KEY_MEMO_BOUND + 10):
            generate_keypair(256, seed=seed)
            assert generate_keypair(256, seed=-7) is kept  # recently used
            assert key_memo.cache_info().currsize <= rsa.KEY_MEMO_BOUND
        assert key_memo.cache_info().currsize == rsa.KEY_MEMO_BOUND
        searches.clear()
        again = generate_keypair(256, seed=0)  # the least recently used went
        assert searches
        assert again == first and again is not first

    def test_keygen_leaves_a_signing_keys_prepared_entries_in_place(self, key_memo):
        # Miller–Rabin's candidates are prepared outside the modexp table, so
        # fresh key generations neither add entries nor evict a key's.
        key = generate_keypair(768, seed=8_675_309)
        key.sign(_PIN_MESSAGE)
        crt = {(key.prime_p, key.exponent_dp): native._table[(key.prime_p, key.exponent_dp)],
               (key.prime_q, key.exponent_dq): native._table[(key.prime_q, key.exponent_dq)]}
        before = set(native._table)
        for seed in range(6):
            generate_keypair(768, seed=9_000_000 + seed)
        assert set(native._table) == before
        assert all(native._table.get(pair) is entry for pair, entry in crt.items())


class TestSignatureSchemes:
    def test_get_scheme_rsa(self):
        scheme = get_scheme("rsa768")
        assert isinstance(scheme, RsaScheme)
        assert scheme.bits == 768

    def test_get_scheme_cached(self):
        assert get_scheme("rsa768") is get_scheme("rsa768")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SignatureError):
            get_scheme("dsa")

    def test_rsa_scheme_sign_verify(self):
        key = RsaScheme(512).generate("alice", seed=1)
        signature = key.sign(b"msg")
        assert key.verify_key.verify(b"msg", signature)
        assert not key.verify_key.verify(b"other", signature)

    def test_costs_ordering(self):
        rsa = get_scheme("rsa768").costs()
        null = get_scheme("nosig").costs()
        assert rsa.sign_seconds > null.sign_seconds == 0.0
        assert null.signature_bytes == 0

    def test_rsa_cost_scales_with_key_size(self):
        assert get_scheme("rsa2048").costs().sign_seconds > get_scheme("rsa768").costs().sign_seconds

    def test_verify_rejects_each_cancelling_signature(self):
        key = RsaScheme(768).generate("alice", seed=7)
        items = _cancelling_batch(key)
        assert [key.verify_key.verify(m, s) for m, s in items] == [False, False, True, True]

    def test_audit_kernel_counts_no_cancelling_pair(self, ca):
        """The pair a product screen accepted and counted: the kernel
        verifies each signature on its own, so neither counts, and the chunk
        passes its tamper check on the other two."""
        keypair = ca.issue("cancel-kernel")
        keys = KeyStore(ca)
        keys.add_certificate(keypair.certificate)
        log = TamperEvidentLog("cancel-kernel", keypair=keypair, clock=lambda: 1.0)
        genuine = [log.authenticator_for(log.append(EntryType.ANNOTATION, {"index": i}))
                   for i in range(4)]
        twins = cancelling_twins(genuine[0], genuine[1], keys, random.Random(7))
        batch = [*twins, *genuine[2:]]
        assert batch_verify_authenticators(batch, keys, "cancel-kernel") == genuine[2:]
        outcome = run_chunk(chunk_job(log.full_segment(), batch, keys.static_view(),
                                      make_echo_image()))
        assert outcome.phase is not AuditPhase.AUTHENTICATOR_CHECK, outcome.reason
        assert outcome.authenticators_checked == 2


class TestCertificates:
    def test_issue_and_verify(self, ca):
        pair = ca.issue("dave")
        assert ca.verify_certificate(pair.certificate)

    def test_issue_is_idempotent(self, ca):
        assert ca.issue("erin") is ca.issue("erin")

    def test_keystore_verifies_signatures(self, ca, keystore):
        alice = ca.issue("alice")
        signature = alice.sign(b"payload")
        assert keystore.verify("alice", b"payload", signature)
        assert not keystore.verify("alice", b"other", signature)
        assert not keystore.verify("bob", b"payload", signature)

    def test_keystore_rejects_unknown_identity(self, keystore):
        with pytest.raises(CertificateError):
            keystore.verify_key_for("nobody")
        assert not keystore.verify("nobody", b"x", b"y")

    def test_keystore_rejects_foreign_certificate(self, keystore):
        other_ca = CertificateAuthority(scheme="rsa768", seed=999, identity="rogue-ca")
        rogue = other_ca.issue("mallory")
        with pytest.raises(CertificateError):
            keystore.add_certificate(rogue.certificate)

    def test_keystore_rejects_conflicting_certificate(self, ca):
        store = KeyStore(ca)
        store.add_certificate(ca.issue("alice").certificate)
        # Re-adding the same certificate is fine.
        store.add_certificate(ca.issue("alice").certificate)
        assert store.has_identity("alice")

    def test_verify_rejects_a_bad_signature(self, ca, keystore):
        alice = ca.issue("alice")
        assert keystore.verify("alice", b"m", alice.sign(b"m"))
        assert not keystore.verify("alice", b"m", b"bad")

