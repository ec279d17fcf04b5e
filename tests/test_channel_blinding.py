"""Tests for the blinding step."""

import numpy as np
import pytest

from repro.crypto.packing import PackedLinearModel
from repro.exceptions import ProtocolError
from repro.twopc.blinding import blind_dot_products, blind_extracted_candidates, unblind_reference


@pytest.fixture(scope="module")
def packed_model(bv_scheme, bv_keys):
    rng = np.random.default_rng(3)
    matrix = rng.integers(0, 100, size=(30, 2)).tolist()
    model = PackedLinearModel.encrypt(bv_scheme, bv_keys.public, matrix, across_rows=True)
    return matrix, model


class TestBlinding:
    def test_blinded_outputs_unblind_to_true_dot_products(self, bv_scheme, bv_keys, packed_model):
        matrix, model = packed_model
        features = [(0, 1), (7, 2)]
        result = model.dot_products(features)
        blinded = blind_dot_products(bv_scheme, bv_keys.public, model, result, [0, 1], dot_bits=20)
        reference = np.array(matrix[-1], dtype=np.int64)
        for index, frequency in features:
            reference += frequency * np.array(matrix[index])
        decrypted = [bv_scheme.decrypt_slots(bv_keys, ct) for ct in blinded.ciphertexts]
        for column in (0, 1):
            ct_index, slot, noise = blinded.output_noise[column]
            recovered = unblind_reference(decrypted[ct_index][slot], noise, bv_scheme)
            assert recovered == reference[column]

    def test_non_output_slots_are_blinded(self, bv_scheme, bv_keys, packed_model):
        _, model = packed_model
        result = model.dot_products([(1, 1)])
        blinded_a = blind_dot_products(bv_scheme, bv_keys.public, model, result, [0, 1], dot_bits=20)
        blinded_b = blind_dot_products(bv_scheme, bv_keys.public, model, result, [0, 1], dot_bits=20)
        slots_a = bv_scheme.decrypt_slots(bv_keys, blinded_a.ciphertexts[0])
        slots_b = bv_scheme.decrypt_slots(bv_keys, blinded_b.ciphertexts[0])
        # The garbage/unused slots get fresh full-range noise each time.
        output_slots = {blinded_a.output_noise[0][1], blinded_a.output_noise[1][1]}
        differing = [
            slot for slot in range(bv_scheme.num_slots)
            if slot not in output_slots and slots_a[slot] != slots_b[slot]
        ]
        assert len(differing) > bv_scheme.num_slots // 2

    def test_candidate_extraction_unblinds_correctly(self, bv_scheme, bv_keys, packed_model):
        matrix, model = packed_model
        features = [(2, 1), (9, 3)]
        result = model.dot_products(features)
        blinded = blind_extracted_candidates(
            bv_scheme, bv_keys.public, model, result, candidate_columns=[1], dot_bits=20
        )
        reference = matrix[-1][1] + matrix[2][1] + 3 * matrix[9][1]
        ct_index, slot, noise = blinded.output_noise[1]
        assert slot == bv_scheme.num_slots - 1
        decrypted = bv_scheme.decrypt_slots(bv_keys, blinded.ciphertexts[ct_index])
        assert unblind_reference(decrypted[slot], noise, bv_scheme) == reference

    def test_candidate_extraction_one_ciphertext_per_candidate(self, bv_scheme, bv_keys, packed_model):
        _, model = packed_model
        result = model.dot_products([(0, 1)])
        blinded = blind_extracted_candidates(
            bv_scheme, bv_keys.public, model, result, candidate_columns=[0, 1], dot_bits=20
        )
        assert len(blinded.ciphertexts) == 2
        assert blinded.network_bytes() == 2 * bv_scheme.ciphertext_size_bytes()

    def test_unknown_column_rejected(self, bv_scheme, bv_keys, packed_model):
        _, model = packed_model
        result = model.dot_products([(0, 1)])
        with pytest.raises(ProtocolError):
            blind_dot_products(bv_scheme, bv_keys.public, model, result, [5], dot_bits=20)
        with pytest.raises(ProtocolError):
            blind_extracted_candidates(
                bv_scheme, bv_keys.public, model, result, candidate_columns=[7], dot_bits=20
            )

    def test_paillier_requires_guard_bits(self, paillier_scheme, paillier_keys):
        matrix = [[1, 2], [3, 4]]
        model = PackedLinearModel.encrypt(paillier_scheme, paillier_keys.public, matrix, across_rows=False)
        result = model.dot_products([(0, 1)])
        with pytest.raises(ProtocolError):
            blind_dot_products(
                paillier_scheme, paillier_keys.public, model, result, [0, 1],
                dot_bits=paillier_scheme.slot_bits,
            )

    def test_paillier_guard_blinding_roundtrip(self, paillier_scheme, paillier_keys):
        matrix = [[5, 8], [2, 1], [7, 7]]
        model = PackedLinearModel.encrypt(paillier_scheme, paillier_keys.public, matrix, across_rows=False)
        features = [(0, 2), (1, 1)]
        result = model.dot_products(features)
        blinded = blind_dot_products(
            paillier_scheme, paillier_keys.public, model, result, [0, 1], dot_bits=8
        )
        decrypted = [paillier_scheme.decrypt_slots(paillier_keys, ct) for ct in blinded.ciphertexts]
        expected = [7 + 2 * 5 + 2, 7 + 2 * 8 + 1]
        for column in (0, 1):
            ct_index, slot, noise = blinded.output_noise[column]
            assert decrypted[ct_index][slot] - noise == expected[column]
