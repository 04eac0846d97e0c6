#pragma once

#include <vector>

#include "fhe/dghv.hpp"

namespace hemul::fhe {

/// An encrypted little-endian integer: bit i of the plaintext in word[i].
using EncryptedInt = std::vector<Ciphertext>;

/// Gate-at-a-time reference builder for the fhe/lowering.hpp templates:
/// every gate is evaluated the moment the template reaches it, XOR through
/// Dghv::add and AND through Dghv::multiply. It shares no code with Graph
/// recording or the wavefront stepper, so tests and benches compare
/// wavefront results against it bit for bit:
///   ReferenceBuilder ref{&scheme};
///   lowering::AddOut<ReferenceBuilder> sum =
///       lowering::lower_add(ref, std::span<const Ciphertext>(a),
///                           std::span<const Ciphertext>(b), zero, options);
struct ReferenceBuilder {
  using WireType = Ciphertext;
  const Dghv* scheme;

  [[nodiscard]] Ciphertext gate_xor(const Ciphertext& a, const Ciphertext& b) const {
    return scheme->add(a, b);
  }
  [[nodiscard]] Ciphertext gate_and(const Ciphertext& a, const Ciphertext& b) const {
    return scheme->multiply(a, b);
  }
};

/// Encrypts an integer bit by bit (width bits, little-endian).
EncryptedInt encrypt_int(Dghv& scheme, u64 value, unsigned width);

/// Decrypts an encrypted integer.
u64 decrypt_int(const Dghv& scheme, const EncryptedInt& value);

}  // namespace hemul::fhe
