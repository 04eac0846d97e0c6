#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "fhe/circuits.hpp"
#include "fhe/evaluator.hpp"
#include "fhe/graph.hpp"

namespace hemul::fhe {
namespace {

/// Gates and word circuits, recorded as a Graph and run by the wavefront
/// Evaluator on the scheme's own engine.
class CircuitsTest : public ::testing::Test {
 protected:
  CircuitsTest() : scheme_(DghvParams::toy(), 77) {}

  std::vector<Ciphertext> run(const Graph& graph, const std::vector<Wire>& outputs,
                              EvalReport* report = nullptr) {
    return Evaluator().evaluate(graph, outputs, report);
  }

  Dghv scheme_;
};

TEST_F(CircuitsTest, AllTwoInputGates) {
  Graph graph(scheme_);
  const Wire one = graph.input(scheme_.encrypt(true));
  std::vector<Wire> outputs;
  for (const bool a : {false, true}) {
    for (const bool b : {false, true}) {
      const Wire wa = graph.input(scheme_.encrypt(a));
      const Wire wb = graph.input(scheme_.encrypt(b));
      outputs.push_back(graph.gate_xor(wa, wb));
      outputs.push_back(graph.gate_and(wa, wb));
      outputs.push_back(graph.gate_or(wa, wb));
      outputs.push_back(graph.gate_not(wa, one));
    }
  }
  const std::vector<Ciphertext> bits = run(graph, outputs);
  std::size_t k = 0;
  for (const bool a : {false, true}) {
    for (const bool b : {false, true}) {
      EXPECT_EQ(scheme_.decrypt(bits[k++]), a != b);
      EXPECT_EQ(scheme_.decrypt(bits[k++]), a && b);
      EXPECT_EQ(scheme_.decrypt(bits[k++]), a || b);
      EXPECT_EQ(scheme_.decrypt(bits[k++]), !a);
    }
  }
}

TEST_F(CircuitsTest, MajorityGate) {
  Graph graph(scheme_);
  std::vector<Wire> outputs;
  for (int bits = 0; bits < 8; ++bits) {
    outputs.push_back(graph.gate_maj(graph.input(scheme_.encrypt(bits & 1)),
                                     graph.input(scheme_.encrypt(bits & 2)),
                                     graph.input(scheme_.encrypt(bits & 4))));
  }
  const std::vector<Ciphertext> r = run(graph, outputs);
  for (int bits = 0; bits < 8; ++bits) {
    const bool a = bits & 1;
    const bool b = bits & 2;
    const bool c = bits & 4;
    EXPECT_EQ(scheme_.decrypt(r[bits]), (a + b + c) >= 2) << bits;
  }
}

TEST_F(CircuitsTest, EncryptDecryptIntRoundTrip) {
  for (const u64 v : {0ULL, 1ULL, 5ULL, 10ULL, 15ULL}) {
    EXPECT_EQ(decrypt_int(scheme_, encrypt_int(scheme_, v, 4)), v);
  }
  // Width truncates.
  EXPECT_EQ(decrypt_int(scheme_, encrypt_int(scheme_, 0xFF, 4)), 0xFu);
}

TEST_F(CircuitsTest, RippleCarryAdder) {
  const Ciphertext zero = scheme_.encrypt(false);
  for (auto [x, y] : {std::pair{3u, 2u}, {7u, 9u}, {15u, 15u}, {0u, 0u}, {8u, 8u}}) {
    Graph graph(scheme_);
    Graph::AddResult r = graph.add(graph.inputs(encrypt_int(scheme_, x, 4)),
                                   graph.inputs(encrypt_int(scheme_, y, 4)), graph.input(zero));
    std::vector<Wire> outputs = std::move(r.sum);
    outputs.push_back(r.carry_out);
    const std::vector<Ciphertext> bits = run(graph, outputs);
    const u64 sum = decrypt_int(scheme_, EncryptedInt(bits.begin(), bits.begin() + 4)) |
                    (scheme_.decrypt(bits[4]) ? 16u : 0u);
    EXPECT_EQ(sum, x + y) << x << "+" << y;
  }
}

TEST_F(CircuitsTest, AdderUsesTwoMultsPerBit) {
  Graph graph(scheme_);
  Graph::AddResult r = graph.add(graph.inputs(encrypt_int(scheme_, 5, 4)),
                                 graph.inputs(encrypt_int(scheme_, 6, 4)),
                                 graph.input(scheme_.encrypt(false)));
  std::vector<Wire> outputs = std::move(r.sum);
  outputs.push_back(r.carry_out);
  EvalReport report;
  (void)run(graph, outputs, &report);
  EXPECT_EQ(report.and_gates, 8u);  // 2 per bit x 4 bits
}

TEST_F(CircuitsTest, EqualityComparator) {
  Graph graph(scheme_);
  const Wire one = graph.input(scheme_.encrypt(true));
  const std::vector<Wire> a = graph.inputs(encrypt_int(scheme_, 11, 4));
  const std::vector<Wire> same = graph.inputs(encrypt_int(scheme_, 11, 4));
  const std::vector<Wire> differs = graph.inputs(encrypt_int(scheme_, 10, 4));
  const std::vector<Ciphertext> r =
      run(graph, {graph.equals(a, same, one), graph.equals(a, differs, one)});
  EXPECT_TRUE(scheme_.decrypt(r[0]));
  EXPECT_FALSE(scheme_.decrypt(r[1]));
}

TEST(CircuitsDeep, EncryptedMultiplier) {
  // The word-level multiplier stacks ripple-carry adders, so its
  // multiplicative depth exceeds the toy noise budget; the deep() preset
  // provides eta = 8192 bits of headroom.
  Dghv scheme(DghvParams::deep(), 88);
  const Ciphertext zero = scheme.encrypt(false);
  for (auto [x, y] : {std::pair{3u, 2u}, {3u, 3u}, {0u, 2u}, {1u, 3u}}) {
    Graph graph(scheme);
    const std::vector<Wire> product =
        graph.multiply(graph.inputs(encrypt_int(scheme, x, 2)),
                       graph.inputs(encrypt_int(scheme, y, 2)), graph.input(zero));
    const std::vector<Ciphertext> bits = Evaluator().evaluate(graph, product);
    EXPECT_EQ(decrypt_int(scheme, EncryptedInt(bits.begin(), bits.end())), x * y)
        << x << "*" << y;
  }
}

TEST_F(CircuitsTest, WidthMismatchRejected) {
  Graph graph(scheme_);
  const Wire zero = graph.input(scheme_.encrypt(false));
  const Wire one = graph.input(scheme_.encrypt(true));
  const std::vector<Wire> a = graph.inputs(encrypt_int(scheme_, 1, 4));
  const std::vector<Wire> b = graph.inputs(encrypt_int(scheme_, 1, 3));
  EXPECT_THROW((void)graph.add(a, b, zero), std::logic_error);
  EXPECT_THROW((void)graph.equals(a, b, one), std::logic_error);
}

}  // namespace
}  // namespace hemul::fhe
