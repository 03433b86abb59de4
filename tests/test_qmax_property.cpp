// Property sweep: the golden q-MAX invariant — after any prefix of any
// stream, query() returns exactly the multiset of the q largest values —
// checked over a (q, γ, stream-shape) grid for the deamortized reservoir.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "common/zipf.hpp"
#include "qmax/qmax.hpp"

namespace {

using qmax::QMax;
using qmax::common::Xoshiro256;
using qmax::common::ZipfGenerator;

enum class Shape {
  kUniform,
  kAscending,
  kDescending,
  kSawtooth,
  kConstant,
  kZipf,
  kTwoPhase  // low regime then high regime (threshold shock)
};

std::string shape_name(Shape s) {
  switch (s) {
    case Shape::kUniform: return "Uniform";
    case Shape::kAscending: return "Ascending";
    case Shape::kDescending: return "Descending";
    case Shape::kSawtooth: return "Sawtooth";
    case Shape::kConstant: return "Constant";
    case Shape::kZipf: return "Zipf";
    case Shape::kTwoPhase: return "TwoPhase";
  }
  return "?";
}

struct Param {
  std::size_t q;
  double gamma;
  Shape shape;
};

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  // Built with append rather than operator+ chains: GCC 12's -Wrestrict
  // false-positives on temporary-string concatenation under -O3.
  const auto& p = info.param;
  std::string name = "q";
  name += std::to_string(p.q);
  name += "_g";
  name += std::to_string(int(std::round(p.gamma * 1000)));
  name += "_";
  name += shape_name(p.shape);
  return name;
}

double next_value(Shape shape, std::size_t i, std::size_t n, Xoshiro256& rng,
                  ZipfGenerator& zipf) {
  switch (shape) {
    case Shape::kUniform: return rng.uniform() * 1e6;
    case Shape::kAscending: return static_cast<double>(i);
    case Shape::kDescending: return static_cast<double>(n - i);
    case Shape::kSawtooth: return static_cast<double>(i % 523);
    case Shape::kConstant: return 17.0;
    case Shape::kZipf: return static_cast<double>(zipf(rng));
    case Shape::kTwoPhase:
      return i < n / 2 ? rng.uniform() : 1e6 + rng.uniform();
  }
  return 0.0;
}

class QMaxGrid : public ::testing::TestWithParam<Param> {};

TEST_P(QMaxGrid, PrefixInvariant) {
  const auto p = GetParam();
  // At least 10 q items, so even the largest q runs many iterations.
  const std::size_t n = std::max<std::size_t>(12'000, 10 * p.q);
  QMax<> r(p.q, p.gamma);
  Xoshiro256 rng(p.q * 1000 + static_cast<std::uint64_t>(p.gamma * 100) +
                 static_cast<std::uint64_t>(p.shape));
  ZipfGenerator zipf(5'000, 1.1);

  std::vector<double> all;
  all.reserve(n);
  // Check the invariant at several prefixes, including awkward ones that
  // land mid-iteration.
  const std::size_t checkpoints[] = {1,     p.q / 2 + 1, p.q + 3,
                                     n / 3, n / 2 + 7,   n};
  std::size_t next_cp = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = next_value(p.shape, i, n, rng, zipf);
    all.push_back(v);
    r.add(i, v);
    while (next_cp < std::size(checkpoints) &&
           i + 1 == checkpoints[next_cp]) {
      ++next_cp;
      std::vector<double> got;
      for (const auto& e : r.query()) got.push_back(e.val);
      std::sort(got.begin(), got.end(), std::greater<>());
      std::vector<double> expect = all;
      std::sort(expect.begin(), expect.end(), std::greater<>());
      if (expect.size() > p.q) expect.resize(p.q);
      ASSERT_EQ(got, expect) << "prefix " << (i + 1);
    }
  }
  // Space bound from Theorem 1 (g rounds up, hence the +2 slack).
  EXPECT_LE(r.capacity(),
            static_cast<std::size_t>(std::ceil(p.q * (1.0 + p.gamma))) + 2);
}

constexpr Shape kShapes[] = {Shape::kUniform,  Shape::kAscending,
                             Shape::kDescending, Shape::kSawtooth,
                             Shape::kConstant, Shape::kZipf,
                             Shape::kTwoPhase};

std::vector<Param> make_grid() {
  std::vector<Param> grid;
  // q = 4096 puts the q + g candidates above the selection's sampling
  // threshold, so every shape also runs the sampled first pivot.
  for (std::size_t q : {1, 2, 7, 64, 500, 4096}) {
    for (double gamma : {0.01, 0.1, 0.5, 2.0}) {
      for (Shape s : kShapes) grid.push_back(Param{q, gamma, s});
    }
  }
  return grid;
}

INSTANTIATE_TEST_SUITE_P(Grid, QMaxGrid, ::testing::ValuesIn(make_grid()),
                         param_name);

}  // namespace
