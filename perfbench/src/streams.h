#ifndef PERFBENCH_STREAMS_H_
#define PERFBENCH_STREAMS_H_

/// \file streams.h
/// \brief Seeded request streams: laps over the items claimed from a shared
/// cursor (the `cold` workload) and a Zipf popularity law with an operation
/// mix (`warm`). Everything derives from one workload seed through
/// SplitMix64, so the same seed gives the same streams on every platform.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// \brief SplitMix64: tiny, seedable, identical on every platform (the
/// standard library's distributions are not).
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next();
  /// Uniform in [0, bound); `bound` > 0.
  uint64_t Bounded(uint64_t bound);
  /// Uniform in [0, 1).
  double Unit();

 private:
  uint64_t state_;
};

/// \brief Derives an independent stream seed from a workload seed and a
/// purpose/client tag.
uint64_t DeriveSeed(uint64_t seed, uint64_t tag_a, uint64_t tag_b = 0);

/// \brief Fisher-Yates shuffle of `items` driven by `seed`.
void Shuffle(std::vector<size_t>* items, uint64_t seed);

/// \brief An endless sequence of laps over [0, n): every lap is a fresh
/// seeded permutation, so each item appears exactly once per lap. Readers
/// claim positions from one shared cursor; within a lap no two readers ever
/// hold the same item, and the work splits evenly however uneven the items'
/// costs are.
class LapSequence {
 public:
  LapSequence(size_t n, uint64_t seed) : n_(n), seed_(seed) {}

  /// The permutation of lap `lap`.
  std::vector<size_t> Lap(uint64_t lap) const;

  /// Item at global `position`. `cache` keeps the caller's most recent lap
  /// (one per thread) so a permutation is built once per lap and caller.
  struct Cache {
    uint64_t lap = UINT64_MAX;
    std::vector<size_t> order;
  };
  size_t At(uint64_t position, Cache* cache) const;

 private:
  size_t n_;
  uint64_t seed_;
};

/// \brief Draws ranks in [0, n) with P(rank r) proportional to
/// 1 / (r + 1)^s, and maps rank -> item through a permutation drawn from
/// `permutation_seed`, which fixes which items are hot.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s, uint64_t permutation_seed);
  /// Next item, drawing from `rng`.
  size_t Next(SplitMix64* rng) const;

 private:
  std::vector<double> cdf_;
  std::vector<size_t> rank_to_item_;
};

/// \brief The NLIDB operation mix of `warm`.
enum class Op : uint8_t { kTranslate = 0, kMapOnly = 1, kJoinsOnly = 2 };
constexpr size_t kOpCount = 3;
const char* OpName(Op op);

/// \brief ~80% Translate, ~10% MapOnly, ~10% JoinsOnly.
Op DrawOp(SplitMix64* rng);

}  // namespace perfbench

#endif  // PERFBENCH_STREAMS_H_
