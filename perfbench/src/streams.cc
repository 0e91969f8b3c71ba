#include "streams.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t SplitMix64::Bounded(uint64_t bound) { return Next() % bound; }

double SplitMix64::Unit() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

uint64_t DeriveSeed(uint64_t seed, uint64_t tag_a, uint64_t tag_b) {
  SplitMix64 mix(seed ^ (tag_a * 0xd1b54a32d192ed03ULL) ^
                 (tag_b * 0x8cb92ba72f3d8dd7ULL));
  mix.Next();
  return mix.Next();
}

void Shuffle(std::vector<size_t>* items, uint64_t seed) {
  SplitMix64 rng(seed);
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng.Bounded(i)]);
  }
}

std::vector<size_t> LapSequence::Lap(uint64_t lap) const {
  std::vector<size_t> order(n_);
  std::iota(order.begin(), order.end(), 0);
  Shuffle(&order, DeriveSeed(seed_, 2, lap));
  return order;
}

size_t LapSequence::At(uint64_t position, Cache* cache) const {
  const uint64_t lap = position / n_;
  if (cache->lap != lap) {
    cache->order = Lap(lap);
    cache->lap = lap;
  }
  return cache->order[position % n_];
}

ZipfSampler::ZipfSampler(size_t n, double s, uint64_t permutation_seed)
    : cdf_(n), rank_to_item_(n) {
  double total = 0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
  std::iota(rank_to_item_.begin(), rank_to_item_.end(), 0);
  Shuffle(&rank_to_item_, DeriveSeed(permutation_seed, 3));
}

size_t ZipfSampler::Next(SplitMix64* rng) const {
  const double u = rng->Unit();
  size_t rank = static_cast<size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  rank = std::min(rank, cdf_.size() - 1);
  return rank_to_item_[rank];
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kTranslate:
      return "translate";
    case Op::kMapOnly:
      return "map_only";
    case Op::kJoinsOnly:
      return "joins_only";
  }
  return "?";
}

Op DrawOp(SplitMix64* rng) {
  const uint64_t roll = rng->Bounded(10);
  if (roll < 8) return Op::kTranslate;
  return roll == 8 ? Op::kMapOnly : Op::kJoinsOnly;
}

}  // namespace perfbench
