#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace realtor::obs {
namespace {

/// splitmix64 step — the histogram's private, seed-fixed generator. Using
/// a self-contained stream (rather than common RngStream) keeps quantile
/// estimates a pure function of the observation sequence.
std::uint64_t next_u64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void Histogram::observe(double value) {
  stats_.add(value);
  if (reservoir_.size() < capacity_) {
    reservoir_.push_back(value);
    seqs_.push_back(stats_.count());
    return;
  }
  // Algorithm R: element i of the stream survives with probability
  // capacity / i, keeping the reservoir a uniform sample.
  const std::uint64_t slot = next_u64(rng_state_) % stats_.count();
  if (slot < capacity_) {
    reservoir_[static_cast<std::size_t>(slot)] = value;
    seqs_[static_cast<std::size_t>(slot)] = stats_.count();
  }
}

void Histogram::merge(const Histogram& other) {
  if (other.stats_.count() == 0) return;
  struct Entry {
    double value;
    std::uint64_t seq;
  };
  std::vector<Entry> entries;
  entries.reserve(reservoir_.size() + other.reservoir_.size());
  for (std::size_t i = 0; i < reservoir_.size(); ++i) {
    entries.push_back({reservoir_[i], seqs_[i]});
  }
  for (std::size_t i = 0; i < other.reservoir_.size(); ++i) {
    entries.push_back({other.reservoir_[i], other.seqs_[i]});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return a.value != b.value ? a.value < b.value : a.seq < b.seq;
            });
  stats_.merge(other.stats_);
  reservoir_.clear();
  seqs_.clear();
  if (entries.size() <= capacity_) {
    for (const Entry& entry : entries) {
      reservoir_.push_back(entry.value);
      seqs_.push_back(entry.seq);
    }
    return;
  }
  // Even stride over the sorted union: keeps the retained sample's
  // quantile shape and is a pure function of the two reservoirs.
  for (std::size_t i = 0; i < capacity_; ++i) {
    const std::size_t pick = i * entries.size() / capacity_;
    reservoir_.push_back(entries[pick].value);
    seqs_.push_back(entries[pick].seq);
  }
}

double Histogram::quantile(double q) const {
  // Degenerate reservoirs first: an empty histogram has no defined
  // quantile (report 0), and a single sample IS every quantile. The
  // guards also keep the interpolation below away from size-1 edge
  // arithmetic (rank is always 0 there, but making the contract explicit
  // costs nothing and is unit-tested).
  if (reservoir_.empty()) return 0.0;
  if (reservoir_.size() == 1) return reservoir_.front();
  std::vector<double> sorted = reservoir_;
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::min(1.0, std::max(0.0, q));
  const double rank = clamped * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

void Histogram::reset() {
  stats_ = OnlineStats{};
  reservoir_.clear();
  seqs_.clear();
  rng_state_ = 0x9e3779b97f4a7c15ULL;
}

}  // namespace realtor::obs
