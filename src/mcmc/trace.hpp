// Storage for MCMC output: named parameter traces per chain, plus pooled
// views. McmcRun is the posterior sink that records draws; the trace-based
// diagnostics, holdout scoring and release planning consume it.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "mcmc/accumulator.hpp"

namespace srm::mcmc {

/// Samples of every monitored parameter for one chain.
/// Layout: samples_[parameter_index][iteration].
class ChainTrace {
 public:
  explicit ChainTrace(std::size_t parameter_count)
      : samples_(parameter_count) {}

  void append(std::span<const double> state);

  /// Pre-reserves capacity for `sample_count` retained draws per
  /// parameter, so the retention loop never reallocates.
  void reserve(std::size_t sample_count);

  [[nodiscard]] std::size_t parameter_count() const { return samples_.size(); }
  [[nodiscard]] std::size_t sample_count() const {
    return samples_.empty() ? 0 : samples_.front().size();
  }
  [[nodiscard]] std::span<const double> parameter(std::size_t index) const;

 private:
  std::vector<std::vector<double>> samples_;
};

/// A complete multi-chain MCMC run, filled as a posterior sink: every
/// draw it is fed is appended to its chain's trace.
class McmcRun final : public PosteriorAccumulator {
 public:
  /// `draws_per_chain` is reserved up front in every chain, so recording
  /// that many draws never reallocates.
  McmcRun(std::vector<std::string> parameter_names, std::size_t chain_count,
          std::size_t draws_per_chain = 0);

  void accumulate(std::size_t chain, std::span<const double> state,
                  GibbsWorkspace* workspace) override;

  [[nodiscard]] const std::vector<std::string>& parameter_names() const {
    return names_;
  }
  [[nodiscard]] std::size_t parameter_index(const std::string& name) const;

  [[nodiscard]] std::size_t chain_count() const { return chains_.size(); }
  [[nodiscard]] const ChainTrace& chain(std::size_t c) const {
    return chains_.at(c);
  }

  /// All chains' samples of one parameter concatenated (chain 0 first).
  [[nodiscard]] std::vector<double> pooled(std::size_t parameter_index) const;
  [[nodiscard]] std::vector<double> pooled(const std::string& name) const;

  /// Total retained samples across chains.
  [[nodiscard]] std::size_t total_samples() const;

 private:
  std::vector<std::string> names_;
  std::vector<ChainTrace> chains_;
};

}  // namespace srm::mcmc
