#include "mcmc/trace.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace srm::mcmc {

void ChainTrace::append(std::span<const double> state) {
  SRM_EXPECTS(state.size() == samples_.size(),
              "state width must match the trace's parameter count");
  for (std::size_t i = 0; i < state.size(); ++i) {
    samples_[i].push_back(state[i]);
  }
}

void ChainTrace::reserve(std::size_t sample_count) {
  for (auto& parameter : samples_) {
    parameter.reserve(sample_count);
  }
}

std::span<const double> ChainTrace::parameter(std::size_t index) const {
  SRM_EXPECTS(index < samples_.size(), "parameter index out of range");
  return samples_[index];
}

McmcRun::McmcRun(std::vector<std::string> parameter_names,
                 std::size_t chain_count, std::size_t draws_per_chain)
    : names_(std::move(parameter_names)) {
  SRM_EXPECTS(!names_.empty(), "McmcRun requires at least one parameter");
  SRM_EXPECTS(chain_count >= 1, "McmcRun requires at least one chain");
  chains_.assign(chain_count, ChainTrace(names_.size()));
  for (auto& chain : chains_) chain.reserve(draws_per_chain);
}

void McmcRun::accumulate(std::size_t chain, std::span<const double> state,
                         GibbsWorkspace* /*workspace*/) {
  SRM_EXPECTS(chain < chains_.size(), "chain index out of range");
  chains_[chain].append(state);
}

std::size_t McmcRun::parameter_index(const std::string& name) const {
  const auto it = std::find(names_.begin(), names_.end(), name);
  SRM_EXPECTS(it != names_.end(), "unknown parameter name: " + name);
  return static_cast<std::size_t>(it - names_.begin());
}

std::vector<double> McmcRun::pooled(std::size_t parameter_index) const {
  std::vector<double> out;
  out.reserve(total_samples());
  for (const auto& chain : chains_) {
    const auto view = chain.parameter(parameter_index);
    out.insert(out.end(), view.begin(), view.end());
  }
  return out;
}

std::vector<double> McmcRun::pooled(const std::string& name) const {
  return pooled(parameter_index(name));
}

std::size_t McmcRun::total_samples() const {
  std::size_t total = 0;
  for (const auto& chain : chains_) total += chain.sample_count();
  return total;
}

}  // namespace srm::mcmc
