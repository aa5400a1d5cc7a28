// The model-family registry: one declarative record per Bayesian SRM
// family (prior structure x detection likelihood), bundling everything the
// outer layers used to hard-code per family —
//
//   * parameter metadata: hyper-parameter names and which hyperprior limit
//     the WAIC tuning grid searches;
//   * canonical serialization identity: the stable id string used by the
//     artifact layer, CLI flags and the serve protocol;
//   * presentation: report table titles, display names and the reference
//     shown in the generated README model table;
//   * the per-family detection-model grid for `select`/`sweep` and the
//     superset of detection kinds the family accepts at all.
//
// Every switch/if-chain over PriorKind/DetectionModelKind outside src/core/
// is banned (srm-lint rule `family-dispatch`): mle/, report/, artifact/,
// cli/ and serve/ consult the registry instead. Every family runs the one
// sampler, core::BayesianSrm, which make_model constructs; a new family
// lands as a registry record plus a detection channel — the sizebiased
// family is the proof.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/detection_models.hpp"
#include "data/bug_count_data.hpp"
#include "mcmc/gibbs.hpp"

namespace srm::core {

/// Registry key of a model family. The enum survives only as that key (and
/// as the typed field of specs); everything known *about* a family lives in
/// its ModelFamily record.
enum class PriorKind {
  kPoisson,           ///< NHPP-based SRM (Rallis-Lansdowne)
  kNegativeBinomial,  ///< NHMPP-based SRM (heterogeneous Chun)
  kSizeBiased,        ///< size-biased bug content (Dey-Chakraborty)
};

/// Gibbs blocking scheme.
///
/// kVanilla follows the paper's Eqs (14)-(22) literally: R, the
/// hyperparameters, and zeta each conditioned on everything else. R and the
/// prior scale (lambda0 / beta0) are strongly coupled, so the vanilla chain
/// mixes slowly when the survival product prod q_i is not small.
///
/// kCollapsed marginalizes R out of every other conditional (the sums over
/// R have closed forms; see DESIGN.md) and draws R last from its exact
/// conditional — the same invariant posterior with near-iid mixing. Both
/// schemes are verified to agree in tests/integration/.
enum class SamplerScheme {
  kCollapsed,  ///< default
  kVanilla,
};

/// Stable family id ("poisson" / "negbin" / "sizebiased") — the registry
/// record's id string, used by the CLI, the serve protocol and the
/// canonical artifact serialization.
std::string to_string(PriorKind prior);

/// Inverse of to_string(PriorKind); nullopt for unknown names.
std::optional<PriorKind> prior_kind_from_string(const std::string& name);

/// "collapsed" / "vanilla".
std::string to_string(SamplerScheme scheme);

/// Inverse of to_string(SamplerScheme); nullopt for unknown names.
std::optional<SamplerScheme> sampler_scheme_from_string(
    const std::string& name);

/// Upper limits of the uniform hyperpriors — the quantities the paper tunes
/// by WAIC minimization (Section 5.1) — plus the optional Jeffreys variant
/// for lambda0 flagged as future work in Section 6.
struct HyperPriorConfig {
  double lambda_max = 2000.0;  ///< support of lambda0 (Poisson prior)
  double alpha_max = 100.0;    ///< support of alpha0 (NB prior)
  DetectionModelLimits limits{};
  /// Replace the Uniform(0, lambda_max) hyperprior on lambda0 with the
  /// Jeffreys prior for a Poisson rate, pi(lambda) ∝ lambda^{-1/2}
  /// (truncated to the same support). Ablation for the paper's Section 6.
  bool jeffreys_lambda0 = false;
  /// Gibbs blocking scheme; see SamplerScheme.
  SamplerScheme scheme = SamplerScheme::kCollapsed;
};

/// A fitted-family model: the Gibbs-sampleable state plus the channels the
/// estimation pipeline consumes downstream of the sampler — pointwise
/// log-likelihood rows (WAIC/LOO/streaming scoring), the state-vector
/// layout (residual slot, detection-parameter block), and the detection
/// model for out-of-window prediction. BayesianSrm is the one
/// implementation; the interface keeps the sampler out of the scorers.
class SrmModel : public mcmc::GibbsModel {
 public:
  /// Registry key of the family this model belongs to.
  [[nodiscard]] virtual PriorKind family() const = 0;

  [[nodiscard]] virtual const data::BugCountData& data() const = 0;
  [[nodiscard]] virtual const HyperPriorConfig& config() const = 0;

  // --- state-vector layout ------------------------------------------------
  /// Index of the residual bug count R in the state vector.
  [[nodiscard]] virtual std::size_t residual_index() const { return 0; }
  /// Index of the first detection-model parameter.
  [[nodiscard]] virtual std::size_t zeta_offset() const = 0;
  [[nodiscard]] virtual std::size_t state_size() const = 0;

  /// The family's detection model; probability(day, zeta) extrapolates past
  /// the fitted window for holdout scoring and release planning.
  [[nodiscard]] virtual const DetectionModel& detection_model() const = 0;

  /// Fills out[i-1] = log P(X_i = x_i | state) for day i = 1..data().days()
  /// — the WAIC/LOO ingredient. `workspace` must come from this model's
  /// make_workspace(); the fill is allocation-free and bit-identical for
  /// any workspace history.
  virtual void pointwise_row(std::span<const double> state,
                             mcmc::GibbsWorkspace& workspace,
                             std::span<double> out) const = 0;
};

/// Which hyperprior limit the WAIC tuning grid searches for this family.
enum class TunedScale {
  kLambdaMax,  ///< families with a lambda0-style rate hyperparameter
  kAlphaMax,   ///< families with an alpha0-style shape hyperparameter
};

/// One registered model family. Records are immutable after registration;
/// registration order is presentation order (tables, help text, select
/// grids).
struct ModelFamily {
  PriorKind kind;
  std::string id;            ///< stable identity: CLI, serve, artifacts
  std::string display_name;  ///< "Poisson (NHPP)" — README / docs label
  std::string table_title;   ///< report section title, e.g. "(i) Poisson prior."
  std::string summary;       ///< one-line description for --help and docs
  std::string reference;     ///< citation shown in the generated model table
  /// Member of the paper's reproduction grid (the default sweep).
  bool reproduction = false;
  /// Detection kinds in this family's `select`/`sweep` grid, in column
  /// order.
  std::vector<DetectionModelKind> selection_models;
  /// Every detection kind the family accepts (superset of
  /// selection_models).
  std::vector<DetectionModelKind> accepted_models;
  /// Detection kind used when a request names the family but no model.
  DetectionModelKind default_model = DetectionModelKind::kConstant;
  /// State-vector names between the residual slot and the zeta block.
  std::vector<std::string> hyper_parameter_names;
  /// Which hyperprior limit the tuning grid searches.
  TunedScale tuned_scale = TunedScale::kLambdaMax;
};

/// The registry. Instantiable for tests; library code uses the process
/// registry via model_families() / family() / find_family().
class ModelFamilyRegistry {
 public:
  /// Registers a family. Throws support::InvalidArgument on a duplicate id
  /// or kind, an empty id/table title, an empty selection grid, or a
  /// selection_models entry absent from accepted_models.
  void add(ModelFamily family);

  /// All families in registration order.
  [[nodiscard]] const std::vector<ModelFamily>& families() const {
    return families_;
  }

  /// Record for a kind. Throws support::InvalidArgument for a kind that
  /// was never registered.
  [[nodiscard]] const ModelFamily& family(PriorKind kind) const;

  /// Record whose id equals `id`, or nullptr.
  [[nodiscard]] const ModelFamily* find(std::string_view id) const;

  /// The process-wide registry: the reproduction families in paper order,
  /// then the library extensions.
  static const ModelFamilyRegistry& instance();

 private:
  std::vector<ModelFamily> families_;
};

/// instance() shorthand.
const ModelFamilyRegistry& model_families();

/// Registry record for `kind` (process registry).
const ModelFamily& family(PriorKind kind);

/// Registry record by id string, or nullptr (process registry).
const ModelFamily* find_family(std::string_view id);

/// Registered ids joined with `separator` — error/help text listing the
/// accepted family names ("poisson|negbin|sizebiased").
std::string family_ids_joined(char separator = '|');

/// Kinds of the reproduction families, in registration order — the default
/// sweep grid.
std::vector<PriorKind> reproduction_family_kinds();

/// Throws support::InvalidArgument unless `family` accepts `model`; the
/// message lists the family's accepted detection-model names.
void validate_family_model(PriorKind family, DetectionModelKind model);

/// Constructs the BayesianSrm of one estimation cell (its constructor runs
/// validate_family_model); the single construction path for
/// fit/select/sweep/serve cells.
std::unique_ptr<SrmModel> make_model(PriorKind family,
                                     DetectionModelKind model,
                                     data::BugCountData data,
                                     const HyperPriorConfig& config);

/// Renders the registry as the Markdown model table embedded in README.md
/// (`srm_cli families --format markdown` emits it; a docs test pins the
/// README copy to this output).
std::string render_family_table_markdown();

}  // namespace srm::core
