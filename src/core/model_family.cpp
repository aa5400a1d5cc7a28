#include "core/model_family.hpp"

#include <algorithm>
#include <utility>

#include "core/bayes_srm.hpp"
#include "core/size_biased.hpp"
#include "support/error.hpp"

namespace srm::core {

namespace {

std::string accepted_model_names(const ModelFamily& family) {
  std::string names;
  for (const auto kind : family.accepted_models) {
    if (!names.empty()) names += '|';
    names += to_string(kind);
  }
  return names;
}

void register_poisson_family(ModelFamilyRegistry& registry) {
  ModelFamily family;
  family.kind = PriorKind::kPoisson;
  family.id = "poisson";
  family.display_name = "Poisson prior (NHPP)";
  family.table_title = "(i) Poisson prior.";
  family.summary =
      "Poisson(lambda0) initial bug content — the NHPP-based SRM "
      "(Rallis-Lansdowne), lambda0 under a uniform hyperprior";
  family.reference = "Rallis-Lansdowne; source paper Sec. 3.1";
  family.reproduction = true;
  const auto paper = all_detection_model_kinds();
  const auto extended = extended_detection_model_kinds();
  family.selection_models.assign(paper.begin(), paper.end());
  family.accepted_models.assign(paper.begin(), paper.end());
  family.accepted_models.insert(family.accepted_models.end(),
                                extended.begin(), extended.end());
  family.default_model = DetectionModelKind::kConstant;
  family.hyper_parameter_names = {"lambda0"};
  family.tuned_scale = TunedScale::kLambdaMax;
  family.make = [](DetectionModelKind model, data::BugCountData data,
                   const HyperPriorConfig& config)
      -> std::unique_ptr<SrmModel> {
    return std::make_unique<BayesianSrm>(PriorKind::kPoisson, model,
                                         std::move(data), config);
  };
  registry.add(std::move(family));
}

void register_negative_binomial_family(ModelFamilyRegistry& registry) {
  ModelFamily family;
  family.kind = PriorKind::kNegativeBinomial;
  family.id = "negbin";
  family.display_name = "Negative binomial prior (NHMPP)";
  family.table_title = "(ii) Negative binomial prior.";
  family.summary =
      "NegBin(alpha0, beta0) initial bug content — the NHMPP-based SRM "
      "(heterogeneous Chun), alpha0 slice-sampled under a uniform hyperprior";
  family.reference = "heterogeneous Chun; source paper Sec. 3.2";
  family.reproduction = true;
  const auto paper = all_detection_model_kinds();
  const auto extended = extended_detection_model_kinds();
  family.selection_models.assign(paper.begin(), paper.end());
  family.accepted_models.assign(paper.begin(), paper.end());
  family.accepted_models.insert(family.accepted_models.end(),
                                extended.begin(), extended.end());
  family.default_model = DetectionModelKind::kConstant;
  family.hyper_parameter_names = {"alpha0", "beta0"};
  family.tuned_scale = TunedScale::kAlphaMax;
  family.make = [](DetectionModelKind model, data::BugCountData data,
                   const HyperPriorConfig& config)
      -> std::unique_ptr<SrmModel> {
    return std::make_unique<BayesianSrm>(PriorKind::kNegativeBinomial, model,
                                         std::move(data), config);
  };
  registry.add(std::move(family));
}

}  // namespace

std::string to_string(PriorKind prior) { return family(prior).id; }

std::optional<PriorKind> prior_kind_from_string(const std::string& name) {
  const ModelFamily* found = find_family(name);
  if (found == nullptr) return std::nullopt;
  return found->kind;
}

std::string to_string(SamplerScheme scheme) {
  return scheme == SamplerScheme::kCollapsed ? "collapsed" : "vanilla";
}

std::optional<SamplerScheme> sampler_scheme_from_string(
    const std::string& name) {
  if (name == "collapsed") return SamplerScheme::kCollapsed;
  if (name == "vanilla") return SamplerScheme::kVanilla;
  return std::nullopt;
}

void ModelFamilyRegistry::add(ModelFamily family) {
  SRM_EXPECTS(!family.id.empty(), "model family id must be non-empty");
  SRM_EXPECTS(!family.table_title.empty(),
              "model family table title must be non-empty");
  SRM_EXPECTS(family.make != nullptr, "model family needs a factory");
  SRM_EXPECTS(!family.selection_models.empty(),
              "model family needs at least one selection model");
  if (find(family.id) != nullptr) {
    throw InvalidArgument("duplicate model family id: " + family.id);
  }
  for (const ModelFamily& existing : families_) {
    if (existing.kind == family.kind) {
      throw InvalidArgument("duplicate model family kind for id: " +
                            family.id);
    }
  }
  for (const auto kind : family.selection_models) {
    if (std::find(family.accepted_models.begin(),
                  family.accepted_models.end(),
                  kind) == family.accepted_models.end()) {
      throw InvalidArgument("model family " + family.id +
                            " selects a detection model it does not accept: " +
                            to_string(kind));
    }
  }
  families_.push_back(std::move(family));
}

const ModelFamily& ModelFamilyRegistry::family(PriorKind kind) const {
  for (const ModelFamily& entry : families_) {
    if (entry.kind == kind) return entry;
  }
  throw InvalidArgument("model family kind is not registered");
}

const ModelFamily* ModelFamilyRegistry::find(std::string_view id) const {
  for (const ModelFamily& entry : families_) {
    if (entry.id == id) return &entry;
  }
  return nullptr;
}

const ModelFamilyRegistry& ModelFamilyRegistry::instance() {
  static const ModelFamilyRegistry registry = [] {
    ModelFamilyRegistry bootstrap;
    register_poisson_family(bootstrap);
    register_negative_binomial_family(bootstrap);
    register_size_biased_family(bootstrap);  // core/size_biased.cpp
    return bootstrap;
  }();
  return registry;
}

const ModelFamilyRegistry& model_families() {
  return ModelFamilyRegistry::instance();
}

const ModelFamily& family(PriorKind kind) {
  return model_families().family(kind);
}

const ModelFamily* find_family(std::string_view id) {
  return model_families().find(id);
}

std::string family_ids_joined(char separator) {
  std::string joined;
  for (const ModelFamily& entry : model_families().families()) {
    if (!joined.empty()) joined += separator;
    joined += entry.id;
  }
  return joined;
}

std::vector<PriorKind> reproduction_family_kinds() {
  std::vector<PriorKind> kinds;
  for (const ModelFamily& entry : model_families().families()) {
    if (entry.reproduction) kinds.push_back(entry.kind);
  }
  return kinds;
}

void validate_family_model(PriorKind prior, DetectionModelKind model) {
  const ModelFamily& entry = family(prior);
  if (std::find(entry.accepted_models.begin(), entry.accepted_models.end(),
                model) != entry.accepted_models.end()) {
    return;
  }
  throw InvalidArgument("family " + entry.id +
                        " does not accept detection model " + to_string(model) +
                        "; use " + accepted_model_names(entry));
}

std::unique_ptr<SrmModel> make_model(PriorKind prior,
                                     DetectionModelKind model,
                                     data::BugCountData data,
                                     const HyperPriorConfig& config) {
  validate_family_model(prior, model);
  return family(prior).make(model, std::move(data), config);
}

std::string render_family_table_markdown() {
  std::string table =
      "| Family | Id | Detection models | Hyper-parameters | Reference |\n"
      "| --- | --- | --- | --- | --- |\n";
  for (const ModelFamily& entry : model_families().families()) {
    table += "| ";
    table += entry.display_name;
    table += " | `";
    table += entry.id;
    table += "` | ";
    for (std::size_t i = 0; i < entry.accepted_models.size(); ++i) {
      if (i != 0) table += ", ";
      table += '`';
      table += to_string(entry.accepted_models[i]);
      table += '`';
    }
    table += " | ";
    for (std::size_t i = 0; i < entry.hyper_parameter_names.size(); ++i) {
      if (i != 0) table += ", ";
      table += '`';
      table += entry.hyper_parameter_names[i];
      table += '`';
    }
    table += " | ";
    table += entry.reference;
    table += " |\n";
  }
  return table;
}

}  // namespace srm::core
