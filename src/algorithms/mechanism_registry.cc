#include "algorithms/mechanism_registry.h"

#include <limits>
#include <type_traits>

#include "algorithms/dwork.h"
#include "algorithms/geometric.h"
#include "algorithms/ireduct.h"
#include "algorithms/iresamp.h"
#include "algorithms/oracle.h"
#include "algorithms/proportional.h"
#include "algorithms/strategy_mechanism.h"
#include "algorithms/two_phase.h"
#include "common/numeric.h"
#include "obs/json.h"

namespace ireduct {

namespace {

std::string Trim(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t')) --e;
  return std::string(s.substr(b, e - b));
}

bool ValidToken(std::string_view s) {
  if (s.empty()) return false;
  for (const char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

bool Declares(const MechanismInfo& info, std::string_view key) {
  for (const MechanismParamDoc& p : info.params) {
    if (p.key == key) return true;
  }
  return false;
}

}  // namespace

Result<MechanismSpec> MechanismSpec::Parse(std::string_view text) {
  const size_t colon = text.find(':');
  MechanismSpec spec(Trim(text.substr(0, colon)));
  if (!ValidToken(spec.name_)) {
    return Status::InvalidArgument("mechanism spec '" + std::string(text) +
                                   "' has a malformed name");
  }
  if (colon == std::string_view::npos) return spec;
  std::string_view rest = text.substr(colon + 1);
  while (!rest.empty()) {
    const size_t comma = rest.find(',');
    const std::string_view item = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view()
                                           : rest.substr(comma + 1);
    const size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("mechanism spec param '" +
                                     std::string(item) + "' is missing '='");
    }
    const std::string key = Trim(item.substr(0, eq));
    const std::string value = Trim(item.substr(eq + 1));
    if (!ValidToken(key) || value.empty()) {
      return Status::InvalidArgument("mechanism spec param '" +
                                     std::string(item) + "' is malformed");
    }
    if (spec.Has(key)) {
      return Status::InvalidArgument("mechanism spec sets param '" + key +
                                     "' twice");
    }
    spec.params_.emplace_back(key, value);
  }
  return spec;
}

Result<MechanismSpec> MechanismSpec::FromJson(std::string_view json) {
  IREDUCT_ASSIGN_OR_RETURN(obs::JsonValue doc, obs::JsonParse(json));
  if (!doc.is(obs::JsonValue::Kind::kObject)) {
    return Status::InvalidArgument("mechanism spec JSON must be an object");
  }
  const obs::JsonValue* name = doc.Find("name");
  if (name == nullptr || !name->is(obs::JsonValue::Kind::kString)) {
    return Status::InvalidArgument(
        "mechanism spec JSON needs a string \"name\"");
  }
  MechanismSpec spec(name->text);
  if (!ValidToken(spec.name_)) {
    return Status::InvalidArgument("mechanism spec JSON name '" +
                                   spec.name_ + "' is malformed");
  }
  for (const auto& [key, value] : doc.object) {
    if (key == "name") continue;
    if (key != "params") {
      return Status::InvalidArgument(
          "mechanism spec JSON has unknown top-level key '" + key +
          "' (expected \"name\" and optional \"params\")");
    }
    if (!value.is(obs::JsonValue::Kind::kObject)) {
      return Status::InvalidArgument(
          "mechanism spec JSON \"params\" must be an object");
    }
    for (const auto& [pkey, pvalue] : value.object) {
      if (spec.Has(pkey)) {
        return Status::InvalidArgument("mechanism spec JSON sets param '" +
                                       pkey + "' twice");
      }
      switch (pvalue.kind) {
        case obs::JsonValue::Kind::kString:
        case obs::JsonValue::Kind::kNumber:
          // For numbers, `text` holds the raw token, which round-trips the
          // caller's spelling (16 stays "16", not "16.0").
          spec.Set(pkey, pvalue.text);
          break;
        case obs::JsonValue::Kind::kBool:
          spec.Set(pkey, pvalue.boolean ? "true" : "false");
          break;
        default:
          return Status::InvalidArgument(
              "mechanism spec JSON param '" + pkey +
              "' must be a string, number or boolean");
      }
    }
  }
  return spec;
}

bool MechanismSpec::Has(std::string_view key) const {
  for (const auto& [k, v] : params_) {
    if (k == key) return true;
  }
  return false;
}

void MechanismSpec::Set(std::string_view key, std::string_view value) {
  for (auto& [k, v] : params_) {
    if (k == key) {
      v = std::string(value);
      return;
    }
  }
  params_.emplace_back(std::string(key), std::string(value));
}

void MechanismSpec::Set(std::string_view key, double value) {
  Set(key, obs::FormatDouble(value));
}

void MechanismSpec::SetDefault(std::string_view key, std::string_view value) {
  if (!Has(key)) params_.emplace_back(std::string(key), std::string(value));
}

void MechanismSpec::SetDefault(std::string_view key, double value) {
  SetDefault(key, obs::FormatDouble(value));
}

Result<double> MechanismSpec::GetDouble(std::string_view key,
                                        double fallback) const {
  for (const auto& [k, v] : params_) {
    if (k != key) continue;
    double parsed = 0;
    if (!ParseExact(v, &parsed)) {
      return Status::InvalidArgument("mechanism spec param '" + k + "=" + v +
                                     "' is not a number");
    }
    return parsed;
  }
  return fallback;
}

Result<int64_t> MechanismSpec::GetInt(std::string_view key,
                                      int64_t fallback) const {
  for (const auto& [k, v] : params_) {
    if (k != key) continue;
    int64_t parsed = 0;
    if (!ParseExact(v, &parsed)) {
      return Status::InvalidArgument("mechanism spec param '" + k + "=" + v +
                                     "' is not an integer");
    }
    return parsed;
  }
  return fallback;
}

std::string MechanismSpec::GetString(std::string_view key,
                                     std::string_view fallback) const {
  for (const auto& [k, v] : params_) {
    if (k == key) return v;
  }
  return std::string(fallback);
}

std::string MechanismSpec::ToString() const {
  std::string out = name_;
  for (size_t i = 0; i < params_.size(); ++i) {
    out += i == 0 ? ':' : ',';
    out += params_[i].first;
    out += '=';
    out += params_[i].second;
  }
  return out;
}

Status Mechanism::ValidateSpec(const MechanismSpec& spec) const {
  if (spec.name() != info_.name) {
    return Status::InvalidArgument("spec '" + spec.ToString() +
                                   "' does not name mechanism '" +
                                   info_.name + "'");
  }
  for (const auto& [key, value] : spec.params()) {
    if (Declares(info_, key)) continue;
    std::string accepted;
    for (const MechanismParamDoc& p : info_.params) {
      if (!accepted.empty()) accepted += ", ";
      accepted += p.key;
    }
    return Status::InvalidArgument("mechanism '" + info_.name +
                                   "' does not accept param '" + key +
                                   "' (accepts: " + accepted + ")");
  }
  return check_ != nullptr ? check_(spec) : Status::OK();
}

void Mechanism::SetSpecDefault(MechanismSpec* spec, std::string_view key,
                               double value) const {
  SetSpecDefault(spec, key, std::string_view(obs::FormatDouble(value)));
}

void Mechanism::SetSpecDefault(MechanismSpec* spec, std::string_view key,
                               std::string_view value) const {
  if (Declares(info_, key)) spec->SetDefault(key, value);
}

// ---------------------------------------------------------------------------
// The built-in table. Each entry fills a free function's options struct from
// the spec, so a dispatch is byte-identical to the direct call at the same
// seed (mechanism_parity_test.cc enforces it).

namespace {

// One spec param of an entry whose options struct is P.
template <typename P>
struct Row {
  MechanismParamDoc doc;
  std::string expected;  // completes the parse error's "must be ..."
  // Parses a value into P; null for a derived row, read by the derive step.
  std::function<bool(std::string_view, P&)> set;
};

template <typename P>
Row<P> Real(MechanismParamDoc doc, double P::*field) {
  return {std::move(doc), "a number", [field](std::string_view text, P& p) {
            return ParseExact(text, &(p.*field));
          }};
}

// An integer at least `min` and at most the field type's maximum.
template <typename P, typename T>
Row<P> Int(MechanismParamDoc doc, T P::*field, std::type_identity_t<T> min) {
  return {std::move(doc),
          "an integer in [" + std::to_string(min) + ", " +
              std::to_string(std::numeric_limits<T>::max()) + "]",
          [field, min](std::string_view text, P& p) {
            T value{};
            if (!ParseExact(text, &value) || value < min) return false;
            p.*field = value;
            return true;
          }};
}

// One of a fixed set of words, each mapped to a field value.
template <typename P, typename T>
Row<P> Word(MechanismParamDoc doc, T P::*field,
            std::vector<std::pair<std::string, T>> words) {
  std::string expected = words[0].first;
  for (size_t i = 1; i < words.size(); ++i) {
    expected += (i + 1 == words.size() ? " or " : ", ") + words[i].first;
  }
  return {std::move(doc), std::move(expected),
          [field, words = std::move(words)](std::string_view text, P& p) {
            for (const auto& [word, value] : words) {
              if (word != text) continue;
              p.*field = value;
              return true;
            }
            return false;
          }};
}

template <typename P>
Row<P> Derived(MechanismParamDoc doc) {
  return {std::move(doc), "", nullptr};
}

template <typename P>
struct Entry {
  std::string name;
  std::string display_name;
  std::string summary;
  MechanismPrivacy privacy = MechanismPrivacy::kPrivate;
  Result<MechanismOutput> (*run)(const Workload&, const P&, BitGen&) =
      nullptr;
  std::vector<Row<P>> rows = {};
  P defaults = {};  // the options the rows start from
  Status (*check)(const MechanismSpec&) = nullptr;  // cross-param rule
  Status (*derive)(const MechanismSpec&, P&) = nullptr;
};

// The one path from a spec to a run: rows in order, the derive step, then
// the hooks, which only options with checkpoint/resume fields accept.
template <typename P>
Result<MechanismOutput> RunEntry(const Entry<P>& e, const Workload& workload,
                                 const MechanismSpec& spec, BitGen& gen,
                                 const Mechanism::ResumableHooks& hooks) {
  constexpr bool kResumable = requires(P p) {
    p.checkpoint;
    p.resume;
  };
  if (!kResumable && !hooks.trivial()) {
    return Status::InvalidArgument("mechanism '" + e.name +
                                   "' does not support checkpoint/resume");
  }
  P params = e.defaults;
  for (const Row<P>& row : e.rows) {
    const MechanismParamDoc& doc = row.doc;
    if (row.set == nullptr ||
        (doc.default_value.empty() && !spec.Has(doc.key))) {
      continue;
    }
    const std::string text = spec.GetString(doc.key, doc.default_value);
    if (!row.set(text, params)) {
      return Status::InvalidArgument("mechanism '" + e.name + "' param '" +
                                     doc.key + "=" + text +
                                     "' must be " + row.expected);
    }
  }
  if (e.derive != nullptr) IREDUCT_RETURN_NOT_OK(e.derive(spec, params));
  if constexpr (kResumable) {
    params.checkpoint = hooks.checkpoint;
    params.resume = hooks.resume;
  }
  return e.run(workload, params, gen);
}

Status TwoPhaseSplitRule(const MechanismSpec& spec) {
  const bool has_split = spec.Has("epsilon1") || spec.Has("epsilon2");
  if (spec.Has("epsilon") && has_split) {
    return Status::InvalidArgument(
        "two_phase takes either epsilon (+ epsilon1_fraction) or explicit "
        "epsilon1 + epsilon2, not both");
  }
  if (has_split && !(spec.Has("epsilon1") && spec.Has("epsilon2"))) {
    return Status::InvalidArgument(
        "two_phase needs both epsilon1 and epsilon2 when either is given");
  }
  if (spec.Has("epsilon1_fraction") && has_split) {
    return Status::InvalidArgument(
        "two_phase ignores epsilon1_fraction when epsilon1/epsilon2 are "
        "explicit — drop one of them");
  }
  return Status::OK();
}

// Explicit phase budgets win over `epsilon`: TwoPhaseSplitRule rejects a
// *user* spec carrying both, but the session/tool layers default-fill
// `epsilon` after validation, which must not shadow an explicit split.
Status DeriveTwoPhaseSplit(const MechanismSpec& spec, TwoPhaseParams& p) {
  if (spec.Has("epsilon1") || spec.Has("epsilon2")) return Status::OK();
  IREDUCT_ASSIGN_OR_RETURN(const double epsilon,
                           spec.GetDouble("epsilon", 0.01));
  IREDUCT_ASSIGN_OR_RETURN(const double fraction,
                           spec.GetDouble("epsilon1_fraction", 0.07));
  if (!(fraction > 0) || !(fraction < 1)) {
    return Status::InvalidArgument(
        "two_phase epsilon1_fraction must be in (0, 1)");
  }
  p.epsilon1 = fraction * epsilon;
  p.epsilon2 = (1 - fraction) * epsilon;
  return Status::OK();
}

Status IReductLambdaRule(const MechanismSpec& spec) {
  if (spec.Has("lambda_delta") && spec.Has("lambda_steps")) {
    return Status::InvalidArgument(
        "ireduct takes either lambda_delta or lambda_steps, not both");
  }
  return Status::OK();
}

// Explicit lambda_delta wins over lambda_steps: IReductLambdaRule rejects a
// user spec carrying both, but the layers above default-fill lambda_steps
// after validation.
Status DeriveLambdaDelta(const MechanismSpec& spec, IReductParams& p) {
  if (spec.Has("lambda_delta") || !spec.Has("lambda_steps")) {
    return Status::OK();
  }
  IREDUCT_ASSIGN_OR_RETURN(const int64_t steps,
                           spec.GetInt("lambda_steps", 0));
  if (steps < 2) {
    return Status::InvalidArgument("ireduct lambda_steps must be >= 2");
  }
  p.lambda_delta = p.lambda_max / static_cast<double>(steps);
  return Status::OK();
}

// matrix and matrix_greedy differ only in tune's default and three docs.
std::vector<Row<StrategyMechanismConfig>> MatrixRows(bool greedy) {
  using C = StrategyMechanismConfig;
  const std::string tuned = greedy ? "" : "greedy ";
  return {
      Real({"epsilon", "1", "total privacy budget"}, &C::epsilon),
      Word({"strategy", "tree", "strategy matrix: identity, tree or wavelet"},
           &C::strategy,
           {{"identity", "identity"},
            {"tree", "tree"},
            {"wavelet", "wavelet"}}),
      Word({"tune", greedy ? "greedy" : "none",
            greedy ? "scale tuning: none or greedy"
                   : "scale tuning: none or greedy (relative error)"},
           &C::greedy, {{"none", false}, {"greedy", true}}),
      Real({"epsilon1_fraction", "0.3",
            "phase-1 budget share for the " + tuned + "rough answers"},
           &C::epsilon1_fraction),
      Real({"delta", "1",
            "relative-error floor for the " + tuned + "query weights"},
           &C::relative_floor),
      Int({"tune_passes", "8", "greedy coordinate-descent passes"},
          &C::tune_passes, 0),
  };
}

}  // namespace

MechanismRegistry::MechanismRegistry() {
  // Erases an entry's options type: Describe lists its rows, Run its path.
  const auto add = [this](auto entry) {
    MechanismInfo info{entry.name, entry.display_name, entry.summary,
                       entry.privacy, {}};
    for (const auto& row : entry.rows) info.params.push_back(row.doc);
    const Mechanism::CheckFn check = entry.check;
    entries_.push_back(Mechanism(
        std::move(info), check,
        [entry = std::move(entry)](const Workload& workload,
                                   const MechanismSpec& spec, BitGen& gen,
                                   const Mechanism::ResumableHooks& hooks) {
          return RunEntry(entry, workload, spec, gen, hooks);
        }));
  };
  using IR = IReductParams;
  using TP = TwoPhaseParams;
  const std::string kDelta = "sanity bound δ of Equation 1";
  const std::string kLambdaMax = "initial noise scale (paper: |T|/10)";

  // Paper reporting order first (Section 6 tables), extensions after.
  add(Entry<OracleParams>{
      .name = "oracle",
      .display_name = "Oracle",
      .summary = "Error-optimal scale allocation computed from the exact "
                 "answers (Section 5.2). NON-PRIVATE lower-bound reference.",
      .privacy = MechanismPrivacy::kNonPrivate,
      .run = RunOracle,
      .rows = {Real({"epsilon", "1", "budget constraint: GS(Q, Λ) = ε"},
                    &OracleParams::epsilon),
               Real({"delta", "1", kDelta}, &OracleParams::delta)}});
  add(Entry<IR>{
      .name = "ireduct",
      .display_name = "iReduct",
      .summary = "The paper's main contribution (Section 4.3, Figure 4): "
                 "iterative NoiseDown refinement toward minimal relative "
                 "error.",
      .run = RunIReduct,
      .rows =
          {Real({"epsilon", "1", "total privacy budget"}, &IR::epsilon),
           Real({"delta", "1", kDelta}, &IR::delta),
           Real({"lambda_max", "1", kLambdaMax}, &IR::lambda_max),
           Real({"lambda_delta", "",
                 "per-iteration decrement (paper: |T|/10^6)"},
                &IR::lambda_delta),
           Derived<IR>({"lambda_steps", "",
                        "alternative to lambda_delta: λΔ = lambda_max/steps"}),
           Word({"objective", "overall",
                 "overall | max_rel PickQueries objective"},
                &IR::objective,
                {{"overall", IReductObjective::kOverallError},
                 {"max_rel", IReductObjective::kMaxRelativeError}}),
           Word({"reducer", "noise_down",
                 "noise_down | exact_coupling correlated resampler"},
                &IR::reducer,
                {{"noise_down", NoiseReducer::kPaperNoiseDown},
                 {"exact_coupling", NoiseReducer::kExactCoupling}}),
           Int({"batch_size", "1", "groups admitted per round"},
               &IR::batch_size, 1),
           Int({"num_threads", "1", "workers for batched NoiseDown resampling"},
               &IR::num_threads, 1)},
      .check = IReductLambdaRule,
      .derive = DeriveLambdaDelta});
  add(Entry<TP>{
      .name = "two_phase",
      .display_name = "TwoPhase",
      .summary = "Rough uniform phase-1 estimates recalibrate the phase-2 "
                 "scales (Section 3.2, Figure 1).",
      .run = RunTwoPhase,
      .rows = {Derived<TP>({"epsilon", "",
                            "total budget, split via epsilon1_fraction"}),
               Derived<TP>({"epsilon1_fraction", "0.07",
                            "phase-1 share of epsilon"}),
               Real({"epsilon1", "0.0007", "explicit phase-1 budget"},
                    &TP::epsilon1),
               Real({"epsilon2", "0.0093", "explicit phase-2 budget"},
                    &TP::epsilon2),
               Real({"delta", "1", kDelta}, &TP::delta)},
      .check = TwoPhaseSplitRule,
      .derive = DeriveTwoPhaseSplit});
  add(Entry<IResampParams>{
      .name = "iresamp",
      .display_name = "iResamp",
      .summary = "Iterative independent resampling at halved scales "
                 "(Appendix A, Figure 12); the correlation ablation of "
                 "iReduct.",
      .run = RunIResamp,
      .rows = {Real({"epsilon", "1", "total privacy budget"},
                    &IResampParams::epsilon),
               Real({"delta", "1", kDelta}, &IResampParams::delta),
               Real({"lambda_max", "1", kLambdaMax},
                    &IResampParams::lambda_max)}});
  add(Entry<DworkParams>{
      .name = "dwork",
      .display_name = "Dwork",
      .summary = "Uniform Laplace noise calibrated to the workload "
                 "sensitivity (Section 2.2).",
      .run = RunDwork,
      .rows = {Real({"epsilon", "1",
                     "privacy budget; every query gets scale S(Q)/ε"},
                    &DworkParams::epsilon)}});
  add(Entry<ProportionalParams>{
      .name = "proportional",
      .display_name = "Proportional",
      .summary = "Noise scales proportional to the true answers (Section "
                 "3.1). NON-PRIVATE pedagogical baseline.",
      .privacy = MechanismPrivacy::kNonPrivate,
      .run = RunProportional,
      .rows = {Real({"epsilon", "1",
                     "nominal budget: scales normalized to GS = ε"},
                    &ProportionalParams::epsilon),
               Real({"delta", "1", kDelta}, &ProportionalParams::delta)}});
  add(Entry<GeometricParams>{
      .name = "geometric",
      .display_name = "Geometric",
      .summary = "Two-sided geometric noise per (integer) query; the "
                 "discrete Laplace analogue (Ghosh et al.).",
      .run = RunGeometric,
      .rows = {Real({"epsilon", "1", "privacy budget; α = e^{-ε/S(Q)}"},
                    &GeometricParams::epsilon)}});
  // The strategy-matrix family (algorithms/strategy_mechanism.h): four
  // settings of one shared runner.
  add(Entry<StrategyMechanismConfig>{
      .name = "hierarchical",
      .display_name = "Hierarchical",
      .summary = "Consistent noisy binary tree (Hay et al.) via the shared "
                 "strategy runner; answers a linear view's histogram domain "
                 "when attached, else the answer vector as a 1D histogram.",
      .run = RunStrategyMechanism,
      .rows = {Real({"epsilon", "1", "total privacy budget"},
                    &StrategyMechanismConfig::epsilon)},
      .defaults = {.strategy = "tree"}});
  add(Entry<StrategyMechanismConfig>{
      .name = "wavelet",
      .display_name = "Wavelet",
      .summary = "Privelet noisy Haar transform (Xiao et al.) via the shared "
                 "strategy runner; answers a linear view's histogram domain "
                 "when attached, else the answer vector as a 1D histogram.",
      .run = RunStrategyMechanism,
      .rows = {Real({"epsilon", "1", "total privacy budget"},
                    &StrategyMechanismConfig::epsilon)},
      .defaults = {.strategy = "wavelet"}});
  add(Entry<StrategyMechanismConfig>{
      .name = "matrix",
      .display_name = "Matrix",
      .summary = "Matrix mechanism (Li-Miklau): noise a strategy matrix over "
                 "the workload's linear view and reconstruct by least "
                 "squares.",
      .run = RunStrategyMechanism,
      .rows = MatrixRows(/*greedy=*/false)});
  add(Entry<StrategyMechanismConfig>{
      .name = "matrix_greedy",
      .display_name = "MatrixGreedy",
      .summary = "Matrix mechanism with greedy per-row scale tuning "
                 "minimizing expected relative error (phase-1 rough answers "
                 "set the query weights).",
      .run = RunStrategyMechanism,
      .rows = MatrixRows(/*greedy=*/true)});
}

const MechanismRegistry& MechanismRegistry::Global() {
  static const MechanismRegistry* const registry = new MechanismRegistry();
  return *registry;
}

const Mechanism* MechanismRegistry::Find(std::string_view name) const {
  for (const Mechanism& entry : entries_) {
    if (entry.Describe().name == name) return &entry;
  }
  return nullptr;
}

Result<const Mechanism*> MechanismRegistry::Get(std::string_view name) const {
  const Mechanism* mechanism = Find(name);
  if (mechanism != nullptr) return mechanism;
  std::string known;
  for (const std::string& n : Names()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  return Status::NotFound("unknown mechanism '" + std::string(name) +
                          "' (registered: " + known + ")");
}

std::vector<std::string> MechanismRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const Mechanism& entry : entries_) {
    names.push_back(entry.Describe().name);
  }
  return names;
}

Result<MechanismOutput> MechanismRegistry::Run(const Workload& workload,
                                               std::string_view spec_text,
                                               BitGen& gen) const {
  IREDUCT_ASSIGN_OR_RETURN(MechanismSpec spec, MechanismSpec::Parse(spec_text));
  return Run(workload, spec, gen);
}

Result<MechanismOutput> MechanismRegistry::RunResumable(
    const Workload& workload, const MechanismSpec& spec, BitGen& gen,
    const Mechanism::ResumableHooks& hooks) const {
  IREDUCT_ASSIGN_OR_RETURN(const Mechanism* mechanism, Get(spec.name()));
  IREDUCT_RETURN_NOT_OK(mechanism->ValidateSpec(spec));
  return mechanism->RunResumable(workload, spec, gen, hooks);
}

}  // namespace ireduct
