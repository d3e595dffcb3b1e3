// Unified mechanism interface + registry: every publication algorithm in
// the library as a config-driven component.
//
// The paper evaluates six mechanisms side by side (Dwork, Proportional,
// Oracle, TwoPhase, iResamp, iReduct — Sections 3–6), and related work
// treats *selecting* a mechanism per workload as an operation of its own.
// `MechanismRegistry` holds every built-in as one entry of a fixed table
// (mechanism_registry.cc): a free function (`RunIReduct`, `RunDwork`, ...)
// plus one typed row per spec param (key, printed default, doc and the
// options field it sets). The rows alone drive Describe, the
// undeclared-key check, SetSpecDefault and the options a run receives, so
// adding a mechanism means adding one entry. A `MechanismSpec`, parsed from
// `name:key=val,...` or JSON, configures a run. Layers above
// (PrivateQuerySession, ireduct_tool, the benches) dispatch through the
// registry, byte-identically to a direct call at the same seed
// (tests/algorithms/mechanism_parity_test.cc).
#ifndef IREDUCT_ALGORITHMS_MECHANISM_REGISTRY_H_
#define IREDUCT_ALGORITHMS_MECHANISM_REGISTRY_H_

#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "algorithms/mechanism.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "dp/checkpoint.h"
#include "dp/workload.h"

namespace ireduct {

/// Typed key/value configuration for one mechanism run: the registry key
/// plus parameter overrides. Parameters are stored as strings (in
/// insertion order) and parsed on access, so a spec round-trips through
/// its text form without loss — doubles are written with shortest
/// round-trip formatting.
class MechanismSpec {
 public:
  MechanismSpec() = default;
  explicit MechanismSpec(std::string name) : name_(std::move(name)) {}

  /// Parses the compact form `name` or `name:key=val,key=val,...`, e.g.
  /// "two_phase:epsilon=1.0" or "ireduct:lambda_steps=16,batch_size=4".
  /// Whitespace around tokens is ignored; duplicate keys are rejected.
  static Result<MechanismSpec> Parse(std::string_view text);

  /// Parses the JSON form
  ///   {"name": "ireduct", "params": {"lambda_steps": 16, "batch_size": 4}}
  /// ("params" optional; values may be strings, numbers or booleans).
  static Result<MechanismSpec> FromJson(std::string_view json);

  const std::string& name() const { return name_; }
  bool Has(std::string_view key) const;

  /// Sets `key` to `value`, replacing any existing value.
  void Set(std::string_view key, std::string_view value);
  /// Sets `key` to the shortest round-trip rendering of `value` — parsing
  /// it back yields exactly the same double.
  void Set(std::string_view key, double value);
  /// Like Set, but keeps an existing value (caller-provided params win
  /// over environment-derived defaults).
  void SetDefault(std::string_view key, std::string_view value);
  void SetDefault(std::string_view key, double value);

  /// Typed accessors; return `fallback` when the key is absent and
  /// kInvalidArgument when present but not exactly a number: the whole
  /// value must parse (std::from_chars: no '+' prefix, whitespace, hex or
  /// trailing text), and an integer must fit int64_t.
  Result<double> GetDouble(std::string_view key, double fallback) const;
  Result<int64_t> GetInt(std::string_view key, int64_t fallback) const;
  std::string GetString(std::string_view key, std::string_view fallback) const;

  /// Parameters in insertion order.
  const std::vector<std::pair<std::string, std::string>>& params() const {
    return params_;
  }

  /// Canonical compact rendering (`name` or `name:key=val,...`), suitable
  /// for logs, ledger labels and re-parsing.
  std::string ToString() const;

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> params_;
};

/// Whether a mechanism's output carries a differential-privacy guarantee.
/// The paper's Proportional and Oracle baselines read the true answers to
/// set their noise scales and are deliberately non-private.
enum class MechanismPrivacy {
  kPrivate,
  kNonPrivate,
};

/// Documentation for one spec parameter a mechanism accepts.
struct MechanismParamDoc {
  std::string key;
  // Applied when the key is absent; "" keeps the options struct's own
  // default, or a derive step's.
  std::string default_value;
  std::string doc;
};

/// Self-description of a registered mechanism.
struct MechanismInfo {
  /// Registry key ("ireduct", "two_phase", ...). Lowercase snake_case.
  std::string name;
  /// Paper-style display name ("iReduct", "TwoPhase", ...) used in bench
  /// tables and ledger labels.
  std::string display_name;
  std::string summary;
  MechanismPrivacy privacy = MechanismPrivacy::kPrivate;
  std::vector<MechanismParamDoc> params;
};

/// One built-in publication mechanism: consumes a Workload and a spec,
/// produces a MechanismOutput. Entries are immutable and shared between
/// threads; all randomness comes from the caller's BitGen.
class Mechanism {
 public:
  /// Name, privacy status and accepted parameters.
  const MechanismInfo& Describe() const { return info_; }

  /// Checks `spec` against Describe(): the name must match, every key must
  /// be a declared parameter (catching typos before a run), and the
  /// entry's cross-parameter rule, if any, must hold.
  Status ValidateSpec(const MechanismSpec& spec) const;

  /// Runs the mechanism. `spec` has passed ValidateSpec; parameter values
  /// may still fail typed parsing, reported as kInvalidArgument.
  Result<MechanismOutput> Run(const Workload& workload,
                              const MechanismSpec& spec, BitGen& gen) const {
    return run_(workload, spec, gen, {});
  }

  /// Crash-safety hooks threaded into a run (see dp/checkpoint.h). The
  /// default-constructed value is trivial: no checkpointing, no resume.
  struct ResumableHooks {
    CheckpointOptions checkpoint;
    const RunCheckpoint* resume = nullptr;

    bool trivial() const {
      return !checkpoint.enabled() && resume == nullptr;
    }
  };

  /// Like Run, but with checkpoint/resume hooks. The iterative mechanisms
  /// (ireduct, iresamp), whose options carry checkpoint and resume fields,
  /// receive them; the others refuse non-trivial hooks with
  /// kInvalidArgument.
  Result<MechanismOutput> RunResumable(const Workload& workload,
                                       const MechanismSpec& spec, BitGen& gen,
                                       const ResumableHooks& hooks) const {
    return run_(workload, spec, gen, hooks);
  }

  /// Fills `key` into `spec` only when absent AND declared by this
  /// mechanism — the tool/session/bench layers derive per-workload
  /// defaults (epsilon, delta, lambda_max, ...) without knowing which of
  /// them each mechanism consumes.
  void SetSpecDefault(MechanismSpec* spec, std::string_view key,
                      double value) const;
  void SetSpecDefault(MechanismSpec* spec, std::string_view key,
                      std::string_view value) const;

 private:
  friend class MechanismRegistry;
  using CheckFn = Status (*)(const MechanismSpec&);
  // Builds the entry's options struct from its rows and runs it.
  using RunFn = std::function<Result<MechanismOutput>(
      const Workload&, const MechanismSpec&, BitGen&, const ResumableHooks&)>;

  Mechanism(MechanismInfo info, CheckFn check, RunFn run)
      : info_(std::move(info)), check_(check), run_(std::move(run)) {}

  MechanismInfo info_;
  CheckFn check_;  // cross-parameter rule, or null
  RunFn run_;
};

/// String-keyed mechanism registry. `Global()` holds every built-in
/// algorithm, in the paper's reporting order: oracle, ireduct, two_phase,
/// iresamp, dwork, then proportional, geometric, hierarchical, wavelet,
/// matrix and matrix_greedy. The table never changes after construction,
/// so concurrent lookups need no lock.
class MechanismRegistry {
 public:
  MechanismRegistry(const MechanismRegistry&) = delete;
  MechanismRegistry& operator=(const MechanismRegistry&) = delete;

  /// The process-wide registry of built-ins.
  static const MechanismRegistry& Global();

  /// Mechanism for `name`, or nullptr.
  const Mechanism* Find(std::string_view name) const;

  /// Like Find, but a kNotFound Status naming the known mechanisms.
  Result<const Mechanism*> Get(std::string_view name) const;

  /// Registered names, in table order.
  std::vector<std::string> Names() const;

  size_t size() const { return entries_.size(); }

  /// Lookup + ValidateSpec + Run in one call.
  Result<MechanismOutput> Run(const Workload& workload,
                              const MechanismSpec& spec, BitGen& gen) const {
    return RunResumable(workload, spec, gen, {});
  }

  /// Convenience: parses `spec_text` and runs it.
  Result<MechanismOutput> Run(const Workload& workload,
                              std::string_view spec_text, BitGen& gen) const;

  /// Lookup + ValidateSpec + RunResumable in one call.
  Result<MechanismOutput> RunResumable(
      const Workload& workload, const MechanismSpec& spec, BitGen& gen,
      const Mechanism::ResumableHooks& hooks) const;

 private:
  MechanismRegistry();  // builds the built-in table

  std::vector<Mechanism> entries_;
};

}  // namespace ireduct

#endif  // IREDUCT_ALGORITHMS_MECHANISM_REGISTRY_H_
