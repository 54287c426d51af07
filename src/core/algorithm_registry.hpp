// String-keyed factory for DistributedAlgorithm backends.
//
// The five built-in backends ("lddm", "cdpsm", "admm", "central", "rr") are
// always present; other libraries add their own (baselines registers
// "donar" via baselines::register_donar_algorithm()).  Benches, examples
// and the CLI select schedulers by key — SystemConfig::algorithm is a
// registry key — so a new backend needs no enum plumbing anywhere, and
// EdrSystem hosts every key, "donar" included: a backend that solves on
// dedicated mapping nodes says so through
// DistributedAlgorithm::mapping_nodes().
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/algorithm.hpp"

namespace edr::core {

struct SystemConfig;

using AlgorithmFactory =
    std::function<std::unique_ptr<DistributedAlgorithm>(const SystemConfig&)>;

class AlgorithmRegistry {
 public:
  /// The process-wide registry, with the built-in backends pre-registered.
  [[nodiscard]] static AlgorithmRegistry& instance();

  /// Register (or replace) a backend under `key`, with an optional one-line
  /// description for the CLI's --list-algorithms output.
  void add(std::string key, AlgorithmFactory factory);
  void add(std::string key, std::string description, AlgorithmFactory factory);

  [[nodiscard]] bool contains(const std::string& key) const;

  /// Registered keys, sorted (for error messages and --help listings).
  [[nodiscard]] std::vector<std::string> keys() const;

  /// One-line description registered for `key` (empty when none was given
  /// or the key is unknown).
  [[nodiscard]] std::string description(const std::string& key) const;

  /// Instantiate the backend for `key`, configured from `cfg`.  Throws
  /// std::invalid_argument on an unknown key, listing the known ones.
  [[nodiscard]] std::unique_ptr<DistributedAlgorithm> make(
      const std::string& key, const SystemConfig& cfg) const;

 private:
  struct Entry {
    std::string key;
    std::string description;
    AlgorithmFactory factory;
  };
  std::vector<Entry> entries_;
};

/// Convenience: instantiate cfg.algorithm from the process-wide registry.
[[nodiscard]] std::unique_ptr<DistributedAlgorithm> make_algorithm(
    const SystemConfig& cfg);

/// Human-facing label for a registry key ("lddm" -> "EDR-LDDM").
[[nodiscard]] std::string algorithm_display_name(const std::string& key);

}  // namespace edr::core
