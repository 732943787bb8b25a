// Environment-variable overrides for the bench harnesses, and the strict
// number parsing they share with the CLI tools' flags.
//
// Every bench ships laptop-scale defaults but honours MIFO_* env vars so the
// experiments can be rerun at paper scale (documented in EXPERIMENTS.md).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace mifo {

/// Strict decimal parse of an unsigned count: digits only — no sign (so
/// "-5" cannot wrap to 2^64-5), no surrounding space, no trailing junk —
/// and within range. nullopt otherwise (including null / empty text).
[[nodiscard]] std::optional<std::uint64_t> parse_u64(const char* text);
/// Strict parse of a finite number (strtod syntax, no surrounding space,
/// no trailing junk, no inf/nan). nullopt otherwise.
[[nodiscard]] std::optional<double> parse_double(const char* text);

/// Returns the env var parsed as the requested type (parse_u64 /
/// parse_double), or `fallback` when the variable is unset or unparsable.
[[nodiscard]] std::uint64_t env_u64(const char* name, std::uint64_t fallback);
[[nodiscard]] double env_double(const char* name, double fallback);
[[nodiscard]] std::string env_string(const char* name,
                                     const std::string& fallback);

}  // namespace mifo
