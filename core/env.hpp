// Environment-variable parsing helpers. All EMR_* configuration flows
// through these so that "unset" is always distinguishable from "set to a
// default-looking value" (see EXPERIMENTS.md for the variable catalogue).
#pragma once

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

namespace emr {

/// True iff the variable is present in the environment (even if empty).
inline bool env_has(const char* name) {
  return std::getenv(name) != nullptr;
}

inline std::string env_str(const char* name, const std::string& def) {
  const char* v = std::getenv(name);
  return v ? std::string(v) : def;
}

inline long long env_i64(const char* name, long long def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  char* end = nullptr;
  const long long parsed = std::strtoll(v, &end, 10);
  return end == v ? def : parsed;
}

inline std::uint64_t env_u64(const char* name, std::uint64_t def) {
  const long long v = env_i64(name, -1);
  return v < 0 ? def : static_cast<std::uint64_t>(v);
}

inline double env_f64(const char* name, double def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  return end == v ? def : parsed;
}

/// Parses a whitespace- or comma-separated list of positive integers,
/// e.g. EMR_THREADS="1 2 4" or "6,12,24". Any token that is not a
/// positive integer fails the whole parse, with the offending token
/// copied into `bad_token`, so a typo never silently drops a sweep
/// point. Returns true on success; an unset or empty variable succeeds
/// with an empty `out`.
inline bool env_int_list_strict(const char* name, std::vector<int>* out,
                                std::string* bad_token) {
  out->clear();
  const char* v = std::getenv(name);
  if (v == nullptr) return true;
  const char* p = v;
  auto is_sep = [](char c) { return c == ' ' || c == ',' || c == '\t'; };
  while (*p != '\0') {
    while (is_sep(*p)) ++p;
    if (*p == '\0') break;
    char* end = nullptr;
    const long parsed = std::strtol(p, &end, 10);
    // A valid token is a positive integer consumed up to the next
    // separator: "4x" and "garbage" fail on the trailing junk, "0" and
    // "-3" on the value.
    if (end == p || !(*end == '\0' || is_sep(*end)) || parsed <= 0) {
      const char* tok_end = p;
      while (*tok_end != '\0' && !is_sep(*tok_end)) ++tok_end;
      if (bad_token != nullptr) bad_token->assign(p, tok_end);
      return false;
    }
    out->push_back(static_cast<int>(parsed));
    p = end;
  }
  return true;
}

/// env_int_list_strict's shape for real-valued knobs (EMR_PHASES):
/// whitespace/comma separators, any token that is not a finite double
/// fails the whole parse with the offending token copied into
/// `bad_token`. Range policing (positivity etc.) is the
/// caller's job — validate_config names the valid range per knob.
inline bool env_f64_list_strict(const char* name, std::vector<double>* out,
                                std::string* bad_token) {
  out->clear();
  const char* v = std::getenv(name);
  if (v == nullptr) return true;
  const char* p = v;
  auto is_sep = [](char c) { return c == ' ' || c == ',' || c == '\t'; };
  while (*p != '\0') {
    while (is_sep(*p)) ++p;
    if (*p == '\0') break;
    char* end = nullptr;
    const double parsed = std::strtod(p, &end);
    if (end == p || !(*end == '\0' || is_sep(*end))) {
      const char* tok_end = p;
      while (*tok_end != '\0' && !is_sep(*tok_end)) ++tok_end;
      if (bad_token != nullptr) bad_token->assign(p, tok_end);
      return false;
    }
    out->push_back(parsed);
    p = end;
  }
  return true;
}

}  // namespace emr
