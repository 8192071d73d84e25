// Shared helpers for the command-line tools.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace sc::tools {

// Reads a whole file; nullopt (with a message on stderr) on failure.
inline std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "error: cannot open '%s'\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

inline std::optional<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  auto text = ReadFile(path);
  if (!text) return std::nullopt;
  return std::vector<uint8_t>(text->begin(), text->end());
}

inline bool WriteFileBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
    return false;
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return out.good();
}

// Parses all of `v` as a non-negative integer in `base` (0: decimal or
// 0x-hex). strtoull alone would accept a minus sign and wrap "-1" to
// 2^64 - 1, so a negative value is rejected like trailing junk.
inline bool ParseUint(const std::string& v, int base, uint64_t* out) {
  const size_t first = v.find_first_not_of(" \t\n\v\f\r");
  if (first == std::string::npos || v[first] == '-') return false;
  errno = 0;
  char* end = nullptr;
  *out = std::strtoull(v.c_str(), &end, base);
  return end != v.c_str() && *end == '\0' && errno != ERANGE;
}

// Parses all of `v` as a probability: a finite number in [0, 1]. strtod
// alone would also accept "nan", "inf" and any out-of-range rate.
inline bool ParseProbability(const std::string& v, double* out) {
  errno = 0;
  char* end = nullptr;
  *out = std::strtod(v.c_str(), &end);
  return end != v.c_str() && *end == '\0' && errno != ERANGE &&
         std::isfinite(*out) && *out >= 0.0 && *out <= 1.0;
}

// Tiny flag parser: positional args plus --key=value / --flag options.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        const auto eq = arg.find('=');
        if (eq == std::string::npos) {
          flags_.emplace_back(arg.substr(2), "");
        } else {
          flags_.emplace_back(arg.substr(2, eq - 2), arg.substr(eq + 1));
        }
      } else {
        positional_.push_back(arg);
      }
    }
  }

  bool Has(const std::string& name) const {
    for (const auto& [key, value] : flags_) {
      if (key == name) return true;
    }
    return false;
  }
  std::string Get(const std::string& name, const std::string& fallback = "") const {
    for (const auto& [key, value] : flags_) {
      if (key == name) return value;
    }
    return fallback;
  }
  // Numeric flag values (integers in decimal or 0x-hex). A value that does
  // not parse completely — trailing junk, out of range, negative — is a
  // usage error: a message on stderr and exit 2, never a silently truncated
  // or wrapped number.
  uint64_t GetInt(const std::string& name, uint64_t fallback) const {
    const std::string v = Get(name);
    if (v.empty()) return fallback;
    uint64_t value = 0;
    if (!ParseUint(v, 0, &value)) {
      BadValue(name, v,
               v.find('-') != std::string::npos ? "a non-negative integer"
                                                : "an integer");
    }
    return value;
  }
  // A probability flag: exit 2 unless the value is a finite number in
  // [0, 1].
  double GetProbability(const std::string& name, double fallback) const {
    const std::string v = Get(name);
    if (v.empty()) return fallback;
    double value = 0;
    if (!ParseProbability(v, &value)) {
      BadValue(name, v, "a probability in [0, 1]");
    }
    return value;
  }
  const std::vector<std::string>& positional() const { return positional_; }
  // Flags not in `known` (typo detection); returns first unknown or "".
  std::string FirstUnknown(const std::vector<std::string>& known) const {
    for (const auto& [key, value] : flags_) {
      bool found = false;
      for (const auto& k : known) {
        if (k == key) found = true;
      }
      if (!found) return key;
    }
    return "";
  }

 private:
  [[noreturn]] static void BadValue(const std::string& name,
                                    const std::string& value,
                                    const char* expected) {
    std::fprintf(stderr, "--%s=%s: not %s\n", name.c_str(), value.c_str(),
                 expected);
    std::exit(2);
  }

  std::vector<std::pair<std::string, std::string>> flags_;
  std::vector<std::string> positional_;
};

}  // namespace sc::tools
