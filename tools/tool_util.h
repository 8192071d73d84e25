// Shared helpers for the command-line tools.
#pragma once

#include <cerrno>
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
  // not parse completely — trailing junk, out of range — is a usage error:
  // a message on stderr and exit 2, never a silently truncated number.
  uint64_t GetInt(const std::string& name, uint64_t fallback) const {
    const std::string v = Get(name);
    if (v.empty()) return fallback;
    errno = 0;
    char* end = nullptr;
    const uint64_t value = std::strtoull(v.c_str(), &end, 0);
    if (end == v.c_str() || *end != '\0' || errno == ERANGE) {
      BadValue(name, v, "an integer");
    }
    return value;
  }
  double GetDouble(const std::string& name, double fallback) const {
    const std::string v = Get(name);
    if (v.empty()) return fallback;
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0' || errno == ERANGE) {
      BadValue(name, v, "a number");
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
