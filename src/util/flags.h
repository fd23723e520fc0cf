// Minimal command-line flag parsing for the tools (no external dependencies).
// Supports --name=value and --name value forms plus boolean --name.
//
// Numeric values are parsed whole with std::from_chars: "x", "12x", "", a
// value that overflows, and one outside the accessor's [min, max] are bad —
// never thrown, truncated or wrapped. A bad value makes the accessor return
// its default and is remembered: a tool reads its flags, then checks ok()
// once and exits 2 with its usage line, naming bad_flag().
#ifndef SRC_UTIL_FLAGS_H_
#define SRC_UTIL_FLAGS_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <system_error>
#include <vector>

namespace opx {

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(std::move(arg));
        continue;
      }
      arg = arg.substr(2);
      const size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[arg] = argv[++i];
      } else {
        values_[arg] = "true";
      }
    }
  }

  bool Has(const std::string& name) const { return values_.count(name) > 0; }

  std::string GetString(const std::string& name, const std::string& def) const {
    auto it = values_.find(name);
    return it == values_.end() ? def : it->second;
  }

  // --name as a base-10 integer in [min, max]; `def` if absent or bad.
  int64_t GetInt(const std::string& name, int64_t def,
                 int64_t min = std::numeric_limits<int64_t>::min(),
                 int64_t max = std::numeric_limits<int64_t>::max()) const {
    int64_t v = 0;
    return Parse(name, &v) && v >= min && v <= max ? v : Bad(name, def);
  }

  // --name as a finite number; `def` if absent or bad.
  double GetDouble(const std::string& name, double def) const {
    double v = 0;
    return Parse(name, &v) && std::isfinite(v) ? v : Bad(name, def);
  }

  bool GetBool(const std::string& name, bool def) const {
    auto it = values_.find(name);
    if (it == values_.end()) {
      return def;
    }
    return it->second == "true" || it->second == "1" || it->second == "yes";
  }

  // False once a GetInt/GetDouble has seen a bad value; bad_flag() names the
  // first such flag.
  bool ok() const { return bad_.empty(); }
  const std::string& bad_flag() const { return bad_; }

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  // True if --name is present and its whole value parses as a T. An absent
  // flag is not bad: Bad() then returns the default without noting it.
  template <typename T>
  bool Parse(const std::string& name, T* out) const {
    auto it = values_.find(name);
    if (it == values_.end()) {
      return false;
    }
    const std::string& s = it->second;
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
    return ec == std::errc() && end == s.data() + s.size();
  }

  template <typename T>
  T Bad(const std::string& name, T def) const {
    if (Has(name) && bad_.empty()) {
      bad_ = name;
    }
    return def;
  }

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  mutable std::string bad_;
};

}  // namespace opx

#endif  // SRC_UTIL_FLAGS_H_
