// A minimal command-line flag parser for examples and benchmark harnesses.
//
// Supports --name=value and --name value forms plus boolean --name /
// --no-name. Unknown flags are reported as errors so that typos in
// experiment configurations do not silently run the default setup.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace remi {

/// \brief Registry + parser for a flat set of typed flags.
class Flags {
 public:
  /// Registers a flag with a default value and help text.
  void DefineString(const std::string& name, const std::string& default_value,
                    const std::string& help);
  void DefineInt(const std::string& name, int64_t default_value,
                 const std::string& help);
  void DefineDouble(const std::string& name, double default_value,
                    const std::string& help);
  void DefineBool(const std::string& name, bool default_value,
                  const std::string& help);

  /// Parses argv; returns error on unknown flags or malformed values.
  /// Positional (non --) arguments are collected into positional().
  Status Parse(int argc, char** argv);

  std::string GetString(const std::string& name) const;
  int64_t GetInt(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  bool GetBool(const std::string& name) const;

  /// True if the flag was explicitly set on the command line (as opposed
  /// to carrying its default value).
  bool WasSet(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// An inclusive bound on an int flag.
  struct IntRange {
    const char* name;
    int64_t min;
    int64_t max;
  };

  /// Range-checks parsed numeric flags before a caller casts them: a cast
  /// to size_t would wrap a negative count, and one to int would truncate
  /// an oversized value (4294973760 to the valid port 6464). Each int
  /// flag in `int_ranges` must lie in its range, and each double flag in
  /// `non_negative` must be >= 0. The first violation fails with
  /// InvalidArgument "--<name> must be in [<min>, <max>], got <value>" or
  /// "--<name> must be >= 0, got <value>".
  Status CheckRanges(const std::vector<IntRange>& int_ranges,
                     const std::vector<const char*>& non_negative) const;

  /// Formatted help text listing all registered flags.
  std::string Help() const;

 private:
  enum class Type { kString, kInt, kDouble, kBool };
  struct FlagInfo {
    Type type;
    std::string value;  // current value, textual
    std::string default_value;
    std::string help;
    bool set = false;  // explicitly set via Parse
  };
  Status SetValue(const std::string& name, const std::string& value);

  std::map<std::string, FlagInfo> flags_;
  std::vector<std::string> positional_;
};

}  // namespace remi
