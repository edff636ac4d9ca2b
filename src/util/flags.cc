#include "util/flags.h"

#include <cstdio>
#include <cstdlib>

#include "util/logging.h"
#include "util/string_util.h"

namespace remi {

void Flags::DefineString(const std::string& name,
                         const std::string& default_value,
                         const std::string& help) {
  flags_[name] = FlagInfo{Type::kString, default_value, default_value, help};
}

void Flags::DefineInt(const std::string& name, int64_t default_value,
                      const std::string& help) {
  const std::string v = std::to_string(default_value);
  flags_[name] = FlagInfo{Type::kInt, v, v, help};
}

void Flags::DefineDouble(const std::string& name, double default_value,
                         const std::string& help) {
  const std::string v = FormatDouble(default_value, 6);
  flags_[name] = FlagInfo{Type::kDouble, v, v, help};
}

void Flags::DefineBool(const std::string& name, bool default_value,
                       const std::string& help) {
  const std::string v = default_value ? "true" : "false";
  flags_[name] = FlagInfo{Type::kBool, v, v, help};
}

Status Flags::SetValue(const std::string& name, const std::string& value) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    return Status::InvalidArgument("unknown flag --" + name);
  }
  FlagInfo& info = it->second;
  switch (info.type) {
    case Type::kInt: {
      char* end = nullptr;
      (void)strtoll(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        return Status::InvalidArgument("flag --" + name +
                                       " expects an integer, got '" + value +
                                       "'");
      }
      break;
    }
    case Type::kDouble: {
      char* end = nullptr;
      (void)strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') {
        return Status::InvalidArgument("flag --" + name +
                                       " expects a number, got '" + value +
                                       "'");
      }
      break;
    }
    case Type::kBool: {
      if (value != "true" && value != "false" && value != "1" &&
          value != "0") {
        return Status::InvalidArgument("flag --" + name +
                                       " expects true/false, got '" + value +
                                       "'");
      }
      break;
    }
    case Type::kString:
      break;
  }
  info.value = value;
  info.set = true;
  return Status::OK();
}

Status Flags::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      REMI_RETURN_NOT_OK(SetValue(arg.substr(0, eq), arg.substr(eq + 1)));
      continue;
    }
    // --flag value, or boolean --flag / --no-flag.
    auto it = flags_.find(arg);
    if (it != flags_.end() && it->second.type == Type::kBool) {
      it->second.value = "true";
      it->second.set = true;
      continue;
    }
    if (StartsWith(arg, "no-")) {
      auto neg = flags_.find(arg.substr(3));
      if (neg != flags_.end() && neg->second.type == Type::kBool) {
        neg->second.value = "false";
        neg->second.set = true;
        continue;
      }
    }
    if (it == flags_.end()) {
      return Status::InvalidArgument("unknown flag --" + arg);
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument("flag --" + arg + " is missing a value");
    }
    REMI_RETURN_NOT_OK(SetValue(arg, argv[++i]));
  }
  return Status::OK();
}

std::string Flags::GetString(const std::string& name) const {
  auto it = flags_.find(name);
  REMI_CHECK(it != flags_.end());
  return it->second.value;
}

int64_t Flags::GetInt(const std::string& name) const {
  auto it = flags_.find(name);
  REMI_CHECK(it != flags_.end() && it->second.type == Type::kInt);
  return strtoll(it->second.value.c_str(), nullptr, 10);
}

double Flags::GetDouble(const std::string& name) const {
  auto it = flags_.find(name);
  REMI_CHECK(it != flags_.end());
  return strtod(it->second.value.c_str(), nullptr);
}

bool Flags::WasSet(const std::string& name) const {
  auto it = flags_.find(name);
  REMI_CHECK(it != flags_.end());
  return it->second.set;
}

bool Flags::GetBool(const std::string& name) const {
  auto it = flags_.find(name);
  REMI_CHECK(it != flags_.end() && it->second.type == Type::kBool);
  return it->second.value == "true" || it->second.value == "1";
}

Status Flags::CheckRanges(const std::vector<IntRange>& int_ranges,
                          const std::vector<const char*>& non_negative) const {
  for (const IntRange& range : int_ranges) {
    const int64_t value = GetInt(range.name);
    if (value < range.min || value > range.max) {
      return Status::InvalidArgument(
          std::string("--") + range.name + " must be in [" +
          std::to_string(range.min) + ", " + std::to_string(range.max) +
          "], got " + std::to_string(value));
    }
  }
  for (const char* name : non_negative) {
    const double value = GetDouble(name);
    if (!(value >= 0.0)) {  // also rejects NaN
      char got[32];
      std::snprintf(got, sizeof(got), "%g", value);
      return Status::InvalidArgument(std::string("--") + name +
                                     " must be >= 0, got " + got);
    }
  }
  return Status::OK();
}

std::string Flags::Help() const {
  std::string out = "Flags:\n";
  for (const auto& [name, info] : flags_) {
    out += "  --" + name + " (default: " + info.default_value + ")\n      " +
           info.help + "\n";
  }
  return out;
}

}  // namespace remi
