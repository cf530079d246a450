#include "common/flags.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/strings.h"
#include "common/thread_pool.h"

namespace desalign::common {

namespace {

Status BadValue(const std::string& name, const std::string& value,
                const char* kind) {
  return Status::InvalidArgument("flag --" + name + ": '" + value +
                                 "' is not a valid " + kind);
}

}  // namespace

FlagParser::FlagParser(std::string program_description)
    : description_(std::move(program_description)) {}

void FlagParser::AddString(const std::string& name,
                           const std::string& default_value,
                           const std::string& help, std::string* out) {
  *out = default_value;
  Flag f;
  f.name = name;
  f.help = help;
  f.default_text = default_value;
  f.set = [out](const std::string& v) {
    *out = v;
    return Status::Ok();
  };
  flags_.push_back(std::move(f));
}

void FlagParser::AddInt64(const std::string& name, int64_t default_value,
                          const std::string& help, int64_t* out) {
  *out = default_value;
  Flag f;
  f.name = name;
  f.help = help;
  f.default_text = std::to_string(default_value);
  f.set = [out, name](const std::string& v) {
    char* end = nullptr;
    const long long parsed = std::strtoll(v.c_str(), &end, 10);
    if (end == v.c_str() || *end != '\0') {
      return BadValue(name, v, "integer");
    }
    *out = parsed;
    return Status::Ok();
  };
  flags_.push_back(std::move(f));
}

void FlagParser::AddDouble(const std::string& name, double default_value,
                           const std::string& help, double* out) {
  *out = default_value;
  Flag f;
  f.name = name;
  f.help = help;
  f.default_text = FormatDouble(default_value, 4);
  f.set = [out, name](const std::string& v) {
    char* end = nullptr;
    const double parsed = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0') {
      return BadValue(name, v, "number");
    }
    *out = parsed;
    return Status::Ok();
  };
  flags_.push_back(std::move(f));
}

void FlagParser::AddBool(const std::string& name, bool default_value,
                         const std::string& help, bool* out) {
  *out = default_value;
  Flag f;
  f.name = name;
  f.help = help;
  f.default_text = default_value ? "true" : "false";
  f.is_bool = true;
  f.set = [out, name](const std::string& v) {
    if (v == "true" || v == "1") {
      *out = true;
    } else if (v == "false" || v == "0") {
      *out = false;
    } else {
      return BadValue(name, v, "boolean (true/false)");
    }
    return Status::Ok();
  };
  f.set_true = [out]() {
    *out = true;
    return Status::Ok();
  };
  f.set_false = [out]() {
    *out = false;
    return Status::Ok();
  };
  flags_.push_back(std::move(f));
}

const FlagParser::Flag* FlagParser::Find(const std::string& name) const {
  for (const auto& f : flags_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

Status FlagParser::Parse(int argc, const char* const* argv, int start) {
  positional_.clear();
  for (int i = start; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(Usage().c_str(), stderr);
      return Status::FailedPrecondition("help requested");
    }
    if (!StartsWith(arg, "--")) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    std::string value;
    bool has_value = false;
    const size_t eq = body.find('=');
    if (eq != std::string::npos) {
      value = body.substr(eq + 1);
      body = body.substr(0, eq);
      has_value = true;
    }
    const Flag* flag = Find(body);
    if (flag == nullptr && !has_value && StartsWith(body, "no-")) {
      const Flag* negated = Find(body.substr(3));
      if (negated != nullptr && negated->is_bool) {
        DESALIGN_RETURN_NOT_OK(negated->set_false());
        continue;
      }
    }
    if (flag == nullptr) {
      return Status::InvalidArgument("unknown flag --" + body +
                                     " (try --help)");
    }
    if (!has_value) {
      if (flag->is_bool) {
        DESALIGN_RETURN_NOT_OK(flag->set_true());
        continue;
      }
      if (i + 1 >= argc) {
        return Status::InvalidArgument("flag --" + body +
                                       " expects a value");
      }
      value = argv[++i];
    }
    DESALIGN_RETURN_NOT_OK(flag->set(value));
  }
  return Status::Ok();
}

std::string FlagParser::Usage() const {
  std::ostringstream os;
  os << description_ << "\n\nFlags:\n";
  for (const auto& f : flags_) {
    os << "  --" << f.name << "  (default: " << f.default_text << ")\n"
       << "      " << f.help << "\n";
  }
  return os.str();
}

void AddThreadsFlag(FlagParser& parser, int64_t* out) {
  parser.AddInt64("threads", 0,
                  "worker threads for parallel kernels (0 = auto: "
                  "DESALIGN_NUM_THREADS env, else hardware)",
                  out);
}

Status ApplyThreadsFlag(int64_t threads) {
  if (threads < 0) {
    return Status::InvalidArgument("--threads must be >= 0, got " +
                                   std::to_string(threads));
  }
  ThreadPool::SetGlobalThreadCount(static_cast<int>(threads));
  return Status::Ok();
}

Result<std::vector<double>> ParseDoubleList(const std::string& text) {
  std::vector<double> out;
  for (const auto& part : Split(text, ',')) {
    const auto trimmed = std::string(Trim(part));
    if (trimmed.empty()) continue;
    char* end = nullptr;
    const double v = std::strtod(trimmed.c_str(), &end);
    if (end == trimmed.c_str() || *end != '\0' || !std::isfinite(v)) {
      return Status::InvalidArgument("'" + trimmed +
                                     "' is not a finite number");
    }
    out.push_back(v);
  }
  return out;
}

Result<std::vector<int64_t>> ParseInt64List(const std::string& text) {
  std::vector<int64_t> out;
  for (const auto& part : Split(text, ',')) {
    const std::string_view trimmed = Trim(part);
    if (trimmed.empty()) continue;
    if (!ParseInt64(trimmed, &out.emplace_back())) {
      return Status::InvalidArgument("'" + std::string(trimmed) +
                                     "' is not an integer");
    }
  }
  return out;
}

std::vector<std::string> ParseStringList(const std::string& text) {
  std::vector<std::string> out;
  for (const auto& part : Split(text, ',')) {
    auto trimmed = std::string(Trim(part));
    if (!trimmed.empty()) out.push_back(std::move(trimmed));
  }
  return out;
}

}  // namespace desalign::common
