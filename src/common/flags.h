#ifndef DESALIGN_COMMON_FLAGS_H_
#define DESALIGN_COMMON_FLAGS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"

namespace desalign::common {

/// Minimal command-line flag parser for the CLI tools. Supports
/// `--name=value`, `--name value`, bare boolean `--name` /
/// `--no-name`, and `--help`. Unknown flags are errors; remaining
/// positional arguments are collected in order.
class FlagParser {
 public:
  explicit FlagParser(std::string program_description);

  /// Registration. Each out-pointer must outlive Parse(); it is
  /// pre-loaded with the default so callers can rely on it unconditionally.
  void AddString(const std::string& name, const std::string& default_value,
                 const std::string& help, std::string* out);
  void AddInt64(const std::string& name, int64_t default_value,
                const std::string& help, int64_t* out);
  void AddDouble(const std::string& name, double default_value,
                 const std::string& help, double* out);
  void AddBool(const std::string& name, bool default_value,
               const std::string& help, bool* out);

  /// Parses argv[start..argc). Returns InvalidArgument on unknown flags or
  /// malformed values, and FailedPrecondition("help requested") after
  /// printing usage when --help is present.
  Status Parse(int argc, const char* const* argv, int start = 1);

  /// Positional (non-flag) arguments, in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Human-readable usage text.
  std::string Usage() const;

 private:
  struct Flag {
    std::string name;
    std::string help;
    std::string default_text;
    bool is_bool = false;
    std::function<Status(const std::string&)> set;
    std::function<Status()> set_true;   // bool flags only
    std::function<Status()> set_false;  // bool flags only
  };

  const Flag* Find(const std::string& name) const;

  std::string description_;
  std::vector<Flag> flags_;
  std::vector<std::string> positional_;
};

/// Registers the global `--threads` flag (0 = auto: DESALIGN_NUM_THREADS
/// env var, else min(8, hardware_concurrency)). Every CLI subcommand
/// registers this so one knob sizes every ThreadPool::Global() call site
/// (tensor matmul, sparse spmm, serve retrieval).
void AddThreadsFlag(FlagParser& parser, int64_t* out);

/// Applies a parsed `--threads` value by resizing ThreadPool::Global().
/// Negative values are invalid; 0 restores the automatic default.
Status ApplyThreadsFlag(int64_t threads);

/// Splits "a,b,c" into finite doubles, skipping empty entries; Status on
/// a malformed or non-finite (inf, nan) entry.
Result<std::vector<double>> ParseDoubleList(const std::string& text);

/// Splits "a,b,c" into integers, skipping empty entries; Status unless
/// every entry is a whole decimal integer (ParseInt64: "1x" and "2e3" fail).
Result<std::vector<int64_t>> ParseInt64List(const std::string& text);

/// Splits "a,b,c" into trimmed non-empty strings.
std::vector<std::string> ParseStringList(const std::string& text);

}  // namespace desalign::common

#endif  // DESALIGN_COMMON_FLAGS_H_
