#include "gosh/api/option_table.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>

namespace gosh::api {

std::string_view trim(std::string_view text) {
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.front())))
    text.remove_prefix(1);
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back())))
    text.remove_suffix(1);
  return text;
}

std::string quoted(std::string_view text) {
  std::string out = "'";
  out += text;
  out += "'";
  return out;
}

Result<long long> parse_integer(std::string_view text) {
  text = trim(text);
  if (text.empty()) return Status::invalid_argument("empty integer");
  long long value = 0;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (error == std::errc::result_out_of_range)
    return Status::invalid_argument("integer out of range: " + quoted(text));
  if (error != std::errc() || end != text.data() + text.size())
    return Status::invalid_argument("expected an integer, got " +
                                    quoted(text));
  return value;
}

Result<unsigned long long> parse_unsigned(std::string_view text) {
  text = trim(text);
  if (!text.empty() && text.front() == '-')
    return Status::invalid_argument("expected a non-negative integer, got " +
                                    quoted(text));
  if (text.empty()) return Status::invalid_argument("empty integer");
  // Parsed as unsigned directly so (LLONG_MAX, ULLONG_MAX] stays legal —
  // a 64-bit seed may use the full range.
  unsigned long long value = 0;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (error == std::errc::result_out_of_range)
    return Status::invalid_argument("integer out of range: " + quoted(text));
  if (error != std::errc() || end != text.data() + text.size())
    return Status::invalid_argument("expected an integer, got " +
                                    quoted(text));
  return value;
}

Result<double> parse_real(std::string_view text) {
  text = trim(text);
  if (text.empty()) return Status::invalid_argument("empty number");
  double value = 0.0;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (error != std::errc() || end != text.data() + text.size())
    return Status::invalid_argument("expected a number, got " + quoted(text));
  if (!std::isfinite(value))
    return Status::invalid_argument("expected a finite number, got " +
                                    quoted(text));
  return value;
}

Result<bool> parse_bool(std::string_view text) {
  text = trim(text);
  if (text == "true" || text == "1") return true;
  if (text == "false" || text == "0") return false;
  return Status::invalid_argument("expected true|false|1|0, got " +
                                  quoted(text));
}

Status read_options_file(const std::string& path, KeyValuePairs& pairs) {
  std::ifstream file(path);
  if (!file)
    return Status::io_error("cannot open options file " + quoted(path));

  std::string line;
  std::size_t line_number = 0;
  while (std::getline(file, line)) {
    ++line_number;
    std::string_view text = line;
    if (const std::size_t hash = text.find('#'); hash != std::string::npos)
      text = text.substr(0, hash);
    text = trim(text);
    if (text.empty()) continue;
    const std::size_t equals = text.find('=');
    if (equals == std::string_view::npos)
      return Status::invalid_argument(
          path + ":" + std::to_string(line_number) +
          ": expected key=value, got " + quoted(text));
    const std::string_view key = trim(text.substr(0, equals));
    const std::string_view value = trim(text.substr(equals + 1));
    if (key.empty())
      return Status::invalid_argument(path + ":" +
                                      std::to_string(line_number) +
                                      ": empty key");
    pairs.emplace_back(std::string(key), std::string(value));
  }
  return Status::ok();
}

std::size_t OptionSchema::find(std::string_view key) const {
  for (std::size_t i = 0; i < entries_.size(); ++i)
    if (entries_[i].key == key) return i;
  return npos;
}

Status OptionSchema::unknown(std::string_view key) const {
  return Status::invalid_argument("unknown " + noun_ + " " + quoted(key));
}

Status OptionSchema::scan_args(int argc, char** argv, KeyValuePairs& pairs,
                               bool& help) const {
  KeyValuePairs flags;
  std::string options_file;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help = true;
      return Status::ok();
    }
    if (!arg.starts_with("--"))
      return Status::invalid_argument("stray argument " + quoted(arg) +
                                      " (flags start with --)");
    const std::string_view key = arg.substr(2);
    const auto negated = std::find_if(
        entries_.begin(), entries_.end(),
        [key](const Entry& entry) { return entry.negation == key; });
    if (!key.empty() && negated != entries_.end()) {
      flags.emplace_back(negated->key, "false");
      continue;
    }
    const std::size_t row = find(key);
    if (row != npos && entries_[row].flag) {
      // A bare flag; an explicit boolean right after it is its value.
      const bool explicit_value = i + 1 < argc && parse_bool(argv[i + 1]).ok();
      flags.emplace_back(key, explicit_value ? argv[++i] : "true");
      continue;
    }
    if (row == npos && key != "options") return unknown(key);
    if (i + 1 >= argc)
      return Status::invalid_argument("flag " + quoted(arg) +
                                      " expects a value");
    if (row == npos) {
      options_file = argv[++i];
    } else {
      flags.emplace_back(key, argv[++i]);
    }
  }
  // File pairs go first, so the flags override the file.
  if (!options_file.empty()) {
    if (Status status = read_options_file(options_file, pairs);
        !status.is_ok())
      return status;
  }
  pairs.insert(pairs.end(), flags.begin(), flags.end());
  return Status::ok();
}

KeyValuePairs OptionSchema::in_apply_order(const KeyValuePairs& pairs) const {
  KeyValuePairs ordered;
  for (const Entry& entry : entries_) {
    if (!entry.early) continue;
    for (const auto& pair : pairs)
      if (pair.first == entry.key) ordered.push_back(pair);
  }
  for (const auto& pair : pairs) {
    const std::size_t row = find(pair.first);
    if (row == npos || !entries_[row].early) ordered.push_back(pair);
  }
  return ordered;
}

std::string OptionSchema::help_text(
    const std::vector<std::string>& defaults) const {
  constexpr std::size_t kColumn = 26;
  std::string out;
  const auto line = [&out](std::string spec, std::string_view help,
                           std::string_view fallback) {
    out += "  " + spec;
    if (spec.size() + 4 <= kColumn) {
      out.append(kColumn - 2 - spec.size(), ' ');
    } else {
      out += "\n" + std::string(kColumn, ' ');
    }
    out += help;
    if (!fallback.empty()) out += " (default " + std::string(fallback) + ")";
    out += "\n";
  };
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& entry = entries_[i];
    std::string spec = "--" + entry.key;
    if (!entry.value_name.empty()) spec += " " + entry.value_name;
    if (!entry.negation.empty()) spec += " | --" + entry.negation;
    // A bare flag that is off by default needs no "(default false)".
    line(spec, entry.help,
         entry.flag && defaults[i] == "false" ? "" : defaults[i]);
  }
  line("--options FILE", "key = value lines; flags override the file", "");
  line("--help", "print this help", "");
  return out;
}

}  // namespace gosh::api
