// OptionTable — the one declarative options table behind api::Options,
// serving::ServeOptions and net::NetOptions.
//
// A row names a key (the config-file key; "--key" on the command line), a
// value placeholder, one help line, and the field it writes. A row over a
// typed field needs nothing more; the field's type picks the strict
// parser:
//   * bool           parse_bool; a bare flag ("--key" alone means true);
//   * unsigned ints  parse_unsigned, and the value must fit the field;
//   * floating point parse_real;
//   * std::string    the value itself.
// Enumerations map names to values (`choice`); compound values such as
// "LO:HI" bring their own parse/show pair (`custom`).
//
// The engine does the rest, once for every options struct:
//   * set(key, value) — row lookup; the value is trimmed; unknown keys and
//     unparsable values are kInvalidArgument;
//   * from_args — --help/-h short-circuits; "--options FILE" loads the
//     file first and the flags override it; a bare flag may be followed
//     by an explicit true|false|1|0; every other flag takes exactly one
//     value; anything that is not a flag is an error. The result has
//     passed Owner::validate();
//   * from_file — key = value lines ('#' comments) over a base, validated;
//   * help() — the flag listing, one line per row, with the defaults of a
//     default-constructed Owner.
// Rows marked `early()` are applied before every other key, in table
// order, wherever they were written (api::Options' large-scale and
// preset, which reset knobs that later keys refine).
#pragma once

#include <charconv>
#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "gosh/api/status.hpp"

namespace gosh::api {

// ---- Strict scalar parsing (the row setters, and tools with bespoke
// ---- flags such as the bench harnesses). --------------------------------

/// Whole-string signed integer; rejects trailing junk, overflow, empty.
Result<long long> parse_integer(std::string_view text);
/// Whole-string non-negative integer; additionally rejects a leading '-'
/// (so "-3" cannot wrap through an unsigned cast).
Result<unsigned long long> parse_unsigned(std::string_view text);
/// Whole-string finite double.
Result<double> parse_real(std::string_view text);
/// "true"/"false"/"1"/"0" (case-sensitive).
Result<bool> parse_bool(std::string_view text);

/// Ordered key=value pairs of an options file ('#' comments and blank
/// lines ignored; keys and values trimmed; line-numbered
/// kInvalidArgument on malformed lines).
using KeyValuePairs = std::vector<std::pair<std::string, std::string>>;
Status read_options_file(const std::string& path, KeyValuePairs& pairs);

/// `text` without leading and trailing whitespace.
std::string_view trim(std::string_view text);
/// "'text'", for error messages.
std::string quoted(std::string_view text);

/// The typed strict setter: parses `text` into `field` by the field's
/// type (see the header comment). Errors name `key`.
template <typename T>
Status parse_field(std::string_view key, std::string_view text, T& field) {
  if constexpr (std::is_same_v<T, std::string>) {
    field = std::string(text);
    return Status::ok();
  } else {
    static_assert(std::is_same_v<T, bool> || std::is_floating_point_v<T> ||
                      std::is_unsigned_v<T>,
                  "no strict parser for this field type");
    auto parsed = [text] {
      if constexpr (std::is_same_v<T, bool>) return parse_bool(text);
      else if constexpr (std::is_floating_point_v<T>) return parse_real(text);
      else return parse_unsigned(text);
    }();
    if (!parsed.ok())
      return Status::invalid_argument(std::string(key) + ": " +
                                      parsed.status().message());
    if constexpr (std::is_unsigned_v<T> && !std::is_same_v<T, bool>) {
      // A value the field cannot hold is an error, not a silent wrap —
      // `--dim 4294967297` must not become dim=1.
      if (!std::in_range<T>(parsed.value()))
        return Status::invalid_argument(std::string(key) +
                                        ": value out of range " +
                                        quoted(text));
    }
    field = static_cast<T>(parsed.value());
    return Status::ok();
  }
}

/// The field as parse_field reads it back (floats in shortest round-trip
/// form).
template <typename T>
std::string show_field(const T& field) {
  if constexpr (std::is_same_v<T, std::string>) {
    return field;
  } else if constexpr (std::is_same_v<T, bool>) {
    return field ? "true" : "false";
  } else {
    char buffer[32];
    const auto result = std::to_chars(buffer, buffer + sizeof buffer, field);
    return std::string(buffer, result.ptr);
  }
}

/// The type-independent half of a table: keys, flags, order and help.
class OptionSchema {
 public:
  struct Entry {
    Entry(std::string_view key, std::string_view value_name,
          std::string_view help, bool flag = false)
        : key(key), value_name(value_name), help(help), flag(flag) {}

    std::string key;
    std::string value_name;  ///< "N", "PATH", ...; empty for bare flags
    std::string help;
    bool flag = false;       ///< bool field: "--key" alone means true
    bool early = false;      ///< applied before every other key
    std::string negation;    ///< optional bare "--<negation>": key = false
  };

  const std::vector<Entry>& entries() const noexcept { return entries_; }

 protected:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  explicit OptionSchema(std::string noun) : noun_(std::move(noun)) {}

  std::size_t find(std::string_view key) const;
  Status unknown(std::string_view key) const;
  /// The command line as ordered pairs, the --options file's first. Sets
  /// `help` (and stops) at --help/-h.
  Status scan_args(int argc, char** argv, KeyValuePairs& pairs,
                   bool& help) const;
  /// Early rows' pairs first (in table order), then the rest as written.
  KeyValuePairs in_apply_order(const KeyValuePairs& pairs) const;
  /// One line per row; `defaults[i]` is row i's default value.
  std::string help_text(const std::vector<std::string>& defaults) const;

  std::string noun_;  ///< "option", "serving option": unknown-key errors
  std::vector<Entry> entries_;
};

template <typename Owner>
class OptionTable : public OptionSchema {
 public:
  using Parse = Status (*)(Owner&, std::string_view value);
  using Show = std::string (*)(const Owner&);
  using Hook = Status (*)(Owner&);

  explicit OptionTable(std::string noun) : OptionSchema(std::move(noun)) {}

  /// A typed field, reached by a member pointer or a generic accessor
  /// `[](auto& o) -> auto& { return o.nested.field; }`. `then` runs after
  /// every successful set.
  template <typename Access>
  OptionTable& field(std::string_view key, std::string_view value_name,
                     std::string_view help, Access access,
                     Hook then = nullptr) {
    using Field = std::remove_cvref_t<std::invoke_result_t<Access, Owner&>>;
    static_assert(
        std::is_lvalue_reference_v<std::invoke_result_t<Access, Owner&>>,
        "the accessor must return the field by reference");
    return add(Entry(key, value_name, help, std::is_same_v<Field, bool>),
               [access, then](Owner& owner, std::string_view k,
                              std::string_view value) {
                 Status status =
                     parse_field(k, value, std::invoke(access, owner));
                 if (status.is_ok() && then != nullptr) status = then(owner);
                 return status;
               },
               [access](const Owner& owner) {
                 return show_field(std::invoke(access, owner));
               });
  }

  /// A field that takes one of a fixed set of named values.
  template <typename Access, typename Value>
  OptionTable& choice(std::string_view key, std::string_view help,
                      Access access,
                      std::vector<std::pair<std::string, Value>> names) {
    std::string alternatives;
    for (const auto& [name, value] : names)
      alternatives += (alternatives.empty() ? "" : "|") + name;
    return add(Entry(key, alternatives, help),
               [access, names, alternatives](Owner& owner, std::string_view k,
                                             std::string_view value) {
                 for (const auto& [name, named] : names) {
                   if (name != value) continue;
                   std::invoke(access, owner) = named;
                   return Status::ok();
                 }
                 return Status::invalid_argument(std::string(k) +
                                                 ": expected " + alternatives +
                                                 ", got " + quoted(value));
               },
               [access, names](const Owner& owner) {
                 for (const auto& [name, named] : names)
                   if (named == std::invoke(access, owner)) return name;
                 return std::string();
               });
  }

  /// A compound value with its own parse/show pair.
  OptionTable& custom(std::string_view key, std::string_view value_name,
                      std::string_view help, Parse parse, Show show) {
    return add(Entry(key, value_name, help),
               [parse](Owner& owner, std::string_view, std::string_view value) {
                 return parse(owner, value);
               },
               show);
  }

  /// Marks the last row: applied before every other key.
  OptionTable& early() {
    entries_.back().early = true;
    return *this;
  }
  /// Marks the last (bool) row: the bare flag "--<flag>" sets it false.
  OptionTable& negation(std::string_view flag) {
    entries_.back().negation = std::string(flag);
    return *this;
  }

  /// Every row of `inner` whose key this table does not already have,
  /// applied to the `member` it lives in.
  template <typename Inner>
  OptionTable& nest(const OptionTable<Inner>& inner, Inner Owner::*member) {
    for (std::size_t i = 0; i < inner.entries().size(); ++i) {
      if (find(inner.entries()[i].key) != npos) continue;
      add(inner.entries()[i],
          [set = inner.rows_[i].set, member](Owner& owner, std::string_view k,
                                             std::string_view value) {
            return set(owner.*member, k, value);
          },
          [show = inner.rows_[i].show, member](const Owner& owner) {
            return show(owner.*member);
          });
    }
    return *this;
  }

  Status set(Owner& owner, std::string_view key,
             std::string_view value) const {
    const std::size_t row = find(key);
    if (row == npos) return unknown(key);
    return rows_[row].set(owner, entries_[row].key, trim(value));
  }

  /// The current value of `key`'s field, as set() would read it back.
  std::string show(const Owner& owner, std::string_view key) const {
    const std::size_t row = find(key);
    return row == npos ? std::string() : rows_[row].show(owner);
  }

  Result<Owner> from_args(int argc, char** argv) const {
    Owner owner;
    KeyValuePairs pairs;
    bool help = false;
    if (Status status = scan_args(argc, argv, pairs, help); !status.is_ok())
      return status;
    if (help) {
      owner.show_help = true;
      return owner;  // the caller prints help(); nothing else matters
    }
    return applied(std::move(owner), pairs);
  }

  Result<Owner> from_file(const std::string& path, const Owner& base) const {
    KeyValuePairs pairs;
    if (Status status = read_options_file(path, pairs); !status.is_ok())
      return status;
    return applied(base, pairs);
  }

  std::string help() const {
    const Owner defaults{};
    std::vector<std::string> shown;
    for (const Row& row : rows_) shown.push_back(row.show(defaults));
    return help_text(shown);
  }

 private:
  template <typename>
  friend class OptionTable;

  struct Row {
    std::function<Status(Owner&, std::string_view key,
                         std::string_view value)>
        set;
    std::function<std::string(const Owner&)> show;
  };

  OptionTable& add(Entry entry, decltype(Row::set) set,
                   decltype(Row::show) show) {
    entries_.push_back(std::move(entry));
    rows_.push_back({std::move(set), std::move(show)});
    return *this;
  }

  Result<Owner> applied(Owner owner, const KeyValuePairs& pairs) const {
    for (const auto& [key, value] : in_apply_order(pairs)) {
      if (Status status = set(owner, key, value); !status.is_ok())
        return status;
    }
    if (Status status = owner.validate(); !status.is_ok()) return status;
    return owner;
  }

  std::vector<Row> rows_;  ///< parallel to entries_
};

}  // namespace gosh::api
