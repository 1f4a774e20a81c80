#pragma once

// Minimal JSON value with dump/parse — just enough for the BENCH_*.json
// reports and their schema checker (tools/check_bench_schema), keeping the
// repo dependency-free. Objects preserve insertion order so emitted reports
// are stable and diffable.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace quake::obs {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;
  Json(bool b) : type_(Type::kBool), bool_(b) {}                    // NOLINT
  Json(double v) : type_(Type::kNumber), number_(v) {}              // NOLINT
  Json(int v) : Json(static_cast<double>(v)) {}                     // NOLINT
  Json(long v) : Json(static_cast<double>(v)) {}                    // NOLINT
  Json(long long v) : Json(static_cast<double>(v)) {}               // NOLINT
  Json(unsigned long v) : Json(static_cast<double>(v)) {}           // NOLINT
  Json(unsigned long long v) : Json(static_cast<double>(v)) {}      // NOLINT
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}  // NOLINT
  Json(const char* s) : Json(std::string(s)) {}                     // NOLINT

  static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }
  static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_number() const { return type_ == Type::kNumber; }

  [[nodiscard]] bool as_bool() const { return bool_; }
  [[nodiscard]] double as_number() const { return number_; }
  [[nodiscard]] const std::string& as_string() const { return string_; }

  // Object: appends (or overwrites) a member; returns *this for chaining.
  Json& set(std::string key, Json value);
  // Object: member lookup, nullptr when absent (or not an object).
  [[nodiscard]] const Json* find(const std::string& key) const;
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members()
      const {
    return members_;
  }

  // Array append.
  void push_back(Json value);
  [[nodiscard]] const std::vector<Json>& items() const { return items_; }

  // Pretty-printed serialization (2-space indent), trailing newline.
  [[nodiscard]] std::string dump() const;

  // Parses `text`; on failure returns false and sets `error` (if given)
  // to a message with the offending byte offset.
  static bool parse(std::string_view text, Json* out,
                    std::string* error = nullptr);

 private:
  void dump_to(std::string& out, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> items_;                              // kArray
  std::vector<std::pair<std::string, Json>> members_;    // kObject
};

}  // namespace quake::obs
