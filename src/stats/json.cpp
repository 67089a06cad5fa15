#include "stats/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <system_error>
#include <vector>

#include "util/check.hpp"

namespace vexsim {

namespace {

// Containers grow by 4 members up to this size and double beyond it. A
// sweep point's objects hold 4 to 11 members; doubling from 1 would take up
// to five allocations per object and leave up to 5 of 16 slots unused
// (3 MB on a 2560-point trajectory). Large arrays still grow geometrically.
constexpr std::size_t kSmallContainer = 16;

// write_json_file hands the text to the stream in pieces of about this size.
constexpr std::size_t kFlushBytes = std::size_t{32} * 1024;

// Appends the shortest spelling that parses back to exactly `v`: the fewest
// significant digits P for which printf's "%.Pg" round-trips, printed the
// way "%.Pg" prints it. std::to_chars is locale-independent, its shortest
// scientific form gives P directly, and its general form at a precision is
// specified as "%.Pg". At an exact power of two the rounding interval is
// lopsided, so the correctly rounded P-digit value can fall outside it: the
// loop then moves to P+1, as a search upwards from one digit would. JSON has
// no nan/inf literal, so non-finite values emit `null` — a bare `nan` token
// would make the whole document unparseable for downstream consumers.
void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  const char* end =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::scientific)
          .ptr;
  int precision = 0;
  for (const char* c = buf; c != end && *c != 'e'; ++c)
    precision += (*c >= '0' && *c <= '9') ? 1 : 0;
  for (;; ++precision) {
    end = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                        precision)
              .ptr;
    double parsed = 0.0;
    const bool scanned = std::from_chars(buf, end, parsed).ec == std::errc();
    if ((scanned && parsed == v) || precision >= 17) break;
  }
  out.append(buf, static_cast<std::size_t>(end - buf));
}

template <typename Int>
void append_int(std::string& out, Int v) {
  char buf[24];
  const char* end = std::to_chars(buf, buf + sizeof buf, v).ptr;
  out.append(buf, static_cast<std::size_t>(end - buf));
}

// Appends `s` escaped for use inside a JSON string literal (no surrounding
// quotes). Runs of plain characters are copied in one append.
void append_escaped(std::string& out, std::string_view s) {
  std::size_t plain = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      }
    }
  }
  out.append(s.data() + plain, s.size() - plain);
}

}  // namespace

// Strict recursive-descent parser over the subset dump() emits. Every
// deviation — bad escape, overflowing number, duplicate key, trailing
// input — is a CheckError naming the byte offset, so a truncated or
// hand-mangled cache record is reported (and treated by callers) as
// corruption rather than silently misread. A friend of Json so that it can
// hand each container its members directly.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text)
      : begin_(text.data()), p_(begin_), end_(begin_ + text.size()) {}

  Json parse_document() {
    skip_ws();
    Json v = parse_value();
    skip_ws();
    VEXSIM_CHECK_MSG(p_ == end_, "JSON parse error at offset "
                                     << offset()
                                     << ": trailing characters after value");
    return v;
  }

 private:
  [[nodiscard]] std::size_t offset() const {
    return static_cast<std::size_t>(p_ - begin_);
  }

  [[noreturn]] void fail(const std::string& why) const {
    VEXSIM_CHECK_MSG(false,
                     "JSON parse error at offset " << offset() << ": " << why);
    std::abort();  // unreachable: the check above throws
  }

  void skip_ws() {
    while (p_ < end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r'))
      ++p_;
  }

  char peek() const {
    if (p_ >= end_) fail("unexpected end of input");
    return *p_;
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++p_;
  }

  bool try_literal(std::string_view token) {
    if (static_cast<std::size_t>(end_ - p_) < token.size() ||
        std::memcmp(p_, token.data(), token.size()) != 0)
      return false;
    p_ += token.size();
    return true;
  }

  Json parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (try_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (try_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (try_literal("null")) return Json();
        fail("invalid literal");
      default: return parse_number();
    }
  }

  // Objects and arrays collect their members on members_, shared by every
  // nesting level, and move them into a vector of the exact size when they
  // close: one allocation per container instead of one per doubling.
  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++p_;
      return obj;
    }
    const std::size_t first = members_.size();
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      for (std::size_t i = first; i < members_.size(); ++i)
        if (members_[i].first == key) fail("duplicate key \"" + key + "\"");
      skip_ws();
      expect(':');
      skip_ws();
      Json value = parse_value();
      members_.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (peek() == ',') {
        ++p_;
        continue;
      }
      expect('}');
      take_members(obj, first);
      return obj;
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++p_;
      return arr;
    }
    const std::size_t first = members_.size();
    for (;;) {
      skip_ws();
      Json value = parse_value();
      members_.emplace_back(std::string(), std::move(value));
      skip_ws();
      if (peek() == ',') {
        ++p_;
        continue;
      }
      expect(']');
      take_members(arr, first);
      return arr;
    }
  }

  void take_members(Json& container, std::size_t first) {
    const auto begin = members_.begin() + static_cast<std::ptrdiff_t>(first);
    container.children_.assign(std::make_move_iterator(begin),
                               std::make_move_iterator(members_.end()));
    members_.erase(begin, members_.end());
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      // Copy the run of plain characters up to the next quote, backslash or
      // control character in one append.
      const char* run = p_;
      while (p_ < end_ && *p_ != '"' && *p_ != '\\' &&
             static_cast<unsigned char>(*p_) >= 0x20)
        ++p_;
      out.append(run, p_);
      if (p_ >= end_) fail("unterminated string");
      const char c = *p_++;
      if (c == '"') return out;
      if (c != '\\') fail("unescaped control character in string");
      if (p_ >= end_) fail("unterminated escape");
      const char esc = *p_++;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_unicode_escape(out); break;
        default: fail("invalid escape");
      }
    }
  }

  void append_unicode_escape(std::string& out) {
    if (end_ - p_ < 4) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = *p_++;
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid hex digit in \\u escape");
    }
    // The writer only emits \u00xx for control characters; surrogate pairs
    // are outside the supported subset.
    if (code >= 0xD800 && code <= 0xDFFF) fail("surrogate \\u escape");
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  // Numbers are converted in place with std::from_chars. A token with a
  // fraction or exponent is a double; otherwise a leading '-' makes it a
  // signed integer and anything else an unsigned one.
  Json parse_number() {
    const char* start = p_;
    bool floating = false;
    while (p_ < end_ && ((*p_ >= '0' && *p_ <= '9') || *p_ == '-' ||
                         *p_ == '+' || *p_ == '.' || *p_ == 'e' || *p_ == 'E')) {
      floating |= (*p_ == '.' || *p_ == 'e' || *p_ == 'E');
      ++p_;
    }
    const std::string_view token(start, static_cast<std::size_t>(p_ - start));
    if (token.empty()) fail("expected a value");
    if (floating) {
      double v = 0.0;
      const auto [end, ec] = std::from_chars(start, p_, v);
      if (end != p_ || ec == std::errc::invalid_argument)
        fail("malformed number '" + std::string(token) + "'");
      // from_chars reports overflow and underflow to zero alike; strtod
      // tells them apart. Only overflow is malformed (subnormals such as
      // dump()'s 5e-324 parse without error).
      if (ec == std::errc::result_out_of_range) {
        v = std::strtod(std::string(token).c_str(), nullptr);
        if (std::isinf(v))
          fail("out-of-range number '" + std::string(token) + "'");
      }
      return Json(v);
    }
    if (token[0] == '-') {
      std::int64_t v = 0;
      const auto [end, ec] = std::from_chars(start, p_, v);
      if (end != p_ || ec != std::errc())
        fail("malformed or out-of-range integer '" + std::string(token) + "'");
      return Json(v);
    }
    std::uint64_t v = 0;
    const auto [end, ec] = std::from_chars(start, p_, v);
    if (end != p_ || ec != std::errc())
      fail("malformed or out-of-range integer '" + std::string(token) + "'");
    return Json(v);
  }

  const char* begin_;
  const char* p_;
  const char* end_;
  std::vector<std::pair<std::string, Json>> members_;
};

Json Json::parse(std::string_view text) {
  return JsonParser(text).parse_document();
}

bool Json::as_bool() const {
  VEXSIM_CHECK_MSG(kind_ == Kind::kBool, "as_bool() on non-bool JSON value");
  return bool_;
}

std::int64_t Json::as_int64() const {
  if (kind_ == Kind::kInt) return int_;
  if (kind_ == Kind::kUint) {
    VEXSIM_CHECK_MSG(uint_ <= static_cast<std::uint64_t>(INT64_MAX),
                     "as_int64() overflow on " << uint_);
    return static_cast<std::int64_t>(uint_);
  }
  VEXSIM_CHECK_MSG(false, "as_int64() on non-integer JSON value");
  std::abort();  // unreachable: the check above throws
}

std::uint64_t Json::as_uint64() const {
  if (kind_ == Kind::kUint) return uint_;
  if (kind_ == Kind::kInt) {
    VEXSIM_CHECK_MSG(int_ >= 0, "as_uint64() on negative value " << int_);
    return static_cast<std::uint64_t>(int_);
  }
  VEXSIM_CHECK_MSG(false, "as_uint64() on non-integer JSON value");
  std::abort();  // unreachable: the check above throws
}

double Json::as_double() const {
  switch (kind_) {
    case Kind::kDouble: return double_;
    case Kind::kInt: return static_cast<double>(int_);
    case Kind::kUint: return static_cast<double>(uint_);
    default: break;
  }
  VEXSIM_CHECK_MSG(false, "as_double() on non-numeric JSON value");
  std::abort();  // unreachable: the check above throws
}

const std::string& Json::as_string() const {
  VEXSIM_CHECK_MSG(kind_ == Kind::kString,
                   "as_string() on non-string JSON value");
  return string_;
}

const Json* Json::find(std::string_view key) const {
  VEXSIM_CHECK_MSG(is_object(), "find() on non-object JSON value");
  for (const auto& [k, v] : children_)
    if (k == key) return &v;
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* v = find(key);
  VEXSIM_CHECK_MSG(v != nullptr, "missing JSON key \"" << key << "\"");
  return *v;
}

const Json& Json::at(std::size_t i) const {
  VEXSIM_CHECK_MSG(is_array(), "at(index) on non-array JSON value");
  VEXSIM_CHECK_MSG(i < children_.size(),
                   "JSON array index " << i << " out of range (size "
                                       << children_.size() << ")");
  return children_[i].second;
}

Json Json::object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json& Json::set(std::string_view key, Json value) {
  VEXSIM_CHECK_MSG(is_object(), "set() on non-object JSON value");
  for (auto& [k, v] : children_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  reserve_one_more();
  children_.emplace_back(key, std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  VEXSIM_CHECK_MSG(is_array(), "push() on non-array JSON value");
  reserve_one_more();
  children_.emplace_back(std::string(), std::move(value));
  return *this;
}

void Json::reserve_one_more() {
  const std::size_t n = children_.size();
  if (n == children_.capacity())
    children_.reserve(n < kSmallContainer ? n + 4 : 2 * n);
}

void Json::dump_to(std::string& out, int indent, std::ostream* sink) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kInt:
      append_int(out, int_);
      break;
    case Kind::kUint:
      append_int(out, uint_);
      break;
    case Kind::kDouble:
      append_double(out, double_);
      break;
    case Kind::kString:
      out += '"';
      append_escaped(out, string_);
      out += '"';
      break;
    case Kind::kObject:
    case Kind::kArray: {
      const bool obj = kind_ == Kind::kObject;
      if (children_.empty()) {
        out += obj ? "{}" : "[]";
        break;
      }
      out += obj ? "{\n" : "[\n";
      const auto child_pad = static_cast<std::size_t>(indent + 1) * 2;
      for (std::size_t i = 0; i < children_.size(); ++i) {
        out.append(child_pad, ' ');
        if (obj) {
          out += '"';
          append_escaped(out, children_[i].first);
          out += "\": ";
        }
        children_[i].second.dump_to(out, indent + 1, sink);
        if (i + 1 < children_.size()) out += ',';
        out += '\n';
        if (sink != nullptr && out.size() >= kFlushBytes) {
          sink->write(out.data(), static_cast<std::streamsize>(out.size()));
          out.clear();
        }
      }
      out.append(static_cast<std::size_t>(indent) * 2, ' ');
      out += obj ? '}' : ']';
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out, 0, nullptr);
  out += '\n';
  return out;
}

void write_json_file(const std::string& path, const Json& json) {
  std::ofstream os(path, std::ios::binary);
  VEXSIM_CHECK_MSG(os.good(), "cannot open " << path << " for writing");
  std::string chunk;
  json.dump_to(chunk, 0, &os);
  chunk += '\n';
  os.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
  os.flush();
  VEXSIM_CHECK_MSG(os.good(), "write to " << path << " failed");
}

}  // namespace vexsim
