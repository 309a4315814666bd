#include "exp/json_row.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

namespace cebinae::exp {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// JSON has no infinity: a non-finite double is written as null and read
// back as NaN, so a row holds it as NaN from the start.
double finite_or_nan(double v) { return std::isfinite(v) ? v : kNaN; }

template <class... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};
template <class... Fs>
Overloaded(Fs...) -> Overloaded<Fs...>;

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

// %.17g round-trips every finite double; NaN is written as null.
void append_number(std::string& out, double v) {
  if (std::isnan(v)) {
    out += "null";
    return;
  }
  char buf[32];
  out.append(buf, static_cast<std::size_t>(std::snprintf(buf, sizeof(buf), "%.17g", v)));
}

void append_value(std::string& out, const JsonObject::Value& value) {
  std::visit(Overloaded{
                 [&](double v) { append_number(out, v); },
                 [&](std::uint64_t v) { out += std::to_string(v); },
                 [&](const std::string& v) { append_escaped(out, v); },
                 [&](const std::vector<double>& v) {
                   out += '[';
                   for (std::size_t i = 0; i < v.size(); ++i) {
                     if (i) out += ',';
                     append_number(out, v[i]);
                   }
                   out += ']';
                 },
                 [&](const std::shared_ptr<const JsonObject>& v) { out += v->str(); },
                 [&](const std::shared_ptr<const std::vector<JsonObject>>& v) {
                   out += '[';
                   for (std::size_t i = 0; i < v->size(); ++i) {
                     if (i) out += ',';
                     out += (*v)[i].str();
                   }
                   out += ']';
                 },
             },
             value);
}

using Parse = JsonObject::Parse;
using Number = std::variant<double, std::uint64_t>;

// Recursive descent over one line. Each step consumes one value and returns
// kOk, kTruncated when the line ends inside the value, or kMalformed at the
// first byte the value cannot start or continue with.
class Reader {
 public:
  explicit Reader(std::string_view s) : s_(s) {}

  Parse row(JsonObject& out) {
    if (Parse p = expect('{'); p != Parse::kOk) return p;
    if (Parse p = object(out); p != Parse::kOk) return p;
    skip_blanks();
    return pos_ == s_.size() ? Parse::kOk : Parse::kMalformed;
  }

 private:
  void skip_blanks() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t')) ++pos_;
  }

  // The next non-blank byte, left unconsumed.
  Parse peek(char& c) {
    skip_blanks();
    if (pos_ == s_.size()) return Parse::kTruncated;
    c = s_[pos_];
    return Parse::kOk;
  }

  Parse expect(char want) {
    char c;
    if (Parse p = peek(c); p != Parse::kOk) return p;
    if (c != want) return Parse::kMalformed;
    ++pos_;
    return Parse::kOk;
  }

  Parse literal(std::string_view word) {
    const std::string_view have = s_.substr(pos_, word.size());
    if (!word.starts_with(have)) return Parse::kMalformed;
    pos_ += have.size();
    return have.size() == word.size() ? Parse::kOk : Parse::kTruncated;
  }

  // After '{': fields up to and including the closing '}'.
  Parse object(JsonObject& out) {
    char c;
    if (Parse p = peek(c); p != Parse::kOk) return p;
    if (c == '}') {
      ++pos_;
      return Parse::kOk;
    }
    for (;;) {
      std::string key;
      if (Parse p = expect('"'); p != Parse::kOk) return p;
      if (Parse p = string(key); p != Parse::kOk) return p;
      if (Parse p = expect(':'); p != Parse::kOk) return p;
      if (Parse p = value(key, out); p != Parse::kOk) return p;
      if (Parse p = peek(c); p != Parse::kOk) return p;
      ++pos_;
      if (c == '}') return Parse::kOk;
      if (c != ',') return Parse::kMalformed;
    }
  }

  Parse value(std::string_view key, JsonObject& out) {
    char c;
    if (Parse p = peek(c); p != Parse::kOk) return p;
    Parse p;
    if (c == '"') {
      ++pos_;
      std::string s;
      p = string(s);
      out.set(key, s);
    } else if (c == '[') {
      ++pos_;
      if (Parse q = peek(c); q != Parse::kOk) return q;
      if (c == '{') {
        std::vector<JsonObject> v;
        p = list(v);
        out.set(key, std::move(v));
      } else {
        std::vector<double> v;
        p = array(v);
        out.set(key, std::move(v));
      }
    } else if (c == '{') {
      ++pos_;
      JsonObject nested;
      p = object(nested);
      out.set(key, nested);
    } else if (c == 'n') {
      p = literal("null");
      out.set(key, kNaN);
    } else {
      Number n;
      p = number(n);
      std::visit([&](auto v) { out.set(key, v); }, n);
    }
    return p;
  }

  // After '"': the characters up to and including the closing quote.
  Parse string(std::string& out) {
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return Parse::kOk;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ == s_.size()) return Parse::kTruncated;
      switch (s_[pos_++]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          // str() writes the other control bytes as \u00XX. Only ASCII
          // code units are read back, as that byte.
          const std::string_view hex = s_.substr(pos_, 4);
          unsigned code = 0;
          const char* end = std::from_chars(hex.data(), hex.data() + hex.size(), code, 16).ptr;
          if (end != hex.data() + hex.size()) return Parse::kMalformed;
          if (hex.size() < 4) return Parse::kTruncated;
          if (code >= 0x80) return Parse::kMalformed;
          out += static_cast<char>(code);
          pos_ += 4;
          break;
        }
        default:
          return Parse::kMalformed;
      }
    }
    return Parse::kTruncated;
  }

  // After '[': numbers or nulls (read as NaN) up to and including ']'.
  Parse array(std::vector<double>& out) {
    char c;
    if (Parse p = peek(c); p != Parse::kOk) return p;
    if (c == ']') {
      ++pos_;
      return Parse::kOk;
    }
    for (;;) {
      if (Parse p = peek(c); p != Parse::kOk) return p;
      double v = kNaN;
      if (c == 'n') {
        if (Parse p = literal("null"); p != Parse::kOk) return p;
      } else {
        Number n;
        if (Parse p = number(n); p != Parse::kOk) return p;
        v = std::visit([](auto x) { return static_cast<double>(x); }, n);
      }
      out.push_back(v);
      if (Parse p = peek(c); p != Parse::kOk) return p;
      ++pos_;
      if (c == ']') return Parse::kOk;
      if (c != ',') return Parse::kMalformed;
    }
  }

  // After '[', at its first '{': objects up to and including ']'.
  Parse list(std::vector<JsonObject>& out) {
    for (;;) {
      if (Parse p = expect('{'); p != Parse::kOk) return p;
      JsonObject element;
      if (Parse p = object(element); p != Parse::kOk) return p;
      out.push_back(std::move(element));
      char c;
      if (Parse p = peek(c); p != Parse::kOk) return p;
      ++pos_;
      if (c == ']') return Parse::kOk;
      if (c != ',') return Parse::kMalformed;
    }
  }

  // A token is an integer when it is a uint64 that prints back as the same
  // token: seeds above 2^53 stay exact. Anything else, a negative integer
  // or "-0" included, is a double.
  Parse number(Number& out) {
    const std::size_t begin = pos_;
    while (pos_ < s_.size() && std::string_view("0123456789+-.eE").find(s_[pos_]) !=
                                   std::string_view::npos) {
      ++pos_;
    }
    // A row ends with '}', so a line that ends in a number was cut in it.
    if (pos_ == s_.size()) return Parse::kTruncated;
    const std::string_view token = s_.substr(begin, pos_ - begin);
    const char* first = token.data();
    const char* last = first + token.size();
    std::uint64_t u = 0;
    if (const auto r = std::from_chars(first, last, u);
        r.ec == std::errc() && r.ptr == last && std::to_string(u) == token) {
      out = u;
      return Parse::kOk;
    }
    double d = 0.0;
    if (const auto r = std::from_chars(first, last, d); r.ec == std::errc() && r.ptr == last) {
      out = d;
      return Parse::kOk;
    }
    return Parse::kMalformed;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonObject& JsonObject::set(std::string_view key, double v) {
  fields_.emplace_back(key, Value(std::in_place_type<double>, finite_or_nan(v)));
  return *this;
}

JsonObject& JsonObject::set(std::string_view key, std::uint64_t v) {
  fields_.emplace_back(key, Value(std::in_place_type<std::uint64_t>, v));
  return *this;
}

JsonObject& JsonObject::set(std::string_view key, std::string_view v) {
  fields_.emplace_back(key, Value(std::in_place_type<std::string>, v));
  return *this;
}

JsonObject& JsonObject::set(std::string_view key, std::vector<double> v) {
  for (double& x : v) x = finite_or_nan(x);
  fields_.emplace_back(key, Value(std::in_place_type<std::vector<double>>, std::move(v)));
  return *this;
}

JsonObject& JsonObject::set(std::string_view key, const JsonObject& v) {
  fields_.emplace_back(key, Value(std::in_place_type<std::shared_ptr<const JsonObject>>,
                                  std::make_shared<const JsonObject>(v)));
  return *this;
}

JsonObject& JsonObject::set(std::string_view key, std::vector<JsonObject> v) {
  using List = std::vector<JsonObject>;
  fields_.emplace_back(key, Value(std::in_place_type<std::shared_ptr<const List>>,
                                  std::make_shared<const List>(std::move(v))));
  return *this;
}

JsonObject& JsonObject::append(const JsonObject& other) {
  fields_.insert(fields_.end(), other.fields_.begin(), other.fields_.end());
  return *this;
}

std::string JsonObject::str() const {
  std::string out = "{";
  for (const auto& [key, value] : fields_) {
    if (out.size() > 1) out += ',';
    append_escaped(out, key);
    out += ':';
    append_value(out, value);
  }
  out += '}';
  return out;
}

std::string JsonObject::str(const Value& v) {
  std::string out;
  append_value(out, v);
  return out;
}

const JsonObject::Value* JsonObject::find(std::string_view key) const {
  for (const auto& [k, v] : fields_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<double> JsonObject::number(const Value& v) {
  if (const double* d = std::get_if<double>(&v)) return *d;
  if (const std::uint64_t* u = std::get_if<std::uint64_t>(&v)) return static_cast<double>(*u);
  return std::nullopt;
}

double JsonObject::num(std::string_view key) const {
  const Value* v = find(key);
  return v != nullptr ? number(*v).value_or(kNaN) : kNaN;
}

std::uint64_t JsonObject::u64(std::string_view key, std::uint64_t dflt) const {
  const Value* v = find(key);
  if (const std::uint64_t* u = std::get_if<std::uint64_t>(v)) return *u;
  if (const double* d = std::get_if<double>(v)) {
    return *d >= 0.0 && *d < 0x1p64 ? static_cast<std::uint64_t>(*d) : dflt;
  }
  return dflt;
}

std::string_view JsonObject::text(std::string_view key) const {
  const std::string* s = std::get_if<std::string>(find(key));
  return s != nullptr ? std::string_view(*s) : std::string_view();
}

const std::vector<double>& JsonObject::arr(std::string_view key) const {
  static const std::vector<double> kEmpty;
  const std::vector<double>* v = std::get_if<std::vector<double>>(find(key));
  return v != nullptr ? *v : kEmpty;
}

const JsonObject* JsonObject::obj(std::string_view key) const {
  const auto* p = std::get_if<std::shared_ptr<const JsonObject>>(find(key));
  return p != nullptr ? p->get() : nullptr;
}

const std::vector<JsonObject>& JsonObject::list(std::string_view key) const {
  static const std::vector<JsonObject> kEmpty;
  const auto* p = std::get_if<std::shared_ptr<const std::vector<JsonObject>>>(find(key));
  return p != nullptr ? **p : kEmpty;
}

JsonObject::Parse JsonObject::parse(std::string_view line, JsonObject& out) {
  JsonObject row;
  const Parse p = Reader(line).row(row);
  if (p == Parse::kOk) out = std::move(row);
  return p;
}

std::vector<double> series_of(const std::vector<JsonObject>& rows, std::string_view key) {
  std::vector<double> out;
  out.reserve(rows.size());
  for (const JsonObject& row : rows) out.push_back(row.num(key));
  return out;
}

}  // namespace cebinae::exp
