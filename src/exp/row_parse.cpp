#include "exp/row_parse.hpp"

#include <cmath>
#include <cstdlib>

namespace cebinae::exp {

namespace {

// Cursor over one line; every helper returns false on malformed input.
struct Cursor {
  std::string_view s;
  std::size_t pos = 0;

  [[nodiscard]] bool done() const { return pos >= s.size(); }
  [[nodiscard]] char peek() const { return s[pos]; }
  bool expect(char c) {
    if (done() || s[pos] != c) return false;
    ++pos;
    return true;
  }
  void skip_ws() {
    while (!done() && (s[pos] == ' ' || s[pos] == '\t')) ++pos;
  }
};

bool parse_string(Cursor& c, std::string& out) {
  if (!c.expect('"')) return false;
  out.clear();
  while (!c.done()) {
    const char ch = c.s[c.pos++];
    if (ch == '"') return true;
    if (ch == '\\') {
      if (c.done()) return false;
      const char esc = c.s[c.pos++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          // JsonObject only emits \u00XX for control bytes; decode the low
          // byte and ignore the (always-zero) high byte.
          if (c.pos + 4 > c.s.size()) return false;
          const std::string hex(c.s.substr(c.pos, 4));
          c.pos += 4;
          out += static_cast<char>(std::strtoul(hex.c_str(), nullptr, 16));
          break;
        }
        default:
          return false;
      }
    } else {
      out += ch;
    }
  }
  return false;  // ran off the end inside the string
}

bool parse_number(Cursor& c, JsonField& out) {
  const char* begin = c.s.data() + c.pos;
  char* end = nullptr;
  out.num = std::strtod(begin, &end);
  if (end == begin) return false;
  // Bare unsigned integer tokens (seeds, job indexes) are kept exactly:
  // %.17g round-trips doubles but a 64-bit seed printed as an integer would
  // lose its low bits through a double.
  out.is_uint = true;
  for (const char* p = begin; p != end; ++p) {
    if (*p < '0' || *p > '9') {
      out.is_uint = false;
      break;
    }
  }
  if (out.is_uint) out.uint = std::strtoull(begin, nullptr, 10);
  c.pos += static_cast<std::size_t>(end - begin);
  return c.pos <= c.s.size();
}

bool parse_literal(Cursor& c, std::string_view lit) {
  if (c.s.substr(c.pos, lit.size()) != lit) return false;
  c.pos += lit.size();
  return true;
}

// Raw text of a balanced nested object, stored verbatim (resume never needs
// to look inside "params": the job list is rebuilt from the spec).
bool parse_raw_object(Cursor& c, std::string& out) {
  const std::size_t start = c.pos;
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  while (!c.done()) {
    const char ch = c.s[c.pos++];
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (ch == '\\') {
        escaped = true;
      } else if (ch == '"') {
        in_string = false;
      }
      continue;
    }
    if (ch == '"') {
      in_string = true;
    } else if (ch == '{') {
      ++depth;
    } else if (ch == '}') {
      if (--depth == 0) {
        out.assign(c.s.substr(start, c.pos - start));
        return true;
      }
    }
  }
  return false;
}

bool parse_array(Cursor& c, std::vector<double>& out) {
  if (!c.expect('[')) return false;
  out.clear();
  c.skip_ws();
  if (!c.done() && c.peek() == ']') {
    ++c.pos;
    return true;
  }
  for (;;) {
    c.skip_ws();
    if (c.done()) return false;
    if (c.peek() == 'n') {
      if (!parse_literal(c, "null")) return false;
      out.push_back(std::nan(""));
    } else {
      JsonField elem;
      if (!parse_number(c, elem)) return false;
      out.push_back(elem.num);
    }
    c.skip_ws();
    if (c.done()) return false;
    if (c.peek() == ']') {
      ++c.pos;
      return true;
    }
    if (!c.expect(',')) return false;
  }
}

bool parse_value(Cursor& c, JsonField& out) {
  c.skip_ws();
  if (c.done()) return false;
  switch (c.peek()) {
    case '"':
      out.kind = JsonField::Kind::kString;
      return parse_string(c, out.str);
    case '[':
      out.kind = JsonField::Kind::kArray;
      return parse_array(c, out.arr);
    case '{':
      out.kind = JsonField::Kind::kObject;
      return parse_raw_object(c, out.str);
    case 't':
      out.kind = JsonField::Kind::kBool;
      out.b = true;
      return parse_literal(c, "true");
    case 'f':
      out.kind = JsonField::Kind::kBool;
      out.b = false;
      return parse_literal(c, "false");
    case 'n':
      out.kind = JsonField::Kind::kNull;
      out.num = std::nan("");
      return parse_literal(c, "null");
    default:
      out.kind = JsonField::Kind::kNumber;
      return parse_number(c, out);
  }
}

}  // namespace

const JsonField* ParsedRow::find(std::string_view name) const {
  for (const auto& [k, v] : fields) {
    if (k == name) return &v;
  }
  return nullptr;
}

double ParsedRow::num(std::string_view name, double dflt) const {
  const JsonField* f = find(name);
  if (f == nullptr) return dflt;
  const bool numeric = f->kind == JsonField::Kind::kNumber || f->kind == JsonField::Kind::kNull;
  return numeric ? f->num : dflt;
}

std::uint64_t ParsedRow::u64(std::string_view name, std::uint64_t dflt) const {
  const JsonField* f = find(name);
  if (f == nullptr || f->kind != JsonField::Kind::kNumber) return dflt;
  return f->is_uint ? f->uint : static_cast<std::uint64_t>(f->num);
}

std::string ParsedRow::str(std::string_view name) const {
  const JsonField* f = find(name);
  return f != nullptr && f->kind == JsonField::Kind::kString ? f->str : std::string();
}

const std::vector<double>* ParsedRow::arr(std::string_view name) const {
  const JsonField* f = find(name);
  return f != nullptr && f->kind == JsonField::Kind::kArray ? &f->arr : nullptr;
}

std::optional<ParsedRow> parse_row(std::string_view line) {
  Cursor c{line};
  c.skip_ws();
  if (!c.expect('{')) return std::nullopt;
  ParsedRow row;
  c.skip_ws();
  if (!c.done() && c.peek() == '}') {
    ++c.pos;
  } else {
    for (;;) {
      c.skip_ws();
      std::string key;
      if (!parse_string(c, key)) return std::nullopt;
      c.skip_ws();
      if (!c.expect(':')) return std::nullopt;
      JsonField value;
      if (!parse_value(c, value)) return std::nullopt;
      row.fields.emplace_back(std::move(key), std::move(value));
      c.skip_ws();
      if (c.done()) return std::nullopt;
      if (c.peek() == '}') {
        ++c.pos;
        break;
      }
      if (!c.expect(',')) return std::nullopt;
    }
  }
  c.skip_ws();
  if (!c.done()) return std::nullopt;  // trailing garbage => not one row
  return row;
}

}  // namespace cebinae::exp
