#include "common/json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace ctamem::json {

namespace {

[[noreturn]] void
typeError(const char *want, Json::Type got)
{
    static const char *const names[] = {"null",   "bool",  "number",
                                        "string", "array", "object"};
    throw JsonError(std::string("expected ") + want + ", got " +
                    names[static_cast<int>(got)]);
}

} // namespace

Json
Json::array()
{
    Json j;
    j.type_ = Type::Array;
    return j;
}

Json
Json::object()
{
    Json j;
    j.type_ = Type::Object;
    return j;
}

Json::NumKind
Json::numKind() const
{
    if (type_ != Type::Number)
        typeError("number", type_);
    return num_;
}

bool
Json::asBool() const
{
    if (type_ != Type::Bool)
        typeError("bool", type_);
    return bool_;
}

double
Json::asDouble() const
{
    if (type_ != Type::Number)
        typeError("number", type_);
    switch (num_) {
      case NumKind::Double: return dbl_;
      case NumKind::U64: return static_cast<double>(u64_);
      case NumKind::I64: return static_cast<double>(i64_);
    }
    return 0.0;
}

std::uint64_t
Json::asU64() const
{
    if (type_ != Type::Number)
        typeError("number", type_);
    switch (num_) {
      case NumKind::U64:
        return u64_;
      case NumKind::I64:
        if (i64_ < 0)
            throw JsonError("expected unsigned integer, got " +
                            std::to_string(i64_));
        return static_cast<std::uint64_t>(i64_);
      case NumKind::Double:
        if (dbl_ < 0 || dbl_ != std::floor(dbl_) || dbl_ >= 1.8e19)
            throw JsonError("expected unsigned integer, got " +
                            std::to_string(dbl_));
        return static_cast<std::uint64_t>(dbl_);
    }
    return 0;
}

std::int64_t
Json::asI64() const
{
    if (type_ != Type::Number)
        typeError("number", type_);
    switch (num_) {
      case NumKind::I64:
        return i64_;
      case NumKind::U64:
        if (u64_ > static_cast<std::uint64_t>(INT64_MAX))
            throw JsonError("integer out of int64 range");
        return static_cast<std::int64_t>(u64_);
      case NumKind::Double:
        if (dbl_ != std::floor(dbl_) || std::abs(dbl_) >= 9.2e18)
            throw JsonError("expected integer, got " +
                            std::to_string(dbl_));
        return static_cast<std::int64_t>(dbl_);
    }
    return 0;
}

const std::string &
Json::asString() const
{
    if (type_ != Type::String)
        typeError("string", type_);
    return str_;
}

Json &
Json::push(Json value)
{
    if (type_ != Type::Array)
        typeError("array", type_);
    arr_.push_back(std::move(value));
    return *this;
}

const Json::Array &
Json::items() const
{
    if (type_ != Type::Array)
        typeError("array", type_);
    return arr_;
}

Json &
Json::set(std::string key, Json value)
{
    if (type_ != Type::Object)
        typeError("object", type_);
    for (Member &member : obj_) {
        if (member.key == key) {
            member.value = std::move(value);
            return *this;
        }
    }
    obj_.push_back(Member{std::move(key), std::move(value)});
    return *this;
}

bool
Json::contains(std::string_view key) const
{
    return find(key) != nullptr;
}

const Json *
Json::find(std::string_view key) const
{
    if (type_ != Type::Object)
        typeError("object", type_);
    for (const Member &member : obj_)
        if (member.key == key)
            return &member.value;
    return nullptr;
}

const Json &
Json::at(std::string_view key) const
{
    const Json *value = find(key);
    if (!value)
        throw JsonError("missing key \"" + std::string(key) + "\"");
    return *value;
}

const Json::Object &
Json::members() const
{
    if (type_ != Type::Object)
        typeError("object", type_);
    return obj_;
}

std::size_t
Json::size() const
{
    if (type_ == Type::Array)
        return arr_.size();
    if (type_ == Type::Object)
        return obj_.size();
    return 0;
}

bool
Json::operator==(const Json &other) const
{
    if (type_ != other.type_)
        return false;
    switch (type_) {
      case Type::Null:
        return true;
      case Type::Bool:
        return bool_ == other.bool_;
      case Type::Number:
        if (num_ == NumKind::U64 && other.num_ == NumKind::U64)
            return u64_ == other.u64_;
        if (num_ == NumKind::I64 && other.num_ == NumKind::I64)
            return i64_ == other.i64_;
        return asDouble() == other.asDouble();
      case Type::String:
        return str_ == other.str_;
      case Type::Array:
        return arr_ == other.arr_;
      case Type::Object:
        if (obj_.size() != other.obj_.size())
            return false;
        for (std::size_t i = 0; i < obj_.size(); ++i) {
            if (obj_[i].key != other.obj_[i].key ||
                !(obj_[i].value == other.obj_[i].value)) {
                return false;
            }
        }
        return true;
    }
    return false;
}

// ---------------------------------------------------------------------------
// Writer

namespace {

void
writeEscaped(std::string &out, const std::string &s)
{
    out += '"';
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
writeDouble(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        out += '0'; // JSON has no inf/nan; degrade to 0
        return;
    }
    // Integral doubles keep a ".0" marker so the reader sees the
    // floating type; everything else is shortest-round-trip.
    if (v == std::floor(v) && std::abs(v) < 1e15) {
        out += std::to_string(static_cast<long long>(v));
        out += ".0";
        return;
    }
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, res.ptr);
}

} // namespace

namespace detail {

/** True when @p j prints compactly on one line. */
bool
inlineable(const Json &j)
{
    if (j.isArray()) {
        if (j.size() > 8)
            return false;
        for (const Json &e : j.items())
            if (!e.isScalar())
                return false;
        return true;
    }
    if (j.isObject()) {
        if (j.size() > 4)
            return false;
        for (const Json::Member &m : j.members())
            if (!m.value.isScalar())
                return false;
        return true;
    }
    return true;
}

void
writeValue(std::string &out, const Json &j, int depth)
{
    const auto indent = [&out](int d) {
        out.append(static_cast<std::size_t>(d) * 2, ' ');
    };
    switch (j.type()) {
      case Json::Type::Null:
        out += "null";
        return;
      case Json::Type::Bool:
        out += j.asBool() ? "true" : "false";
        return;
      case Json::Type::Number:
        switch (j.numKind()) {
          case Json::NumKind::U64:
            out += std::to_string(j.asU64());
            return;
          case Json::NumKind::I64:
            out += std::to_string(j.asI64());
            return;
          case Json::NumKind::Double:
            writeDouble(out, j.asDouble());
            return;
        }
        return;
      case Json::Type::String:
        writeEscaped(out, j.asString());
        return;
      case Json::Type::Array: {
        if (j.size() == 0) {
            out += "[]";
            return;
        }
        if (inlineable(j)) {
            out += '[';
            bool first = true;
            for (const Json &e : j.items()) {
                if (!first)
                    out += ", ";
                first = false;
                writeValue(out, e, depth);
            }
            out += ']';
            return;
        }
        out += "[\n";
        bool first = true;
        for (const Json &e : j.items()) {
            if (!first)
                out += ",\n";
            first = false;
            indent(depth + 1);
            writeValue(out, e, depth + 1);
        }
        out += '\n';
        indent(depth);
        out += ']';
        return;
      }
      case Json::Type::Object: {
        if (j.size() == 0) {
            out += "{}";
            return;
        }
        if (inlineable(j)) {
            out += '{';
            bool first = true;
            for (const Json::Member &m : j.members()) {
                if (!first)
                    out += ", ";
                first = false;
                writeEscaped(out, m.key);
                out += ": ";
                writeValue(out, m.value, depth);
            }
            out += '}';
            return;
        }
        out += "{\n";
        bool first = true;
        for (const Json::Member &m : j.members()) {
            if (!first)
                out += ",\n";
            first = false;
            indent(depth + 1);
            writeEscaped(out, m.key);
            out += ": ";
            writeValue(out, m.value, depth + 1);
        }
        out += '\n';
        indent(depth);
        out += '}';
        return;
      }
    }
}

} // namespace detail

std::string
Json::dump() const
{
    std::string out;
    detail::writeValue(out, *this, 0);
    return out;
}

void
Json::write(std::ostream &os) const
{
    os << dump();
}

// ---------------------------------------------------------------------------
// Parser

namespace {

class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    Json
    parseDocument()
    {
        Json value = parseValue(0);
        skipWs();
        if (pos_ != text_.size())
            fail("trailing content after the JSON value");
        return value;
    }

  private:
    static constexpr int maxDepth = 64;

    [[noreturn]] void
    fail(const std::string &message) const
    {
        throw JsonError("line " + std::to_string(line_) + " col " +
                        std::to_string(col()) + ": " + message);
    }

    std::size_t
    col() const
    {
        return pos_ - lineStart_ + 1;
    }

    bool
    eof() const
    {
        return pos_ >= text_.size();
    }

    char
    peek() const
    {
        return eof() ? '\0' : text_[pos_];
    }

    char
    next()
    {
        if (eof())
            fail("unexpected end of input");
        const char c = text_[pos_++];
        if (c == '\n') {
            ++line_;
            lineStart_ = pos_;
        }
        return c;
    }

    void
    skipWs()
    {
        while (!eof()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\r' && c != '\n')
                return;
            next();
        }
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        next();
    }

    bool
    consumeWord(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        for (std::size_t i = 0; i < word.size(); ++i)
            next();
        return true;
    }

    Json
    parseValue(int depth)
    {
        if (depth > maxDepth)
            fail("nesting too deep");
        skipWs();
        if (eof())
            fail("unexpected end of input");
        const char c = peek();
        switch (c) {
          case '{': return parseObject(depth);
          case '[': return parseArray(depth);
          case '"': return Json(parseString());
          case 't':
            if (consumeWord("true"))
                return Json(true);
            fail("invalid literal");
          case 'f':
            if (consumeWord("false"))
                return Json(false);
            fail("invalid literal");
          case 'n':
            if (consumeWord("null"))
                return Json(nullptr);
            fail("invalid literal");
          default:
            if (c == '-' || (c >= '0' && c <= '9'))
                return parseNumber();
            fail(std::string("unexpected character '") + c + "'");
        }
    }

    Json
    parseObject(int depth)
    {
        expect('{');
        Json obj = Json::object();
        skipWs();
        if (peek() == '}') {
            next();
            return obj;
        }
        while (true) {
            skipWs();
            if (peek() != '"')
                fail("expected a string object key");
            std::string key = parseString();
            if (obj.contains(key))
                fail("duplicate object key \"" + key + "\"");
            skipWs();
            expect(':');
            obj.set(std::move(key), parseValue(depth + 1));
            skipWs();
            const char c = next();
            if (c == '}')
                return obj;
            if (c != ',')
                fail("expected ',' or '}' in object");
        }
    }

    Json
    parseArray(int depth)
    {
        expect('[');
        Json arr = Json::array();
        skipWs();
        if (peek() == ']') {
            next();
            return arr;
        }
        while (true) {
            arr.push(parseValue(depth + 1));
            skipWs();
            const char c = next();
            if (c == ']')
                return arr;
            if (c != ',')
                fail("expected ',' or ']' in array");
        }
    }

    void
    appendUtf8(std::string &out, std::uint32_t cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xc0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xe0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
            out += static_cast<char>(0xf0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        }
    }

    std::uint32_t
    parseHex4()
    {
        std::uint32_t value = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = next();
            value <<= 4;
            if (c >= '0' && c <= '9')
                value |= static_cast<std::uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                value |= static_cast<std::uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                value |= static_cast<std::uint32_t>(c - 'A' + 10);
            else
                fail("invalid \\u escape");
        }
        return value;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            const char c = next();
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            const char esc = next();
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                std::uint32_t cp = parseHex4();
                if (cp >= 0xd800 && cp <= 0xdbff) {
                    // Surrogate pair.
                    if (next() != '\\' || next() != 'u')
                        fail("unpaired surrogate");
                    const std::uint32_t low = parseHex4();
                    if (low < 0xdc00 || low > 0xdfff)
                        fail("invalid low surrogate");
                    cp = 0x10000 + ((cp - 0xd800) << 10) +
                         (low - 0xdc00);
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                fail("invalid escape sequence");
            }
        }
    }

    Json
    parseNumber()
    {
        const std::size_t start = pos_;
        bool isDouble = false;
        if (peek() == '-')
            next();
        if (peek() == '0') {
            next();
        } else if (peek() >= '1' && peek() <= '9') {
            while (peek() >= '0' && peek() <= '9')
                next();
        } else {
            fail("invalid number");
        }
        if (peek() == '.') {
            isDouble = true;
            next();
            if (!(peek() >= '0' && peek() <= '9'))
                fail("invalid number: digits must follow '.'");
            while (peek() >= '0' && peek() <= '9')
                next();
        }
        if (peek() == 'e' || peek() == 'E') {
            isDouble = true;
            next();
            if (peek() == '+' || peek() == '-')
                next();
            if (!(peek() >= '0' && peek() <= '9'))
                fail("invalid number: empty exponent");
            while (peek() >= '0' && peek() <= '9')
                next();
        }
        const std::string_view token =
            text_.substr(start, pos_ - start);
        const char *first = token.data();
        const char *last = token.data() + token.size();
        if (!isDouble) {
            if (token[0] == '-') {
                std::int64_t value = 0;
                const auto res = std::from_chars(first, last, value);
                if (res.ec == std::errc() && res.ptr == last)
                    return Json(value);
            } else {
                std::uint64_t value = 0;
                const auto res = std::from_chars(first, last, value);
                if (res.ec == std::errc() && res.ptr == last)
                    return Json(value);
            }
            // Out of 64-bit range: fall back to double.
        }
        double value = 0.0;
        const auto res = std::from_chars(first, last, value);
        if (res.ec != std::errc() || res.ptr != last)
            fail("invalid number");
        return Json(value);
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    std::size_t line_ = 1;
    std::size_t lineStart_ = 0;
};

} // namespace

Json
Json::parse(std::string_view text)
{
    return Parser(text).parseDocument();
}

Json
Json::parseFile(const std::string &path)
{
    std::ifstream file(path, std::ios::binary);
    if (!file)
        throw JsonError("cannot open " + path);
    std::ostringstream buffer;
    buffer << file.rdbuf();
    try {
        return parse(buffer.str());
    } catch (const JsonError &err) {
        throw JsonError(path + ": " + err.what());
    }
}

} // namespace ctamem::json
