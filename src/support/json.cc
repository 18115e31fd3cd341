#include "support/json.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <new>
#include <system_error>
#include <type_traits>

#include "support/logging.hh"

namespace rigor {

static_assert(std::is_nothrow_move_constructible_v<Json>,
              "vectors of Json must grow by moving");
static_assert(sizeof(Json) <= 40, "Json is a small tagged union");

namespace {

/** Members are kept sorted by key; find where `key` is or belongs. */
template <typename Members>
auto
lowerBound(Members &obj, std::string_view key)
{
    return std::lower_bound(
        obj.begin(), obj.end(), key,
        [](const auto &m, std::string_view k) { return m.first < k; });
}

} // namespace

Json::Json(uint64_t u)
    : type_(Type::Int)
{
    if (u > static_cast<uint64_t>(std::numeric_limits<int64_t>::max()))
        panic("Json: uint64 value does not fit in int64");
    intVal = static_cast<int64_t>(u);
}

void
Json::constructFrom(const Json &other)
{
    type_ = other.type_;
    switch (type_) {
      case Type::Null: intVal = 0; break;
      case Type::Bool: boolVal = other.boolVal; break;
      case Type::Int: intVal = other.intVal; break;
      case Type::Double: dblVal = other.dblVal; break;
      case Type::String: new (&strVal) std::string(other.strVal); break;
      case Type::Array: new (&arr) Array(other.arr); break;
      case Type::Object: new (&obj) Object(other.obj); break;
    }
}

void
Json::constructFrom(Json &&other) noexcept
{
    type_ = other.type_;
    switch (type_) {
      case Type::Null: intVal = 0; break;
      case Type::Bool: boolVal = other.boolVal; break;
      case Type::Int: intVal = other.intVal; break;
      case Type::Double: dblVal = other.dblVal; break;
      case Type::String:
        new (&strVal) std::string(std::move(other.strVal));
        break;
      case Type::Array: new (&arr) Array(std::move(other.arr)); break;
      case Type::Object: new (&obj) Object(std::move(other.obj)); break;
    }
}

void
Json::destroy() noexcept
{
    switch (type_) {
      case Type::String: strVal.~basic_string(); break;
      case Type::Array: arr.~Array(); break;
      case Type::Object: obj.~Object(); break;
      default: break;
    }
    type_ = Type::Null;
}

Json &
Json::operator=(const Json &other)
{
    if (this != &other)
        *this = Json(other);
    return *this;
}

Json &
Json::operator=(Json &&other) noexcept
{
    if (this != &other) {
        // `other` may live inside this value (v = v.member): take its
        // contents before destroying ours.
        Json taken(std::move(other));
        destroy();
        constructFrom(std::move(taken));
    }
    return *this;
}

Json
Json::array()
{
    Json j;
    j.type_ = Type::Array;
    new (&j.arr) Array();
    return j;
}

Json
Json::object()
{
    Json j;
    j.type_ = Type::Object;
    new (&j.obj) Object();
    return j;
}

void
Json::push(Json v)
{
    if (type_ != Type::Array)
        panic("Json::push on non-array");
    arr.push_back(std::move(v));
}

void
Json::set(std::string key, Json v)
{
    if (type_ != Type::Object)
        panic("Json::set on non-object");
    // Writers and the parser mostly add keys in order: append.
    if (obj.empty() || obj.back().first < key) {
        obj.emplace_back(std::move(key), std::move(v));
        return;
    }
    auto it = lowerBound(obj, key);
    if (it != obj.end() && it->first == key)
        it->second = std::move(v);
    else
        obj.emplace(it, std::move(key), std::move(v));
}

void
Json::erase(std::string_view key)
{
    if (type_ != Type::Object)
        panic("Json::erase on non-object");
    auto it = lowerBound(obj, key);
    if (it != obj.end() && it->first == key)
        obj.erase(it);
}

size_t
Json::size() const
{
    if (type_ == Type::Array)
        return arr.size();
    if (type_ == Type::Object)
        return obj.size();
    panic("Json::size on scalar");
}

const Json &
Json::at(size_t idx) const
{
    if (type_ != Type::Array)
        panic("Json::at(index) on non-array");
    if (idx >= arr.size())
        panic("Json::at: index %zu out of range", idx);
    return arr[idx];
}

const Json &
Json::at(std::string_view key) const
{
    if (type_ != Type::Object)
        panic("Json::at(key) on non-object");
    const Json *v = get(key);
    if (!v)
        panic("Json::at: missing key '%s'", std::string(key).c_str());
    return *v;
}

bool
Json::has(std::string_view key) const
{
    return get(key) != nullptr;
}

const Json *
Json::get(std::string_view key) const
{
    if (type_ != Type::Object)
        return nullptr;
    auto it = lowerBound(obj, key);
    return it != obj.end() && it->first == key ? &it->second : nullptr;
}

Json *
Json::get(std::string_view key)
{
    return const_cast<Json *>(std::as_const(*this).get(key));
}

std::vector<std::string>
Json::keys() const
{
    if (type_ != Type::Object)
        panic("Json::keys on non-object");
    std::vector<std::string> out;
    out.reserve(obj.size());
    for (const auto &m : obj)
        out.push_back(m.first);
    return out;
}

bool
Json::asBool() const
{
    if (type_ != Type::Bool)
        panic("Json::asBool on non-bool");
    return boolVal;
}

int64_t
Json::asInt() const
{
    if (type_ == Type::Int)
        return intVal;
    panic("Json::asInt on non-int");
}

double
Json::asDouble() const
{
    if (type_ == Type::Double)
        return dblVal;
    if (type_ == Type::Int)
        return static_cast<double>(intVal);
    panic("Json::asDouble on non-numeric");
}

const std::string &
Json::asString() const
{
    if (type_ != Type::String)
        panic("Json::asString on non-string");
    return strVal;
}

namespace {

void
escapeInto(std::string &out, const std::string &s)
{
    static const char hex[] = "0123456789abcdef";
    out += '"';
    // Bytes that need no escape are copied a run at a time.
    const char *run = s.data();
    const char *end = run + s.size();
    for (const char *p = run; p != end; ++p) {
        auto c = static_cast<unsigned char>(*p);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(run, static_cast<size_t>(p - run));
        run = p + 1;
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default: {
            const char esc[] = {'\\', 'u', '0', '0', hex[c >> 4],
                                hex[c & 0xf]};
            out.append(esc, sizeof(esc));
          }
        }
    }
    out.append(run, static_cast<size_t>(end - run));
    out += '"';
}

void
newlineIndent(std::string &out, int indent, int depth)
{
    if (indent < 0)
        return;
    out += '\n';
    out.append(static_cast<size_t>(indent) * depth, ' ');
}

} // namespace

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    switch (type_) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += boolVal ? "true" : "false";
        break;
      case Type::Int: {
        char buf[24];
        auto r = std::to_chars(buf, buf + sizeof(buf), intVal);
        out.append(buf, static_cast<size_t>(r.ptr - buf));
        break;
      }
      case Type::Double: {
        if (!std::isfinite(dblVal)) {
            out += "null";
        } else {
            // The standard defines to_chars(general, 17) as printf's
            // "%.17g" in the C locale: the same bytes, whatever
            // LC_NUMERIC says.
            char buf[64];
            auto r = std::to_chars(buf, buf + sizeof(buf), dblVal,
                                   std::chars_format::general, 17);
            out.append(buf, static_cast<size_t>(r.ptr - buf));
        }
        break;
      }
      case Type::String:
        escapeInto(out, strVal);
        break;
      case Type::Array: {
        out += '[';
        bool first = true;
        for (const auto &v : arr) {
            if (!first)
                out += ',';
            first = false;
            newlineIndent(out, indent, depth + 1);
            v.dumpTo(out, indent, depth + 1);
        }
        if (!arr.empty())
            newlineIndent(out, indent, depth);
        out += ']';
        break;
      }
      case Type::Object: {
        out += '{';
        bool first = true;
        for (const auto &[k, v] : obj) {
            if (!first)
                out += ',';
            first = false;
            newlineIndent(out, indent, depth + 1);
            escapeInto(out, k);
            out += indent < 0 ? ":" : ": ";
            v.dumpTo(out, indent, depth + 1);
        }
        if (!obj.empty())
            newlineIndent(out, indent, depth);
        out += '}';
        break;
      }
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

namespace {

/** The six bytes C-locale isspace() accepts, whatever the locale. */
constexpr bool
isSpace(char c)
{
    return c == ' ' || c == '\n' || c == '\t' || c == '\r' ||
        c == '\v' || c == '\f';
}

/** Recursive-descent JSON parser over a flat buffer. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : s(text), pos(0) {}

    Json
    parseDocument()
    {
        Json v = parseValue();
        skipWs();
        if (pos != s.size())
            fail("trailing characters");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const char *what)
    {
        fatal("JSON parse error at offset %zu: %s", pos, what);
    }

    static bool
    isDigit(char c)
    {
        return c >= '0' && c <= '9';
    }

    void
    skipWs()
    {
        while (pos < s.size() && isSpace(s[pos]))
            ++pos;
    }

    char
    peek()
    {
        if (pos >= s.size())
            fail("unexpected end of input");
        return s[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail("unexpected character");
        ++pos;
    }

    bool
    consumeLiteral(std::string_view lit)
    {
        if (s.compare(pos, lit.size(), lit) == 0) {
            pos += lit.size();
            return true;
        }
        return false;
    }

    /** Enter an array or object; bounds the recursion. */
    void
    descend()
    {
        if (++depth > Json::kMaxDepth)
            fail("nesting deeper than the limit");
    }

    Json
    parseValue()
    {
        skipWs();
        char c = peek();
        if (c == '{')
            return parseObject();
        if (c == '[')
            return parseArray();
        if (c == '"')
            return Json(parseString());
        if (c != '-' && !isDigit(c)) {
            if (consumeLiteral("true"))
                return Json(true);
            if (consumeLiteral("false"))
                return Json(false);
            if (consumeLiteral("null"))
                return Json();
        }
        return parseNumber();
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            // Copy the run up to the next quote or escape in one go.
            size_t run = pos;
            while (pos < s.size() && s[pos] != '"' && s[pos] != '\\')
                ++pos;
            out.append(s.data() + run, pos - run);
            if (pos >= s.size())
                fail("unterminated string");
            if (s[pos++] == '"')
                return out;
            if (pos >= s.size())
                fail("bad escape");
            char e = s[pos++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                if (pos + 4 > s.size())
                    fail("bad \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = s[pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad hex digit");
                }
                if (code > 0x7f)
                    fail("non-ASCII \\u escape unsupported");
                out += static_cast<char>(code);
                break;
              }
              default:
                fail("unknown escape");
            }
        }
    }

    Json
    parseNumber()
    {
        size_t start = pos;
        if (peek() == '-')
            ++pos;
        bool isDouble = false;
        while (pos < s.size()) {
            char c = s[pos];
            if (isDigit(c)) {
                ++pos;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                isDouble = true;
                ++pos;
            } else {
                break;
            }
        }
        if (pos == start)
            fail("expected number");
        // std::from_chars, not std::stod/stoll: from_chars is
        // locale-independent (std::stod honors LC_NUMERIC, so under a
        // comma-decimal locale "1.5" silently truncated to 1) and
        // reports range errors as error codes instead of exceptions
        // (std::stod threw an uncaught std::out_of_range on "1e999").
        const char *first = s.data() + start;
        const char *last = s.data() + pos;
        if (!isDouble) {
            int64_t iv = 0;
            auto [p, ec] = std::from_chars(first, last, iv);
            if (ec == std::errc() && p == last) {
                // "-0" is how a negative-zero double is written: keep
                // it one, so it dumps back to the same bytes.
                if (iv == 0 && *first == '-')
                    return Json(-0.0);
                return Json(iv);
            }
            if (ec != std::errc::result_out_of_range && p != last)
                fail("malformed number");
            // Out-of-int64-range integer literal: fall through and
            // keep it as a double, matching the previous behavior.
        }
        double dv = 0.0;
        auto [p, ec] = std::from_chars(first, last, dv);
        if (p != last || ec == std::errc::invalid_argument)
            fail("malformed number");
        if (ec == std::errc::result_out_of_range)
            fail("number out of range");
        return Json(dv);
    }

    Json
    parseArray()
    {
        expect('[');
        descend();
        Json out = Json::array();
        skipWs();
        if (peek() == ']') {
            ++pos;
            --depth;
            return out;
        }
        for (;;) {
            out.push(parseValue());
            skipWs();
            char c = peek();
            ++pos;
            if (c == ']') {
                --depth;
                return out;
            }
            if (c != ',')
                fail("expected ',' or ']'");
        }
    }

    Json
    parseObject()
    {
        expect('{');
        descend();
        Json out = Json::object();
        skipWs();
        if (peek() == '}') {
            ++pos;
            --depth;
            return out;
        }
        for (;;) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            out.set(std::move(key), parseValue());
            skipWs();
            char c = peek();
            ++pos;
            if (c == '}') {
                --depth;
                return out;
            }
            if (c != ',')
                fail("expected ',' or '}'");
        }
    }

    std::string_view s;
    size_t pos;
    int depth = 0;
};

} // namespace

Json
Json::parse(std::string_view text)
{
    Parser p(text);
    return p.parseDocument();
}

namespace {

/** How strip() treats a byte outside strings. */
enum ByteClass : unsigned char
{
    kWordByte,   ///< part of a number or literal
    kSpaceByte,  ///< dropped
    kQuoteByte,  ///< starts a string
    kStructByte, ///< one of {}[],:
};

constexpr std::array<ByteClass, 256> kByteClass = [] {
    std::array<ByteClass, 256> t{};
    for (int i = 0; i < 256; ++i) {
        char c = static_cast<char>(i);
        t[static_cast<size_t>(i)] = isSpace(c) ? kSpaceByte
            : c == '"'                          ? kQuoteByte
            : c == '{' || c == '}' || c == '[' || c == ']' ||
                c == ',' || c == ':'
            ? kStructByte
            : kWordByte;
    }
    return t;
}();

ByteClass
byteClass(char c)
{
    return kByteClass[static_cast<unsigned char>(c)];
}

} // namespace

bool
Json::strip(std::string_view text, std::string &out,
            std::vector<Span> *outline, int outlineDepth)
{
    constexpr size_t kNone = static_cast<size_t>(-1);
    // What the next token may be, as far as the outline cares: a
    // value starts a span, a key names the next one.
    enum class Next { Value, Key, Other };
    struct Open
    {
        char close;
        size_t span;
    };
    std::vector<Open> stack;
    Next next = Next::Value;
    size_t keyBegin = 0, keyEnd = 0;
    size_t scalarSpan = kNone;

    out.resize(text.size());
    char *o = out.data();
    const char *p = text.data();
    const char *end = p + text.size();
    auto at = [&] { return static_cast<size_t>(o - out.data()); };

    while (p != end) {
        ByteClass cls = byteClass(*p);
        if (cls == kSpaceByte) {
            // Indentation is most of a pretty-printed file: skip
            // spaces eight at a time.
            constexpr uint64_t kEightSpaces = 0x2020202020202020ull;
            uint64_t eight;
            ++p;
            while (end - p >= 8 &&
                   (std::memcpy(&eight, p, 8), eight == kEightSpaces))
                p += 8;
            while (p != end && byteClass(*p) == kSpaceByte)
                ++p;
            if (p != end && o != out.data() &&
                byteClass(o[-1]) == kWordByte &&
                byteClass(*p) == kWordByte)
                return false;
            continue;
        }

        // A closing bracket right after `[` (or `:`) ends an empty
        // array (or a malformed member), not a value.
        size_t span = kNone;
        if (next == Next::Value && *p != ']' && *p != '}') {
            size_t depth = stack.size();
            if (outline && depth >= 1 &&
                depth <= static_cast<size_t>(outlineDepth)) {
                span = outline->size();
                outline->push_back(Span{static_cast<int>(depth),
                                        keyBegin, keyEnd, at(), at()});
            }
            keyBegin = keyEnd = 0;
            next = Next::Other;
        }

        if (cls == kWordByte) {
            do
                *o++ = *p++;
            while (p != end && byteClass(*p) == kWordByte);
            if (span != kNone)
                scalarSpan = span;
            continue;
        }

        if (cls == kQuoteByte) {
            size_t begin = at();
            *o++ = *p++;
            for (;;) {
                const char *run = p;
                while (p != end && *p != '"' && *p != '\\')
                    ++p;
                std::memcpy(o, run, static_cast<size_t>(p - run));
                o += p - run;
                if (p == end || (*p == '\\' && p + 1 == end))
                    return false;
                if (*p == '"')
                    break;
                *o++ = *p++;
                *o++ = *p++;
            }
            *o++ = *p++;
            if (next == Next::Key) {
                keyBegin = begin;
                keyEnd = at();
                next = Next::Other;
            }
            if (span != kNone)
                (*outline)[span].end = at();
            continue;
        }

        char c = *p;
        if (scalarSpan != kNone && (c == '}' || c == ']' || c == ',')) {
            (*outline)[scalarSpan].end = at();
            scalarSpan = kNone;
        }
        *o++ = *p++;
        switch (c) {
          case '{':
          case '[':
            stack.push_back(Open{c == '{' ? '}' : ']', span});
            if (stack.size() > static_cast<size_t>(kMaxDepth))
                return false;
            next = c == '{' ? Next::Key : Next::Value;
            break;
          case '}':
          case ']':
            if (stack.empty() || stack.back().close != c)
                return false;
            if (stack.back().span != kNone)
                (*outline)[stack.back().span].end = at();
            stack.pop_back();
            next = Next::Other;
            break;
          case ',':
            if (stack.empty())
                return false;
            next = stack.back().close == '}' ? Next::Key : Next::Value;
            break;
          default: // ':'
            next = Next::Value;
            break;
        }
    }
    if (scalarSpan != kNone)
        (*outline)[scalarSpan].end = at();
    out.resize(at());
    return stack.empty();
}

} // namespace rigor
