/**
 * @file
 * Minimal JSON value model, serializer and parser.
 *
 * Used to dump experiment results in a machine-readable form and to read
 * experiment configurations. Only the JSON subset needed by the framework
 * is supported (no \\u escapes beyond ASCII, numbers as double/int64).
 */

#ifndef RIGOR_SUPPORT_JSON_HH
#define RIGOR_SUPPORT_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rigor {

/**
 * A JSON value: null, bool, int, double, string, array or object.
 *
 * A small tagged union (40 bytes). Objects are a vector of members
 * kept sorted by key, so iteration, and therefore dump(), visits keys
 * in `std::string` order: the canonical form every CRC and
 * fingerprint hashes (DESIGN.md decision 8).
 */
class Json
{
  public:
    enum class Type { Null, Bool, Int, Double, String, Array, Object };

    /**
     * Deepest array/object nesting parse() accepts. Far above
     * anything the tool writes; it bounds the parser's recursion so a
     * hostile document is a parse error instead of a stack overflow.
     */
    static constexpr int kMaxDepth = 512;

    /** Construct null. */
    Json() : type_(Type::Null), intVal(0) {}
    /** Construct a boolean. */
    Json(bool b) : type_(Type::Bool), boolVal(b) {}
    /** Construct an integer. */
    Json(int64_t i) : type_(Type::Int), intVal(i) {}
    /** Construct an integer from int. */
    Json(int i) : type_(Type::Int), intVal(i) {}
    /** Construct an integer from uint64 (must fit in int64). */
    Json(uint64_t u);
    /** Construct a double. */
    Json(double d) : type_(Type::Double), dblVal(d) {}
    /** Construct a string. */
    Json(std::string s) : type_(Type::String), strVal(std::move(s)) {}
    /** Construct a string from a literal. */
    Json(const char *s) : type_(Type::String), strVal(s) {}

    Json(const Json &other) { constructFrom(other); }
    Json(Json &&other) noexcept { constructFrom(std::move(other)); }
    Json &operator=(const Json &other);
    Json &operator=(Json &&other) noexcept;
    ~Json()
    {
        // String, Array and Object, the last three types, own memory.
        if (type_ >= Type::String)
            destroy();
    }

    /** Make an empty array. */
    static Json array();
    /** Make an empty object. */
    static Json object();

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }

    /** Append to an array (panics if not an array). */
    void push(Json v);
    /**
     * Set an object key, replacing any previous value (panics if not
     * an object).
     */
    void set(std::string key, Json v);
    /** Remove an object key if present (panics if not an object). */
    void erase(std::string_view key);

    /** Array/object size. */
    size_t size() const;
    /** Array element access (panics on type/range errors). */
    const Json &at(size_t idx) const;
    /** Object member access (panics if missing). */
    const Json &at(std::string_view key) const;
    /** True if object has the key. */
    bool has(std::string_view key) const;
    /**
     * Object member lookup for optional fields: nullptr when the key
     * is absent or this value is not an object. Lets readers of
     * evolving documents (run archives, suite resume state) accept
     * older files that predate a field.
     */
    const Json *get(std::string_view key) const;
    /** Mutable lookup, e.g. to move a member out of a parsed document. */
    Json *get(std::string_view key);
    /**
     * Object keys in canonical (sorted) order; panics on non-objects.
     * Used by readers of open-ended maps, e.g. restoring a metrics
     * snapshot whose counter names are data, not schema.
     */
    std::vector<std::string> keys() const;

    bool asBool() const;
    int64_t asInt() const;
    /** Numeric access: works for Int and Double. */
    double asDouble() const;
    const std::string &asString() const;

    /** Serialize; indent < 0 means compact single-line output. */
    std::string dump(int indent = -1) const;

    /**
     * Parse a JSON document; throws FatalError on malformed input,
     * including nesting deeper than kMaxDepth.
     */
    static Json parse(std::string_view text);

    /** Where one value sits in a strip()ped text. */
    struct Span
    {
        /** 1 for a member or element of the document, 2 below... */
        int depth = 0;
        /** A member's key, quotes included; empty for an element. */
        size_t keyBegin = 0, keyEnd = 0;
        /** The value's bytes. */
        size_t begin = 0, end = 0;
    };

    /**
     * Copy `text` into `out` without the whitespace outside strings
     * (the set parse() skips), and append to `outline`, in document
     * order, a Span for every value nested at most `outlineDepth`
     * deep. A lexical pass, not a second grammar: it follows strings
     * and brackets only, so true does not mean `text` parses. It does
     * mean `out` lexes to the same tokens as `text`, so both parse to
     * the same value or both fail.
     * @return false, leaving `out` and `outline` unspecified, on an
     * unterminated string, an unbalanced bracket, nesting deeper than
     * kMaxDepth, or whitespace between two characters of a number or
     * literal (dropping it would join two tokens).
     */
    static bool strip(std::string_view text, std::string &out,
                      std::vector<Span> *outline = nullptr,
                      int outlineDepth = 0);

  private:
    using Array = std::vector<Json>;
    using Member = std::pair<std::string, Json>;
    using Object = std::vector<Member>;

    void constructFrom(const Json &other);
    void constructFrom(Json &&other) noexcept;
    void destroy() noexcept;
    void dumpTo(std::string &out, int indent, int depth) const;

    Type type_;
    // Exactly the member type_ names is alive.
    union {
        bool boolVal;
        int64_t intVal;
        double dblVal;
        std::string strVal;
        Array arr;
        Object obj;
    };
};

} // namespace rigor

#endif // RIGOR_SUPPORT_JSON_HH
