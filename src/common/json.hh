/**
 * @file
 * A small dependency-free JSON value module: the data layer of the
 * declarative scenario stack.
 *
 * One `Json` value holds null / bool / number / string / array /
 * object.  Objects are *insertion-ordered*, numbers remember whether
 * they were written as unsigned, signed or floating point, and the
 * printer is deterministic (shortest-round-trip doubles, stable
 * member order) — so a config serialized twice is byte-identical,
 * which the golden-file tests and the manifest round-trip guarantees
 * rely on.
 *
 * Used by the scenario manifests (`sim/scenario.*`), the campaign
 * reports, and the Table-1 bench's `BENCH_table1.json`.
 */

#ifndef CTAMEM_COMMON_JSON_HH
#define CTAMEM_COMMON_JSON_HH

#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ctamem::json {

/** Error thrown by `parse`, `parseFile` and the checked accessors. */
class JsonError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** One JSON value. */
class Json
{
  public:
    enum class Type : std::uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    /** Storage kind of a Number (drives integer-exact printing). */
    enum class NumKind : std::uint8_t
    {
        Double,
        U64,
        I64,
    };

    struct Member; //!< one object member: {key, value}
    using Array = std::vector<Json>;
    /** Insertion-ordered member list — deterministic output. */
    using Object = std::vector<Member>;

    /** @name Construction (implicit from the scalar C++ types) */
    /** @{ */
    Json() = default; //!< null
    Json(std::nullptr_t) {}
    Json(bool value) : type_(Type::Bool), bool_(value) {}
    Json(double value) : type_(Type::Number), dbl_(value) {}
    Json(std::uint64_t value)
        : type_(Type::Number), num_(NumKind::U64), u64_(value)
    {}
    Json(std::int64_t value)
        : type_(Type::Number), num_(NumKind::I64), i64_(value)
    {}
    Json(int value) : Json(static_cast<std::int64_t>(value)) {}
    Json(unsigned value) : Json(static_cast<std::uint64_t>(value)) {}
    Json(std::string value)
        : type_(Type::String), str_(std::move(value))
    {}
    Json(std::string_view value) : Json(std::string(value)) {}
    Json(const char *value) : Json(std::string(value)) {}

    /** An empty array / object (distinct from null). */
    static Json array();
    static Json object();
    /** @} */

    /** @name Type inspection */
    /** @{ */
    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }
    /** True for null/bool/number/string (prints on one line). */
    bool isScalar() const { return !isArray() && !isObject(); }
    /** @} */

    /** @name Checked accessors — throw JsonError on type mismatch */
    /** @{ */
    NumKind numKind() const; //!< for numbers only
    bool asBool() const;
    double asDouble() const; //!< any number kind
    /** Number as uint64; throws when negative or fractional. */
    std::uint64_t asU64() const;
    std::int64_t asI64() const;
    const std::string &asString() const;
    /** @} */

    /** @name Arrays */
    /** @{ */
    /** Append one element (value must be an array); chains. */
    Json &push(Json value);
    const Array &items() const;
    /** @} */

    /** @name Objects */
    /** @{ */
    /**
     * Set @p key to @p value, overwriting in place or appending (the
     * value must be an object).  Returns *this for chaining.
     */
    Json &set(std::string key, Json value);
    bool contains(std::string_view key) const;
    /** Member lookup; nullptr when absent. */
    const Json *find(std::string_view key) const;
    /** Member lookup; throws JsonError naming the key when absent. */
    const Json &at(std::string_view key) const;
    const Object &members() const;
    /** @} */

    /** Elements of an array / members of an object; 0 for scalars. */
    std::size_t size() const;

    /**
     * Pretty-print with two-space indentation.  Composites whose
     * children are all scalars (and small) print on one line, so
     * e.g. a Table-1 cell stays
     * `{"value": 1.0, "unit": "BLOCKED", "iterations": 32}`.
     * Output is deterministic: golden files can compare bytes.
     */
    std::string dump() const;
    void write(std::ostream &os) const;

    /**
     * Structural equality; numbers compare by value, so a round
     * trip through dump/parse compares equal.
     */
    bool operator==(const Json &other) const;

    /** Parse @p text; throws JsonError with line/column context. */
    static Json parse(std::string_view text);

    /** Read and parse @p path; errors are prefixed with the path. */
    static Json parseFile(const std::string &path);

  private:
    Type type_ = Type::Null;
    NumKind num_ = NumKind::Double;
    bool bool_ = false;
    double dbl_ = 0.0;
    std::uint64_t u64_ = 0;
    std::int64_t i64_ = 0;
    std::string str_;
    Array arr_;
    Object obj_;
};

struct Json::Member
{
    std::string key;
    Json value;
};

} // namespace ctamem::json

#endif // CTAMEM_COMMON_JSON_HH
