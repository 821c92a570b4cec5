/**
 * @file
 * Minimal JSON value type and parser, for the structured results files
 * tools/paper and tools/claims exchange (src/sim/results.hpp).
 *
 * Scope: full JSON syntax on input (objects, arrays, strings with
 * escapes, numbers, bools, null); object members keep their document
 * order so round-trips are deterministic. Numbers are parsed with
 * std::from_chars, so parsing — like emission via common/numfmt — is
 * locale-independent.
 */

#pragma once

#include <string>
#include <utility>
#include <vector>

namespace tcm::json {

struct Value
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Value> array;
    /** Members in document order (never reordered, duplicates kept). */
    std::vector<std::pair<std::string, Value>> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }

    /** First member named @p key, or nullptr (also when not an object). */
    const Value *find(const std::string &key) const;

    /** Member @p key as a number/string, or the default when absent or
     *  of the wrong kind. */
    double numberOr(const std::string &key, double def) const;
    std::string stringOr(const std::string &key,
                         const std::string &def) const;
};

/** Parse @p text (one JSON document, trailing whitespace allowed).
 *  Throws std::runtime_error with offset context on malformed input. */
Value parse(const std::string &text);

/** JSON string literal for @p s, quotes included. */
std::string quote(const std::string &s);

} // namespace tcm::json
