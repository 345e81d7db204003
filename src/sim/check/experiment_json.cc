#include "sim/check/experiment_json.hh"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "common/json.hh"

namespace hsipc::sim::check
{

namespace
{

/**
 * Render a double with enough digits to round-trip exactly through
 * strtod (%.12g, the measurement form, is deliberately lossy).
 */
std::string
exactNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

[[noreturn]] void
typeError(const std::string &field, const char *want)
{
    throw std::runtime_error(field + " must be " + want);
}

// --- Writing ------------------------------------------------------

template <class T>
std::string objectJson(const T &obj, bool multiline);

std::string
valueJson(bool v)
{
    return v ? "true" : "false";
}

std::string
valueJson(int v)
{
    return std::to_string(v);
}

std::string
valueJson(double v)
{
    return exactNumber(v);
}

std::string
valueJson(models::Arch a)
{
    return std::to_string(static_cast<int>(a));
}

// The seed is a full 64-bit value; a JSON number (double) only holds
// 53 bits exactly, so it travels as a decimal string.
std::string
valueJson(std::uint64_t seed)
{
    return jsonString(std::to_string(seed));
}

std::string
valueJson(const std::string &s)
{
    return jsonString(s);
}

std::string
valueJson(const topo::Topology &t)
{
    return objectJson(t, false);
}

template <class T>
std::string
valueJson(const std::vector<T> &items)
{
    std::string out = "[";
    for (const T &item : items)
        out += (&item == &items.front() ? "" : ", ") +
               objectJson(item, false);
    return out + "]";
}

/**
 * @p obj as a JSON object, its fields in table order: one per line
 * for the top-level document, inline for nested objects.
 */
template <class T>
std::string
objectJson(const T &obj, bool multiline)
{
    std::string doc = "{";
    const char *sep = "";
    Fields<T>::forEach([&](const char *key, auto member, FieldUnit) {
        const auto &value = obj.*member;
        // The topology object appears only when configured, so every
        // pre-topology document (and its golden bytes) is unchanged.
        if constexpr (std::is_same_v<std::decay_t<decltype(value)>,
                                     topo::Topology>)
            if (value == topo::Topology{})
                return;
        doc += std::string(sep) + (multiline ? "\n  \"" : "\"") + key +
               "\": " + valueJson(value);
        sep = multiline ? "," : ", ";
    });
    return doc + (multiline ? "\n}" : "}");
}

// --- Reading ------------------------------------------------------

template <class T>
void readObject(const JsonValue &v, T &obj, const std::string &kind,
                std::initializer_list<const char *> required = {});

void
readValue(const JsonValue &v, const std::string &field, bool &out)
{
    if (v.kind() != JsonValue::Kind::Bool)
        typeError(field, "a boolean");
    out = v.asBool();
}

void
readValue(const JsonValue &v, const std::string &field, double &out)
{
    if (v.kind() != JsonValue::Kind::Number)
        typeError(field, "a number");
    out = v.asNumber();
}

void
readValue(const JsonValue &v, const std::string &field, int &out)
{
    double d;
    readValue(v, field, d);
    if (!(d >= std::numeric_limits<int>::min() &&
          d <= std::numeric_limits<int>::max()) ||
        d != std::trunc(d))
        typeError(field, "an integer");
    out = static_cast<int>(d);
}

void
readValue(const JsonValue &v, const std::string &field,
          models::Arch &out)
{
    int a;
    readValue(v, field, a);
    out = static_cast<models::Arch>(a); // validate() checks the range
}

void
readValue(const JsonValue &v, const std::string &field,
          std::string &out)
{
    if (v.kind() != JsonValue::Kind::String)
        typeError(field, "a string");
    out = v.asString();
}

void
readValue(const JsonValue &v, const std::string &field,
          std::uint64_t &out)
{
    std::string s;
    readValue(v, field, s);
    char *end = nullptr;
    out = std::strtoull(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0')
        typeError(field, "a decimal string");
}

void
readValue(const JsonValue &v, const std::string &, topo::Topology &out)
{
    readObject(v, out, "topology");
}

template <class T>
void
readArray(const JsonValue &v, const std::string &field,
          std::vector<T> &out, const std::string &kind,
          std::initializer_list<const char *> required)
{
    if (v.kind() != JsonValue::Kind::Array)
        typeError(field, "an array");
    out.clear();
    for (const JsonValue &item : v.asArray())
        readObject(item, out.emplace_back(), kind, required);
}

void
readValue(const JsonValue &v, const std::string &field,
          std::vector<CrashWindow> &out)
{
    readArray(v, field, out, "crash window", {"node", "startUs", "endUs"});
}

void
readValue(const JsonValue &v, const std::string &field,
          std::vector<topo::TopoLink> &out)
{
    readArray(v, field, out, "topology link", {"a", "b"});
}

/**
 * Fill @p obj from the JSON object @p v: keys its field table does not
 * name are errors, absent keys keep their defaults unless @p required
 * lists them.
 */
template <class T>
void
readObject(const JsonValue &v, T &obj, const std::string &kind,
           std::initializer_list<const char *> required)
{
    if (!v.isObject())
        throw std::runtime_error(kind + " must be a JSON object");
    for (const auto &[key, value] : v.asObject()) {
        bool known = false;
        Fields<T>::forEach([&](const char *name, auto, FieldUnit) {
            known |= key == name;
        });
        if (!known)
            throw std::runtime_error("unknown " + kind + " field '" +
                                     key + "'");
    }
    for (const char *key : required)
        if (!v.has(key))
            throw std::runtime_error(kind + " entries need '" +
                                     std::string(key) + "'");
    Fields<T>::forEach([&](const char *key, auto member, FieldUnit) {
        if (v.has(key))
            readValue(v.at(key), kind + " field '" + key + "'",
                      obj.*member);
    });
}

} // namespace

std::string
experimentToJson(const Experiment &exp)
{
    return objectJson(exp, true) + "\n";
}

Experiment
experimentFromJson(const JsonValue &v)
{
    Experiment exp;
    readObject(v, exp, "experiment");
    // A well-typed document can still name an impossible run; reject
    // it here, every violation listed, rather than let
    // runExperiment() abort on it.
    const std::vector<std::string> errors = validate(exp);
    if (!errors.empty()) {
        std::string msg = "invalid experiment";
        for (const std::string &e : errors)
            msg += (&e == &errors.front() ? ": " : "; ") + e;
        throw std::runtime_error(msg);
    }
    return exp;
}

Experiment
experimentFromJsonText(const std::string &text)
{
    return experimentFromJson(parseJson(text));
}

} // namespace hsipc::sim::check
