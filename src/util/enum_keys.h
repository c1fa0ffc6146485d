#ifndef BOLT_UTIL_ENUM_KEYS_H
#define BOLT_UTIL_ENUM_KEYS_H

#include <cstddef>
#include <string>
#include <string_view>

namespace bolt {
namespace util {

/**
 * One row of an enum's key table: the spelling scenario files and
 * command-line flags use for an enumerator. Each module generates its
 * tables from the X-macro catalog that also declares the enum (the
 * BOLT_RESOURCE_CATALOG idiom), so every name is written exactly once
 * and the row order is the order diagnostics list the valid keys in.
 */
template <typename E>
struct EnumKey
{
    E value;
    const char* key;
};

/** X-macro expander for a catalog's enumerator list. */
#define BOLT_ENUMERATOR(Sym, ...) Sym,

/** Key of `v`; "?" when the table lacks it. */
template <typename E, size_t N>
const char*
enumKey(const EnumKey<E> (&table)[N], E v)
{
    for (const EnumKey<E>& row : table)
        if (row.value == v)
            return row.key;
    return "?";
}

/** Enumerator spelled `key`; false (and *out untouched) when unknown. */
template <typename E, size_t N>
bool
enumFromKey(const EnumKey<E> (&table)[N], std::string_view key, E* out)
{
    for (const EnumKey<E>& row : table) {
        if (key == row.key) {
            *out = row.value;
            return true;
        }
    }
    return false;
}

/** Every key in table order, joined by `sep` ("a, b, c"). */
template <typename E, size_t N>
std::string
enumKeyList(const EnumKey<E> (&table)[N], std::string_view sep = ", ")
{
    std::string list;
    for (size_t i = 0; i < N; ++i) {
        if (i)
            list += sep;
        list += table[i].key;
    }
    return list;
}

} // namespace util
} // namespace bolt

#endif // BOLT_UTIL_ENUM_KEYS_H
