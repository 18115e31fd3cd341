/**
 * @file
 * Small string utilities shared across the framework.
 */

#ifndef RIGOR_SUPPORT_STR_HH
#define RIGOR_SUPPORT_STR_HH

#include <string>
#include <string_view>
#include <vector>

namespace rigor {

/** Split a string on a single-character delimiter. */
std::vector<std::string> split(std::string_view s, char delim);

/** Join strings with a separator. */
std::string join(const std::vector<std::string> &parts,
                 std::string_view sep);

/** True if s starts with prefix. */
bool startsWith(std::string_view s, std::string_view prefix);

/** True if s ends with suffix. */
bool endsWith(std::string_view s, std::string_view suffix);

/** Strip leading and trailing ASCII whitespace. */
std::string trim(std::string_view s);

/** Left-pad with spaces to the given width. */
std::string padLeft(std::string_view s, size_t width);

/** Right-pad with spaces to the given width. */
std::string padRight(std::string_view s, size_t width);

/** Format a double with the given number of decimal places. */
std::string fmtDouble(double v, int places);

/** Format a count with thousands separators (e.g. 1,234,567). */
std::string fmtCount(uint64_t v);

/** Repeat a character n times. */
std::string repeat(char c, size_t n);

} // namespace rigor

#endif // RIGOR_SUPPORT_STR_HH
