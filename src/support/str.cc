#include "support/str.hh"

#include <cctype>
#include <cstdint>
#include <cstdio>

namespace rigor {

std::vector<std::string>
split(std::string_view s, char delim)
{
    std::vector<std::string> out;
    size_t start = 0;
    for (size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == delim) {
            out.emplace_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

std::string
join(const std::vector<std::string> &parts, std::string_view sep)
{
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i)
            out += sep;
        out += parts[i];
    }
    return out;
}

bool
startsWith(std::string_view s, std::string_view prefix)
{
    return s.size() >= prefix.size() &&
        s.substr(0, prefix.size()) == prefix;
}

bool
endsWith(std::string_view s, std::string_view suffix)
{
    return s.size() >= suffix.size() &&
        s.substr(s.size() - suffix.size()) == suffix;
}

std::string
trim(std::string_view s)
{
    size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return std::string(s.substr(b, e - b));
}

std::string
padLeft(std::string_view s, size_t width)
{
    if (s.size() >= width)
        return std::string(s);
    return std::string(width - s.size(), ' ') + std::string(s);
}

std::string
padRight(std::string_view s, size_t width)
{
    if (s.size() >= width)
        return std::string(s);
    return std::string(s) + std::string(width - s.size(), ' ');
}

std::string
fmtDouble(double v, int places)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", places, v);
    return buf;
}

std::string
fmtCount(uint64_t v)
{
    std::string digits = std::to_string(v);
    std::string out;
    int count = 0;
    for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
        if (count && count % 3 == 0)
            out += ',';
        out += *it;
        ++count;
    }
    return std::string(out.rbegin(), out.rend());
}

std::string
repeat(char c, size_t n)
{
    return std::string(n, c);
}

} // namespace rigor
