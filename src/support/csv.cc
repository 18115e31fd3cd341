#include "support/csv.hh"

#include <cstdio>

namespace rigor {

std::string
CsvWriter::quote(const std::string &v)
{
    bool needs = false;
    for (char c : v) {
        if (c == ',' || c == '"' || c == '\n' || c == '\r') {
            needs = true;
            break;
        }
    }
    if (!needs)
        return v;
    std::string out = "\"";
    for (char c : v) {
        if (c == '"')
            out += "\"\"";
        else
            out += c;
    }
    out += '"';
    return out;
}

void
CsvWriter::writeRow(const std::vector<std::string> &fields)
{
    for (const auto &f : fields)
        field(f);
    endRow();
}

CsvWriter &
CsvWriter::field(const std::string &v)
{
    if (rowStarted)
        out << ',';
    out << quote(v);
    rowStarted = true;
    return *this;
}

CsvWriter &
CsvWriter::field(uint64_t v)
{
    return field(std::to_string(v));
}

CsvWriter &
CsvWriter::field(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return field(std::string(buf));
}

void
CsvWriter::endRow()
{
    out << '\n';
    rowStarted = false;
}

} // namespace rigor
