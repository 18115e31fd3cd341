/**
 * @file
 * CSV writing with RFC-4180-style quoting.
 */

#ifndef RIGOR_SUPPORT_CSV_HH
#define RIGOR_SUPPORT_CSV_HH

#include <ostream>
#include <string>
#include <vector>

namespace rigor {

/**
 * Streams rows of fields to an ostream as CSV. Fields containing commas,
 * quotes or newlines are quoted and embedded quotes are doubled.
 */
class CsvWriter
{
  public:
    /** Write to the given stream; the stream must outlive the writer. */
    explicit CsvWriter(std::ostream &os) : out(os) {}

    /** Write a full row of string fields. */
    void writeRow(const std::vector<std::string> &fields);

    /** Append one field to the current row. */
    CsvWriter &field(const std::string &v);
    /** Append an unsigned field. */
    CsvWriter &field(uint64_t v);
    /** Append a double field rendered with full precision. */
    CsvWriter &field(double v);

    /** Terminate the current row. */
    void endRow();

    /** Quote a single field per RFC 4180 if needed. */
    static std::string quote(const std::string &v);

  private:
    std::ostream &out;
    bool rowStarted = false;
};

} // namespace rigor

#endif // RIGOR_SUPPORT_CSV_HH
