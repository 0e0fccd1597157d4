// Minimal CSV emission for bench results (consumed by plotting scripts).
#pragma once

#include <fstream>
#include <string>
#include <vector>

namespace mcs::util {

/// Writes RFC-4180-ish CSV: cells containing commas/quotes/newlines are
/// quoted with doubled quotes. The file is created on construction.
///
/// Stream health is checked after every row and on close(): a full disk
/// or I/O error throws mcs::ConfigError instead of silently truncating
/// the output with exit code 0. Call close() explicitly to observe the
/// final flush; the destructor swallows errors (it must not throw).
class CsvWriter {
 public:
  CsvWriter(const std::string& path, std::vector<std::string> header);

  void add_row(const std::vector<std::string>& cells);
  /// Flush, verify stream health, and close. Also run (without throwing)
  /// by the destructor.
  void close();

  /// One cell as written: quoted, with doubled quotes, when it contains a
  /// comma, quote or newline; verbatim otherwise.
  [[nodiscard]] static std::string escape(const std::string& cell);

  ~CsvWriter();
  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

 private:
  void write_row(const std::vector<std::string>& cells);
  void check_stream() const;

  std::string path_;
  std::ofstream out_;
  std::size_t columns_;
};

}  // namespace mcs::util
