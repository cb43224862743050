// table.hpp — tabular output for bench harnesses and reports.
//
// Every bench binary in bench/ prints the rows/series of one paper figure
// or table. TableWriter renders the same data either as an aligned ASCII
// table (human-facing, default) or as CSV (machine-facing, --format=csv),
// so figure data can be replotted directly.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace codesign {

enum class TableFormat { kAscii, kCsv, kMarkdown };

/// Parse "ascii" / "csv" / "markdown" (alias "md"); throws UsageError
/// naming the bad value. Shared by the bench harness and codesign-bench.
TableFormat parse_table_format(const std::string& name);

/// A simple row/column table with typed cell helpers. Column count is fixed
/// by the header; add_row enforces it.
class TableWriter {
 public:
  explicit TableWriter(std::vector<std::string> header);

  /// Start a new (empty) row.
  TableWriter& new_row();
  /// Append cells to the current row.
  TableWriter& cell(std::string value);
  TableWriter& cell(std::int64_t value);
  TableWriter& cell(double value, int precision = 3);

  /// Append a fully formed row (must match header width).
  void add_row(std::vector<std::string> row);

  std::size_t num_rows() const { return rows_.size(); }
  const std::vector<std::string>& header() const { return header_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

  /// Render to a string in the requested format.
  std::string render(TableFormat format = TableFormat::kAscii) const;

  /// Render to a stream.
  void write(std::ostream& os, TableFormat format = TableFormat::kAscii) const;

 private:
  void finish_pending_row();

  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::string> pending_;
  bool pending_open_ = false;
};

/// Escape one CSV field (quotes fields containing comma/quote/newline).
std::string csv_escape(const std::string& field);

}  // namespace codesign
