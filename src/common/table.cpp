#include "common/table.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace codesign {

TableFormat parse_table_format(const std::string& name) {
  const std::string fmt = to_lower(name);
  if (fmt == "ascii") return TableFormat::kAscii;
  if (fmt == "csv") return TableFormat::kCsv;
  if (fmt == "markdown" || fmt == "md") return TableFormat::kMarkdown;
  throw UsageError("--format must be ascii, csv, or markdown; got '" + fmt + "'");
}

TableWriter::TableWriter(std::vector<std::string> header)
    : header_(std::move(header)) {
  CODESIGN_CHECK(!header_.empty(), "table must have at least one column");
}

TableWriter& TableWriter::new_row() {
  finish_pending_row();
  pending_open_ = true;
  pending_.clear();
  return *this;
}

TableWriter& TableWriter::cell(std::string value) {
  CODESIGN_CHECK(pending_open_, "cell() called before new_row()");
  pending_.push_back(std::move(value));
  return *this;
}

TableWriter& TableWriter::cell(std::int64_t value) {
  return cell(std::to_string(value));
}

TableWriter& TableWriter::cell(double value, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << value;
  return cell(os.str());
}

void TableWriter::add_row(std::vector<std::string> row) {
  finish_pending_row();
  CODESIGN_CHECK(row.size() == header_.size(),
                 "row width does not match header width");
  rows_.push_back(std::move(row));
}

void TableWriter::finish_pending_row() {
  if (!pending_open_) return;
  pending_open_ = false;
  std::vector<std::string> row = std::move(pending_);
  pending_.clear();
  CODESIGN_CHECK(row.size() == header_.size(),
                 "row width does not match header width");
  rows_.push_back(std::move(row));
}

std::string csv_escape(const std::string& field) {
  const bool needs_quote =
      field.find_first_of(",\"\n") != std::string::npos;
  if (!needs_quote) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

std::string TableWriter::render(TableFormat format) const {
  // Renders a snapshot; flush the row under construction first.
  const_cast<TableWriter*>(this)->finish_pending_row();
  std::ostringstream os;
  write(os, format);
  return os.str();
}

void TableWriter::write(std::ostream& os, TableFormat format) const {
  const_cast<TableWriter*>(this)->finish_pending_row();
  if (format == TableFormat::kCsv) {
    auto emit = [&os](const std::vector<std::string>& row) {
      for (std::size_t i = 0; i < row.size(); ++i) {
        if (i != 0) os << ',';
        os << csv_escape(row[i]);
      }
      os << '\n';
    };
    emit(header_);
    for (const auto& row : rows_) emit(row);
    return;
  }

  // Column widths for aligned output.
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t i = 0; i < header_.size(); ++i) widths[i] = header_[i].size();
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }

  auto pad = [](const std::string& s, std::size_t w) {
    std::string out = s;
    out.resize(w, ' ');
    return out;
  };

  if (format == TableFormat::kMarkdown) {
    os << '|';
    for (std::size_t i = 0; i < header_.size(); ++i) {
      os << ' ' << pad(header_[i], widths[i]) << " |";
    }
    os << "\n|";
    for (std::size_t i = 0; i < header_.size(); ++i) {
      os << std::string(widths[i] + 2, '-') << '|';
    }
    os << '\n';
    for (const auto& row : rows_) {
      os << '|';
      for (std::size_t i = 0; i < row.size(); ++i) {
        os << ' ' << pad(row[i], widths[i]) << " |";
      }
      os << '\n';
    }
    return;
  }

  // ASCII
  auto rule = [&] {
    for (std::size_t i = 0; i < header_.size(); ++i) {
      os << '+' << std::string(widths[i] + 2, '-');
    }
    os << "+\n";
  };
  auto line = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      os << "| " << pad(row[i], widths[i]) << ' ';
    }
    os << "|\n";
  };
  rule();
  line(header_);
  rule();
  for (const auto& row : rows_) line(row);
  rule();
}

}  // namespace codesign
