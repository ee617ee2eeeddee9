#include "io/workload_io.h"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace hytap {

namespace {

/// Reads the next non-empty, non-comment line; returns false at EOF.
bool NextLine(std::istringstream& in, std::string* line) {
  while (std::getline(in, *line)) {
    const size_t start = line->find_first_not_of(" \t\r");
    if (start == std::string::npos) continue;
    if ((*line)[start] == '#') continue;
    *line = line->substr(start);
    return true;
  }
  return false;
}

}  // namespace

std::string SerializeWorkload(const Workload& workload) {
  std::ostringstream out;
  out << "hytap-workload v1\n";
  out << "columns " << workload.column_count() << "\n";
  out.precision(17);
  for (size_t i = 0; i < workload.column_count(); ++i) {
    const std::string name = i < workload.column_names.size() &&
                                     !workload.column_names[i].empty()
                                 ? workload.column_names[i]
                                 : "col_" + std::to_string(i);
    out << name << " " << workload.column_sizes[i] << " "
        << workload.selectivities[i] << "\n";
  }
  out << "queries " << workload.query_count() << "\n";
  for (const QueryTemplate& q : workload.queries) {
    out << q.frequency;
    for (uint32_t c : q.columns) out << " " << c;
    out << "\n";
  }
  return out.str();
}

StatusOr<Workload> ParseWorkload(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!NextLine(in, &line) || line.rfind("hytap-workload", 0) != 0) {
    return Status::InvalidArgument("missing 'hytap-workload' header");
  }
  if (!NextLine(in, &line)) {
    return Status::InvalidArgument("missing 'columns' section");
  }
  size_t n = 0;
  if (std::sscanf(line.c_str(), "columns %zu", &n) != 1) {
    return Status::InvalidArgument("malformed 'columns' line: " + line);
  }
  Workload workload;
  for (size_t i = 0; i < n; ++i) {
    if (!NextLine(in, &line)) {
      return Status::InvalidArgument("unexpected EOF in columns");
    }
    std::istringstream fields(line);
    std::string name;
    double size = 0, selectivity = 0;
    if (!(fields >> name >> size >> selectivity)) {
      return Status::InvalidArgument("malformed column line: " + line);
    }
    if (size <= 0 || selectivity <= 0 || selectivity > 1) {
      return Status::InvalidArgument("column out of range: " + line);
    }
    workload.column_names.push_back(name);
    workload.column_sizes.push_back(size);
    workload.selectivities.push_back(selectivity);
  }
  if (!NextLine(in, &line)) {
    return Status::InvalidArgument("missing 'queries' section");
  }
  size_t q = 0;
  if (std::sscanf(line.c_str(), "queries %zu", &q) != 1) {
    return Status::InvalidArgument("malformed 'queries' line: " + line);
  }
  for (size_t j = 0; j < q; ++j) {
    if (!NextLine(in, &line)) {
      return Status::InvalidArgument("unexpected EOF in queries");
    }
    std::istringstream fields(line);
    QueryTemplate tmpl;
    if (!(fields >> tmpl.frequency) || tmpl.frequency < 0) {
      return Status::InvalidArgument("malformed query line: " + line);
    }
    uint32_t column;
    while (fields >> column) {
      if (column >= n) {
        return Status::InvalidArgument("query references unknown column: " +
                                       line);
      }
      tmpl.columns.push_back(column);
    }
    if (tmpl.columns.empty()) {
      return Status::InvalidArgument("query without columns: " + line);
    }
    workload.queries.push_back(std::move(tmpl));
  }
  return workload;
}

Status WriteWorkloadFile(const std::string& path, const Workload& workload) {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot open for writing: " + path);
  out << SerializeWorkload(workload);
  if (!out) return Status::Internal("write failed: " + path);
  return Status::Ok();
}

StatusOr<Workload> ReadWorkloadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return ParseWorkload(text.str());
}

std::string FrontierToCsv(const ExplicitFrontier& frontier,
                          const Workload& workload) {
  std::ostringstream out;
  out << "step,column,name,critical_alpha,dram_bytes,scan_cost\n";
  out.precision(12);
  for (size_t k = 0; k < frontier.points.size(); ++k) {
    const FrontierPoint& p = frontier.points[k];
    const std::string name = p.column < workload.column_names.size()
                                 ? workload.column_names[p.column]
                                 : "col_" + std::to_string(p.column);
    out << k << "," << p.column << "," << name << "," << p.alpha << ","
        << p.dram_bytes << "," << p.scan_cost << "\n";
  }
  return out.str();
}

std::string AllocationToCsv(const SelectionResult& result,
                            const Workload& workload) {
  std::ostringstream out;
  out << "column,name,size_bytes,location\n";
  out.precision(12);
  for (size_t i = 0; i < result.in_dram.size(); ++i) {
    const std::string name = i < workload.column_names.size()
                                 ? workload.column_names[i]
                                 : "col_" + std::to_string(i);
    out << i << "," << name << "," << workload.column_sizes[i] << ","
        << (result.in_dram[i] ? "dram" : "secondary") << "\n";
  }
  return out.str();
}

}  // namespace hytap
