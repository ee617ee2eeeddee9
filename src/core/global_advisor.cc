#include "core/global_advisor.h"

#include "common/assert.h"

namespace hytap {

GlobalRecommendation GlobalAdvisor::Recommend(Database* db,
                                              double budget_bytes) const {
  HYTAP_ASSERT(db != nullptr, "GlobalAdvisor requires a database");
  GlobalRecommendation rec;
  // Concatenate the per-table workloads into one joint column space.
  Workload& joint = rec.joint_workload;
  std::vector<std::pair<std::string, size_t>> table_offsets;
  for (Table* table : db->tables()) {
    const Workload local =
        db->plan_cache(table->name()).ToWorkload(*table);
    const uint32_t offset = uint32_t(joint.column_count());
    table_offsets.emplace_back(table->name(), offset);
    for (size_t i = 0; i < local.column_count(); ++i) {
      joint.column_sizes.push_back(local.column_sizes[i]);
      joint.selectivities.push_back(local.selectivities[i]);
      joint.column_names.push_back(table->name() + "." +
                                   local.column_names[i]);
    }
    for (const QueryTemplate& q : local.queries) {
      QueryTemplate shifted;
      shifted.frequency = q.frequency;
      for (uint32_t c : q.columns) shifted.columns.push_back(c + offset);
      joint.queries.push_back(std::move(shifted));
    }
  }
  joint.Check();

  SelectionProblem problem;
  problem.workload = &joint;
  problem.params = params_;
  problem.budget_bytes = budget_bytes;
  rec.selection = SelectExplicit(problem);

  // Split the joint allocation back into per-table placements.
  for (size_t t = 0; t < table_offsets.size(); ++t) {
    const auto& [name, offset] = table_offsets[t];
    const Table* table = db->GetTable(name);
    TablePlacement placement;
    placement.table = name;
    placement.in_dram.resize(table->column_count());
    for (size_t c = 0; c < table->column_count(); ++c) {
      placement.in_dram[c] = rec.selection.in_dram[offset + c] != 0;
      if (placement.in_dram[c]) {
        placement.dram_bytes += joint.column_sizes[offset + c];
      }
    }
    rec.placements.push_back(std::move(placement));
  }
  return rec;
}

GlobalRecommendation GlobalAdvisor::RecommendRelative(Database* db,
                                                      double w) const {
  HYTAP_ASSERT(w >= 0.0 && w <= 1.0, "relative budget must be in [0, 1]");
  double total = 0.0;
  for (Table* table : db->tables()) {
    for (ColumnId c = 0; c < table->column_count(); ++c) {
      total += double(table->ColumnDramBytes(c));
    }
  }
  return Recommend(db, w * total);
}

StatusOr<uint64_t> GlobalAdvisor::Apply(Database* db,
                                        double budget_bytes) const {
  GlobalRecommendation rec = Recommend(db, budget_bytes);
  uint64_t total_moved = 0;
  for (const TablePlacement& placement : rec.placements) {
    uint64_t moved = 0;
    Status status =
        db->GetTable(placement.table)->SetPlacement(placement.in_dram,
                                                    &moved);
    if (!status.ok()) return status;
    total_moved += moved;
  }
  return total_moved;
}

}  // namespace hytap
