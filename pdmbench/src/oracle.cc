#include "oracle.h"

#include <deque>

#include "pdm/pdm_schema.h"

namespace pdmbench {

using pdm::Result;
using pdm::Row;
using pdm::Status;
using pdm::Table;

namespace {

Result<size_t> Column(const Table& table, const char* name) {
  std::optional<size_t> col = table.schema().FindColumn(name);
  if (!col) {
    return Status::Internal(std::string("table ") + table.name() +
                            " has no column " + name);
  }
  return *col;
}

const std::vector<int64_t> kNoChildren;

}  // namespace

Result<Oracle> Oracle::Load(pdm::Database* db,
                            const pdm::pdmsys::UserContext& user,
                            int64_t root) {
  Oracle oracle;
  oracle.root_ = root;
  pdm::Database::Snapshot snapshot = db->AcquireSnapshot();
  const uint64_t ts = snapshot.ts();
  Row row;
  for (const char* name : {pdm::pdmsys::kAssyTable, pdm::pdmsys::kCompTable}) {
    PDM_ASSIGN_OR_RETURN(Table * table, db->catalog().GetTable(name));
    PDM_ASSIGN_OR_RETURN(size_t obid_col, Column(*table, "obid"));
    PDM_ASSIGN_OR_RETURN(size_t acc_col, Column(*table, "acc"));
    const bool assembly = std::string(name) == pdm::pdmsys::kAssyTable;
    const size_t bound = table->num_versions();
    for (size_t pos = 0; pos < bound; ++pos) {
      if (!table->VisibleAt(pos, ts)) continue;
      table->MaterializeRow(pos, &row);
      Node& node = oracle.nodes_[row[obid_col].int64_value()];
      node.assembly = assembly;
      node.acc = row[acc_col].is_string() && row[acc_col].string_value() == "+";
    }
  }
  PDM_ASSIGN_OR_RETURN(Table * link,
                       db->catalog().GetTable(pdm::pdmsys::kLinkTable));
  PDM_ASSIGN_OR_RETURN(size_t left_col, Column(*link, "left"));
  PDM_ASSIGN_OR_RETURN(size_t right_col, Column(*link, "right"));
  PDM_ASSIGN_OR_RETURN(size_t from_col, Column(*link, "eff_from"));
  PDM_ASSIGN_OR_RETURN(size_t to_col, Column(*link, "eff_to"));
  PDM_ASSIGN_OR_RETURN(size_t opt_col, Column(*link, "strc_opt"));
  PDM_ASSIGN_OR_RETURN(size_t hier_col, Column(*link, "hier"));
  const size_t bound = link->num_versions();
  for (size_t pos = 0; pos < bound; ++pos) {
    if (!link->VisibleAt(pos, ts)) continue;
    link->MaterializeRow(pos, &row);
    if (row[hier_col].string_value() != pdm::pdmsys::kPhysicalHierarchy) {
      continue;
    }
    const bool effective = row[from_col].int64_value() <= user.eff_to &&
                           row[to_col].int64_value() >= user.eff_from;
    const bool option = (row[opt_col].int64_value() & user.strc_opt) != 0;
    auto child = oracle.nodes_.find(row[right_col].int64_value());
    auto parent = oracle.nodes_.find(row[left_col].int64_value());
    if (child == oracle.nodes_.end() || parent == oracle.nodes_.end()) {
      return Status::Internal("link references a missing object");
    }
    if (effective && option && child->second.acc) {
      parent->second.children.push_back(child->first);
    }
  }
  if (oracle.nodes_.count(root) == 0 || !oracle.nodes_[root].acc) {
    return Status::Internal("product root is missing or not visible");
  }
  return oracle;
}

bool Oracle::IsAssembly(int64_t obid) const {
  auto it = nodes_.find(obid);
  return it != nodes_.end() && it->second.assembly;
}

const std::vector<int64_t>& Oracle::Children(int64_t obid) const {
  auto it = nodes_.find(obid);
  return it == nodes_.end() ? kNoChildren : it->second.children;
}

std::unordered_map<int64_t, int64_t> Oracle::Subtree(int64_t root,
                                                     int levels) const {
  std::unordered_map<int64_t, int64_t> parent_of;
  parent_of[root] = 0;
  std::deque<std::pair<int64_t, int>> frontier{{root, 0}};
  while (!frontier.empty()) {
    auto [obid, depth] = frontier.front();
    frontier.pop_front();
    if (levels > 0 && depth >= levels) continue;
    for (int64_t child : Children(obid)) {
      parent_of[child] = obid;
      frontier.emplace_back(child, depth + 1);
    }
  }
  return parent_of;
}

size_t Oracle::SubtreeSize(int64_t root) const {
  return Subtree(root, 0).size();
}

std::vector<size_t> Oracle::PerLevel(int64_t root) const {
  std::vector<size_t> per_level;
  std::vector<int64_t> level{root};
  while (!level.empty()) {
    per_level.push_back(level.size());
    std::vector<int64_t> next;
    for (int64_t obid : level) {
      const std::vector<int64_t>& children = Children(obid);
      next.insert(next.end(), children.begin(), children.end());
    }
    level = std::move(next);
  }
  return per_level;
}

std::vector<int64_t> Oracle::AssembliesAtLevel(int level) const {
  std::vector<int64_t> nodes{root_};
  for (int i = 0; i < level; ++i) {
    std::vector<int64_t> next;
    for (int64_t obid : nodes) {
      const std::vector<int64_t>& children = Children(obid);
      next.insert(next.end(), children.begin(), children.end());
    }
    nodes = std::move(next);
  }
  std::vector<int64_t> assemblies;
  for (int64_t obid : nodes) {
    if (IsAssembly(obid)) assemblies.push_back(obid);
  }
  return assemblies;
}

void Oracle::DropChildForTest(int64_t parent, int64_t child) {
  std::vector<int64_t>& children = nodes_[parent].children;
  std::erase(children, child);
}

void Oracle::AddChildForTest(int64_t parent, int64_t child) {
  nodes_[parent].children.push_back(child);
}

Status CheckTree(const Oracle& oracle, const pdm::pdmsys::ProductTree& tree,
                 int64_t root, int levels) {
  const std::unordered_map<int64_t, int64_t> expected =
      oracle.Subtree(root, levels);
  if (tree.num_nodes() != expected.size()) {
    return Status::Internal("tree of root " + std::to_string(root) + " has " +
                            std::to_string(tree.num_nodes()) +
                            " nodes, oracle " +
                            std::to_string(expected.size()));
  }
  for (const pdm::pdmsys::ProductNode& node : tree.nodes()) {
    auto it = expected.find(node.obid);
    if (it == expected.end()) {
      return Status::Internal("tree holds node " + std::to_string(node.obid) +
                              " the oracle does not");
    }
    const int64_t parent =
        node.parent ? tree.node(*node.parent).obid : int64_t{0};
    if (parent != it->second) {
      return Status::Internal("node " + std::to_string(node.obid) +
                              " hangs under " + std::to_string(parent) +
                              ", oracle " + std::to_string(it->second));
    }
    if ((node.type == "assy") != oracle.IsAssembly(node.obid)) {
      return Status::Internal("node " + std::to_string(node.obid) +
                              " has type " + node.type);
    }
  }
  return Status::OK();
}

Status CheckFlags(pdm::Database* db, const Oracle& oracle, int64_t root,
                  bool checked_out) {
  pdm::Database::Snapshot snapshot = db->AcquireSnapshot();
  std::vector<size_t> positions;
  for (const auto& [obid, parent] : oracle.Subtree(root, 0)) {
    const char* name = oracle.IsAssembly(obid) ? pdm::pdmsys::kAssyTable
                                               : pdm::pdmsys::kCompTable;
    PDM_ASSIGN_OR_RETURN(Table * table, db->catalog().GetTable(name));
    PDM_ASSIGN_OR_RETURN(size_t obid_col, Column(*table, "obid"));
    PDM_ASSIGN_OR_RETURN(size_t flag_col, Column(*table, "checkedout"));
    table->IndexLookup(obid_col, pdm::Value::Int64(obid), &positions);
    size_t visible = 0;
    for (size_t pos : positions) {
      if (!table->VisibleAt(pos, snapshot.ts())) continue;
      ++visible;
      const pdm::Value flag = table->Cell(pos, flag_col);
      if (!flag.is_bool() || flag.bool_value() != checked_out) {
        return Status::Internal("object " + std::to_string(obid) +
                                " has checkedout = " + flag.ToString() +
                                ", expected " +
                                (checked_out ? "TRUE" : "FALSE"));
      }
    }
    if (visible != 1) {
      return Status::Internal("object " + std::to_string(obid) + " has " +
                              std::to_string(visible) + " visible versions");
    }
  }
  return Status::OK();
}

}  // namespace pdmbench
