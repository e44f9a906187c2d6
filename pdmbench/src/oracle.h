#ifndef PDMBENCH_ORACLE_H_
#define PDMBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "engine/database.h"
#include "pdm/product_tree.h"
#include "pdm/user_context.h"

namespace pdmbench {

/// The product structure as the standard rules let the reference user
/// see it, computed without the SQL engine or the rules module: the PDM
/// base tables are read once through the catalog's row interface
/// (Table::VisibleAt / MaterializeRow) and the physical hierarchy is
/// walked in C++. A child is visible under its parent iff its object
/// row has acc = '+', the link's effectivity overlaps the user window
/// and the link's option set overlaps the user's options.
class Oracle {
 public:
  /// Reads assy, comp and link at the latest committed snapshot.
  static pdm::Result<Oracle> Load(pdm::Database* db,
                                  const pdm::pdmsys::UserContext& user,
                                  int64_t root);

  int64_t root() const { return root_; }
  bool IsAssembly(int64_t obid) const;
  /// Visible children of `obid`, in link order.
  const std::vector<int64_t>& Children(int64_t obid) const;

  /// Visible subtree of `root` cut after `levels` levels below it
  /// (0 = the whole subtree): obid -> parent obid, the root mapping to 0.
  std::unordered_map<int64_t, int64_t> Subtree(int64_t root, int levels) const;
  /// Objects of the whole visible subtree of `root`, root included.
  size_t SubtreeSize(int64_t root) const;
  /// Visible nodes of the subtree of `root` per level below it; index 0
  /// is the root itself.
  std::vector<size_t> PerLevel(int64_t root) const;
  /// Visible assemblies exactly `level` levels below the product root.
  std::vector<int64_t> AssembliesAtLevel(int level) const;

  /// Test hooks: corrupt the oracle's own copy of the structure.
  void DropChildForTest(int64_t parent, int64_t child);
  void AddChildForTest(int64_t parent, int64_t child);

 private:
  struct Node {
    bool assembly = false;
    bool acc = false;
    std::vector<int64_t> children;  // visible children only
  };
  int64_t root_ = 0;
  std::unordered_map<int64_t, Node> nodes_;
};

/// OK iff `tree` equals the oracle's subtree of `root` cut at `levels`:
/// the same node set, the same parent of every node, the same type.
pdm::Status CheckTree(const Oracle& oracle, const pdm::pdmsys::ProductTree& tree,
                      int64_t root, int levels);

/// OK iff the catalog shows `checked_out` on every object of the
/// visible subtree of `root` (read through Table::IndexLookup under a
/// registered snapshot, so version GC cannot move rows mid-read).
pdm::Status CheckFlags(pdm::Database* db, const Oracle& oracle, int64_t root,
                       bool checked_out);

}  // namespace pdmbench

#endif  // PDMBENCH_ORACLE_H_
